(* Seeded loop kernels for the long_run workload.

   Each kernel walks a table of [words] seeded words [iters] times. Per word
   it loads the word, dispatches through a four-entry jump table on its low
   bits, and calls one of four leaf routines. The kernel never stores, so
   its observable events are two traps (print and exit): far under the
   oracle's event-log bound however long it runs.

   The seed picks the table contents, the leaf routines' operations and
   their constants. Every leaf is two instructions, so the dynamic
   instruction count depends only on the shape, never on the seed. *)

type shape = { k_name : string; iters : int; words : int }

(* The shapes differ in iteration count and working set, and walk from
   40,960 to 65,536 words (about 0.8M to 1.25M dynamic instructions), so
   that job costs spread evenly rather than clustering by tool. *)
let shapes =
  [
    { k_name = "tiny"; iters = 2560; words = 16 };
    { k_name = "small"; iters = 192; words = 256 };
    { k_name = "mid"; iters = 14; words = 4096 };
    { k_name = "wide"; iters = 2; words = 32768 };
  ]

let leaf_ops = [| "add"; "xor"; "sub"; "or"; "and" |]

let source ~seed shape =
  let rng = Random.State.make [| seed; shape.iters; shape.words |] in
  let b = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "        .text";
  line "        .global main";
  line "main:   set %d, %%l0" shape.iters;
  line "        mov 0, %%l3";
  line "Louter: set tbl, %%l1";
  line "        set %d, %%l2" shape.words;
  line "Lwalk:  ld [%%l1], %%l4";
  line "        and %%l4, 3, %%l5";
  line "        sll %%l5, 2, %%l5";
  line "        set jt, %%l6";
  line "        ld [%%l6 + %%l5], %%l6";
  line "        jmp %%l6";
  line "        nop";
  for k = 0 to 3 do
    line "Lc%d:    call f%d" k k;
    line "        mov %%l4, %%o0";
    line "        ba Ljoin";
    line "        nop"
  done;
  line "Ljoin:  xor %%l3, %%o0, %%l3";
  line "        add %%l1, 4, %%l1";
  line "        subcc %%l2, 1, %%l2";
  line "        bne Lwalk";
  line "        nop";
  line "        subcc %%l0, 1, %%l0";
  line "        bne Louter";
  line "        nop";
  line "        mov %%l3, %%o0";
  line "        ta 2";
  line "        mov 0, %%o0";
  line "        ta 1";
  for k = 0 to 3 do
    let op = leaf_ops.(Random.State.int rng (Array.length leaf_ops)) in
    line "f%d:     retl" k;
    line "        %s %%o0, %d, %%o0" op (1 + Random.State.int rng 4000)
  done;
  line "        .data";
  line "        .align 4";
  line "jt:     .word Lc0, Lc1, Lc2, Lc3";
  line "tbl:";
  for _ = 1 to shape.words do
    line "        .word %d" (Random.State.bits rng)
  done;
  Buffer.contents b
