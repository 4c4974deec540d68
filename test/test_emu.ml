(* Tests for the SPARC emulator: arithmetic, condition codes, memory,
   delayed control transfers (including annul semantics — the behaviours
   EEL's CFG normalization must mirror), system calls, and faults. *)

module Sef = Eel_sef.Sef
open Eel_sparc
module Emu = Eel_emu.Emu

let run src =
  match Asm.assemble src with
  | Error m -> Alcotest.failf "assembly failed: %s" m
  | Ok exe -> fst (Emu.run_exe exe)

let check_out src expected =
  let r = run src in
  Alcotest.(check string) "output" expected r.Emu.out;
  r

let exit0 = "        mov 0, %o0\n        ta 1\n        nop\n"

let test_arith () =
  let r =
    check_out
      ({|
main:   mov 6, %l0
        mov 7, %l1
        smul %l0, %l1, %l2
        mov %l2, %o0
        ta 2
|}
      ^ exit0)
      "42\n"
  in
  Alcotest.(check int) "exit code" 0 r.Emu.exit_code

let test_neg_values () =
  ignore
    (check_out
       ({|
main:   mov 10, %l0
        sub %g0, %l0, %l1       ! -10
        mov %l1, %o0
        ta 2
        sra %l1, 1, %o0         ! -5
        ta 2
|}
       ^ exit0)
       "-10\n-5\n")

let test_cc_branches () =
  (* count down from 5, printing each value: exercises subcc + bne *)
  ignore
    (check_out
       ({|
main:   mov 5, %l0
Lloop:  mov %l0, %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        nop
|}
       ^ exit0)
       "5\n4\n3\n2\n1\n")

let test_unsigned_branches () =
  (* bgu/bleu on values with the sign bit set *)
  ignore
    (check_out
       ({|
main:   set 0x80000000, %l0
        cmp %l0, 1
        bgu Lbig
        nop
        mov 0, %o0
        ba Lout
        nop
Lbig:   mov 1, %o0
Lout:   ta 2
|}
       ^ exit0)
       "1\n")

let test_delay_slot_executes () =
  (* the instruction in a non-annulled taken branch's delay slot executes *)
  ignore
    (check_out
       ({|
main:   mov 1, %l0
        ba Lnext
        add %l0, 10, %l0        ! delay slot: executes
Lnext:  mov %l0, %o0
        ta 2
|}
       ^ exit0)
       "11\n")

let test_annulled_taken () =
  (* bcc,a: delay slot executes when the branch is taken *)
  ignore
    (check_out
       ({|
main:   mov 1, %l0
        cmp %l0, 1
        be,a Lnext
        add %l0, 10, %l0        ! executes (taken)
        add %l0, 100, %l0       ! skipped
Lnext:  mov %l0, %o0
        ta 2
|}
       ^ exit0)
       "11\n")

let test_annulled_untaken () =
  (* bcc,a: delay slot squashed when the branch falls through *)
  ignore
    (check_out
       ({|
main:   mov 1, %l0
        cmp %l0, 2
        be,a Lnext
        add %l0, 10, %l0        ! annulled (untaken)
Lnext:  mov %l0, %o0
        ta 2
|}
       ^ exit0)
       "1\n")

let test_ba_annulled () =
  (* ba,a: delay slot never executes *)
  ignore
    (check_out
       ({|
main:   mov 1, %l0
        ba,a Lnext
        add %l0, 10, %l0        ! annulled always
Lnext:  mov %l0, %o0
        ta 2
|}
       ^ exit0)
       "1\n")

let test_call_and_return () =
  ignore
    (check_out
       ({|
main:   call double
        mov 21, %o0             ! delay slot sets the argument
        ta 2
|}
       ^ exit0
       ^ {|
double: retl
        add %o0, %o0, %o0       ! delay slot computes the result
|})
       "42\n")

let test_call_delay_after_call () =
  (* the delay slot of a call executes before the callee *)
  ignore
    (check_out
       ({|
main:   mov 1, %o0
        call show
        add %o0, 1, %o0         ! executes first: callee sees 2
        mov 9, %o0
        ta 2
|}
       ^ exit0
       ^ {|
show:   mov %o0, %o1
        mov %o1, %o0
        ta 2
        retl
        nop
|})
       "2\n9\n")

let test_memory () =
  ignore
    (check_out
       ({|
main:   set buf, %l0
        mov 258, %l1
        st %l1, [%l0]
        ld [%l0], %o0
        ta 2
        sth %l1, [%l0 + 8]
        lduh [%l0 + 8], %o0
        ta 2
        stb %l1, [%l0 + 12]
        ldub [%l0 + 12], %o0
        ta 2
        mov -1, %l2
        stb %l2, [%l0 + 13]
        ldsb [%l0 + 13], %o0
        ta 2
|}
       ^ exit0 ^ {|
        .bss
        .align 8
buf:    .space 32
|})
       "258\n258\n2\n-1\n")

let test_ldd_std () =
  ignore
    (check_out
       ({|
main:   set buf, %l0
        mov 7, %l2
        mov 9, %l3
        std %l2, [%l0]
        ldd [%l0], %o2
        mov %o2, %o0
        ta 2
        mov %o3, %o0
        ta 2
|}
       ^ exit0 ^ {|
        .data
        .align 8
buf:    .word 0, 0
|})
       "7\n9\n")

let test_jump_table_dispatch () =
  ignore
    (check_out
       ({|
main:   mov 1, %o0              ! select case 1
        set table, %l0
        sll %o0, 2, %l1
        ld [%l0 + %l1], %l2
        jmp %l2
        nop
c0:     mov 100, %o0
        ba Lend
        nop
c1:     mov 200, %o0
        ba Lend
        nop
Lend:   ta 2
|}
       ^ exit0 ^ {|
        .data
        .align 4
table:  .word c0, c1
|})
       "200\n")

let test_write_syscall () =
  ignore
    (check_out
       ({|
main:   set msg, %o0
        mov 6, %o1
        ta 4
|}
       ^ exit0 ^ {|
        .data
msg:    .ascii "hello\n"
|})
       "hello\n")

let test_cycles_syscall () =
  let r = run ({|
main:   ta 7
        mov %o0, %l0
        ta 7
        sub %o0, %l0, %o0
        ta 2
|} ^ exit0) in
  (* two instructions elapse between the two reads: mov and the second ta *)
  Alcotest.(check string) "cycle delta" "2\n" r.Emu.out

let test_recursion () =
  (* fib(10) = 89 (with fib(0) = fib(1) = 1) using an explicit stack *)
  ignore
    (check_out
       ({|
main:   mov 10, %o0
        call fib
        nop
        ta 2
|}
       ^ exit0
       ^ {|
fib:    cmp %o0, 2
        bl Lbase
        nop
        sub %sp, 16, %sp
        st %o7, [%sp]
        st %o0, [%sp + 4]
        call fib
        sub %o0, 1, %o0
        st %o0, [%sp + 8]
        ld [%sp + 4], %o0
        call fib
        sub %o0, 2, %o0
        ld [%sp + 8], %o1
        add %o0, %o1, %o0
        ld [%sp], %o7
        add %sp, 16, %sp
        retl
        nop
Lbase:  retl
        mov 1, %o0
|})
       "89\n")

let test_counters () =
  let r = run ({|
main:   set buf, %l0
        ld [%l0], %l1
        st %l1, [%l0 + 4]
        ld [%l0 + 4], %l2
|} ^ exit0 ^ "\n .data\n .align 4\nbuf: .word 5, 0\n") in
  Alcotest.(check int) "loads" 2 r.Emu.loads;
  Alcotest.(check int) "stores" 1 r.Emu.stores;
  Alcotest.(check int) "insns" 7 r.Emu.insns

let test_fault_illegal () =
  let exe =
    match Asm.assemble "main: .word 0\n nop\n" with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  match Emu.run_exe exe with
  | exception Emu.Fault _ -> ()
  | _ -> Alcotest.fail "expected illegal-instruction fault"

let test_fault_misaligned () =
  let exe =
    match
      Asm.assemble "main: set buf, %l0\n ld [%l0 + 2], %l1\n nop\n .data\nbuf: .word 0"
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  match Emu.run_exe exe with
  | exception Emu.Fault msg ->
      Alcotest.(check bool) "mentions misaligned" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected alignment fault"

let test_fault_wild_pc () =
  let exe =
    match Asm.assemble "main: jmp %g0 + 0\n nop\n nop\n" with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  match Emu.run_exe exe with
  | exception Emu.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault jumping to 0"

let test_out_of_fuel () =
  let exe =
    match Asm.assemble "main: ba main\n nop\n" with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  match Emu.run_exe ~fuel:1000 exe with
  | exception Emu.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_event_hook () =
  let exe =
    match
      Asm.assemble
        ("main: set buf, %l0\n st %g0, [%l0]\n ld [%l0], %l1\n" ^ exit0
       ^ " .data\n .align 4\nbuf: .word 1")
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  let loads = ref 0 and stores = ref 0 and execs = ref 0 in
  let hook = function
    | Emu.Ev_load _ -> incr loads
    | Emu.Ev_store _ -> incr stores
    | Emu.Ev_exec _ -> incr execs
  in
  let r, _ = Emu.run_exe ~hook exe in
  Alcotest.(check int) "hook loads" 1 !loads;
  Alcotest.(check int) "hook stores" 1 !stores;
  Alcotest.(check int) "hook execs" r.Emu.insns !execs

let test_y_register () =
  (* umul writes Y with the high half *)
  ignore
    (check_out
       ({|
main:   set 0x10000, %l0
        umul %l0, %l0, %l1      ! 2^32: low word 0, Y = 1
        rd %y, %o0
        ta 2
        mov %l1, %o0
        ta 2
|}
       ^ exit0)
       "1\n0\n")

(* ---- the predecoded fast path (ISSUE 5) ----

   [Emu.load] gives the text span a predecode table whose slots are
   decoded on first fetch; a store into text resets a decoded slot. These
   tests pin the contract: predecoded and decode-per-step execution are
   observably identical, including under self-modifying code and on
   faults, and loading decodes nothing. *)

let run_mode ~predecode src =
  match Asm.assemble src with
  | Error m -> Alcotest.failf "assembly failed: %s" m
  | Ok exe -> fst (Emu.run_exe ~predecode exe)

let check_same_both_modes src =
  let a = run_mode ~predecode:true src
  and b = run_mode ~predecode:false src in
  Alcotest.(check string) "same output" b.Emu.out a.Emu.out;
  Alcotest.(check int) "same insns" b.Emu.insns a.Emu.insns;
  Alcotest.(check int) "same loads" b.Emu.loads a.Emu.loads;
  Alcotest.(check int) "same stores" b.Emu.stores a.Emu.stores;
  Alcotest.(check int) "same exit code" b.Emu.exit_code a.Emu.exit_code;
  a

(* or %g0, imm, %o0 — i.e. "mov imm, %o0" *)
let mov_imm_o0 imm =
  Insn.encode (Insn.Alu { op = Insn.Or; rs1 = 0; op2 = Insn.O_imm imm; rd = 8 })

let test_predecode_equiv () =
  List.iter
    (fun src -> ignore (check_same_both_modes src))
    [
      ({|
main:   mov 5, %l0
Lloop:  mov %l0, %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        nop
|}
      ^ exit0);
      ({|
main:   set buf, %l0
        mov 7, %l1
        st %l1, [%l0]
        ld [%l0], %o0
        ta 2
|}
      ^ exit0 ^ "        .data\n        .align 4\nbuf:    .word 0\n");
    ]

(* shared with the tier-2 suite below: the same self-modifying programs
   must also invalidate compiled blocks *)
let selfmod_word_src =
  Printf.sprintf
    {|
main:   set Lpatch, %%l0
        set 0x%x, %%l1
        st %%l1, [%%l0]
Lpatch: mov 1, %%o0
        ta 2
|}
    (mov_imm_o0 42)
  ^ exit0

let selfmod_byte_src =
  {|
main:   set Lpatch, %l0
        mov 0x2a, %l1
        stb %l1, [%l0 + 3]
Lpatch: mov 1, %o0
        ta 2
|}
  ^ exit0

let test_predecode_selfmod_word () =
  (* a full-word store over an instruction in the program's own text: the
     predecoded path must re-decode the patched word before re-executing
     it, matching decode-per-step exactly *)
  let r = check_same_both_modes selfmod_word_src in
  Alcotest.(check string) "patched instruction executed" "42\n" r.Emu.out

let test_predecode_selfmod_byte () =
  (* sub-word invalidation: a single-byte store into the low byte of an
     instruction word must also invalidate the predecoded entry *)
  Alcotest.(check int)
    "encodings differ only in the immediate byte" (mov_imm_o0 42)
    (mov_imm_o0 1 land lnot 0xFF lor 0x2a);
  let r = check_same_both_modes selfmod_byte_src in
  Alcotest.(check string) "byte-patched instruction executed" "42\n" r.Emu.out

let test_predecode_outside_text () =
  (* jumping into .data exercises the decode-per-step fallback: those pcs
     are outside the predecoded window, so fetch must fall back without
     faulting *)
  let w v = Printf.sprintf "0x%x" (Insn.encode v) in
  let ta n = Insn.Ticc { cond = Insn.CA; rs1 = 0; op2 = Insn.O_imm n } in
  let src =
    Printf.sprintf
      {|
main:   set Lcode, %%l0
        jmp %%l0
        nop
        .data
        .align 4
Lcode:  .word 0x%x, %s, 0x%x, %s, %s
|}
      (mov_imm_o0 42) (w (ta 2)) (mov_imm_o0 0) (w (ta 1)) (w Insn.nop)
  in
  let r = check_same_both_modes src in
  Alcotest.(check string) "ran code from the data segment" "42\n" r.Emu.out

let test_predecode_fault_parity () =
  (* an invalid word must not fault when it is decoded, only when it
     executes; both modes fault identically at execution *)
  let fault ~predecode =
    match Asm.assemble "main:   .word 0\n        nop\n" with
    | Error m -> Alcotest.failf "asm: %s" m
    | Ok exe -> (
        match Emu.run_exe ~predecode exe with
        | exception Emu.Fault m -> m
        | _ -> Alcotest.fail "expected illegal-instruction fault")
  in
  Alcotest.(check string) "identical fault message" (fault ~predecode:false)
    (fault ~predecode:true)

(* Words the program allocated while [f] ran, minor and major heap, with
   [f]'s result. *)
let allocating f =
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8), r)

(* The predecode table's pages that have a table of their own. *)
let allocated_pages (t : Emu.t) =
  List.filter (fun p -> t.Emu.code.(p) != Emu.empty_page)
    (List.init (Array.length t.Emu.code) Fun.id)

let qpt2_fib () =
  let exe =
    match Asm.assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  (exe, (Eel_tools.Qpt2.instrument Mach.mach exe).Eel_tools.Qpt2.edited)

let test_predecode_load_cost () =
  (* an edited image's text span runs from .text past the data regions to
     .eel.text, about a million words, of which the program executes a few
     hundred: a load allocates one pointer per 4 KB page of the span, no
     page of its own, and (with a spare buffer to reuse) no memory *)
  let exe, edited = qpt2_fib () in
  let _, headroom = Eel_diffexec.Diffexec.equalized_headroom exe edited in
  Emu.recycle (Bytes.create (Sef.high_addr edited + headroom));
  let words, t = allocating (fun () -> Emu.load ~headroom edited) in
  let pages = Array.length t.Emu.code in
  Alcotest.(check bool) "edited image is predecoded" true (t.Emu.code_slots > 0);
  Alcotest.(check int) "one page per 1,024 slots"
    ((t.Emu.code_slots + Emu.page_slots - 1) / Emu.page_slots)
    pages;
  Alcotest.(check (list int)) "no page allocated" [] (allocated_pages t);
  if words >= float_of_int (pages + 256) then
    Alcotest.failf "load allocated %.0f words for a %d-page table" words pages

(* ---- fuel boundaries and fault pokes (ISSUE 6) ----

   The differential oracle trusts that fuel exhaustion is observably
   identical in every execution tier: the terminating Ob_fuel event (and
   everything before it) must match at EVERY cutoff, including fuel that
   runs out between a branch and its delay slot, and including cutoffs
   that land in the middle of a tier-2 compiled block (the block-entry
   fuel gate must keep those in the interpreter). These tests sweep
   every boundary of a looping program rather than spot-checking one. *)

module Tier2 = Eel_emu.Tier2

let assemble_exe src =
  match Asm.assemble src with
  | Ok e -> e
  | Error m -> Alcotest.failf "asm: %s" m

(* threshold 1 so even a block entered twice runs compiled — the tests
   exercise the tier-2 path without needing long warmup loops *)
let load_tier ~tier exe =
  let t = Emu.load ~predecode:(tier <> Tier2.Interp) exe in
  let eng = if tier = Tier2.Block then Tier2.attach ~threshold:1 t else None in
  (t, eng)

let events_with_fuel ?(profile = false) ~tier ~fuel exe =
  let t, _ = load_tier ~tier exe in
  let log = Emu.obs_log () in
  Emu.set_obs t (Some log);
  let prof = if profile then Some (Emu.create_profile ()) else None in
  Emu.set_profile t prof;
  let stop =
    match Emu.run ~fuel t with
    | r -> Printf.sprintf "exit %d" r.Emu.exit_code
    | exception Emu.Out_of_fuel -> "fuel"
    | exception Emu.Fault m -> "fault: " ^ m
  in
  ( List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log),
    Emu.insns_executed t,
    Emu.registers t,
    stop,
    prof )

let fuel_parity_src =
  {|
main:   mov 3, %l0
        set buf, %l2
Lloop:  st %l0, [%l2]
        mov %l0, %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov 0, %o0
        ta 1
        nop
        .data
        .align 4
buf:    .word 0
|}

let test_fuel_boundary_parity () =
  let exe =
    match Asm.assemble fuel_parity_src with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  (* full length first, then every fuel cutoff 1..n+1: each prefix of the
     event log, the Ob_fuel terminator's pc, the final register file and
     the stop condition must be tier-independent — in particular at the
     cutoffs that split a bne from its delay slot, and at every cutoff
     that falls inside a compiled block's worst-case span. Profiled runs
     must also record tier-1's profile, which tier-2 folds on the way out
     of an Out_of_fuel. *)
  let full = run_mode ~predecode:true fuel_parity_src in
  let n = full.Emu.insns in
  for fuel = 1 to n + 1 do
    let eb, ib, rb, sb, pb =
      events_with_fuel ~profile:true ~tier:Tier2.Interp ~fuel exe
    in
    List.iter
      (fun (tr, profile) ->
        let chk what =
          Printf.sprintf "%s%s %s at fuel %d" (Tier2.tier_name tr)
            (if profile then " (profiled)" else "")
            what fuel
        in
        let ea, ia, ra, sa, pa = events_with_fuel ~profile ~tier:tr ~fuel exe in
        Alcotest.(check string) (chk "stop") sb sa;
        Alcotest.(check int) (chk "insns") ib ia;
        Alcotest.(check (list string)) (chk "events") eb ea;
        Alcotest.(check (array int)) (chk "registers") rb ra;
        match (pb, pa) with
        | Some pb, Some pa -> Profile_check.check (chk "profile") pb pa
        | _ -> ())
      [
        (Tier2.Interp, false);
        (Tier2.Predecode, false);
        (Tier2.Predecode, true);
        (Tier2.Block, false);
        (Tier2.Block, true);
      ]
  done

let test_poke_mode_parity () =
  (* overwrite the loop body's [mov %l0, %o0] (entry+0x10) with
     [mov 99, %o0] after the first iteration: later iterations must print
     99, and the predecoded instruction array must pick the new word up at
     the same instruction boundary as decode-per-step execution *)
  let exe =
    match Asm.assemble fuel_parity_src with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  let run_poked ~predecode pokes =
    let t = Emu.load ~predecode exe in
    let log = Emu.obs_log () in
    Emu.set_obs t (Some log);
    Emu.set_pokes t pokes;
    (match Emu.run t with
    | exception Emu.Fault _ -> ()
    | _ -> ());
    List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log)
  in
  let pokes =
    [ { Emu.pk_at = 7; pk_addr = exe.Sef.entry + 0x10; pk_value = mov_imm_o0 99 } ]
  in
  let poked = run_poked ~predecode:true pokes in
  Alcotest.(check (list string))
    "poked run identical across modes"
    (run_poked ~predecode:false pokes)
    poked;
  if poked = run_poked ~predecode:true [] then
    Alcotest.fail "poke had no observable effect"

let test_poke_invalid_dropped () =
  (* hostile poke plans — negative, misaligned, out of range, overflowing —
     must be silently dropped: same observable run as no pokes at all *)
  let exe =
    match Asm.assemble fuel_parity_src with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  let run_with pokes =
    let t = Emu.load exe in
    let log = Emu.obs_log () in
    Emu.set_obs t (Some log);
    Emu.set_pokes t pokes;
    ignore (Emu.run t);
    List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log)
  in
  let clean = run_with [] in
  let hostile =
    [
      { Emu.pk_at = 0; pk_addr = -4; pk_value = 1 };
      { Emu.pk_at = 1; pk_addr = 3; pk_value = 1 };
      { Emu.pk_at = 2; pk_addr = max_int - 3; pk_value = 1 };
      { Emu.pk_at = 3; pk_addr = 1 lsl 30; pk_value = 1 };
    ]
  in
  Alcotest.(check (list string)) "hostile pokes are no-ops" clean
    (run_with hostile)

(* ---- tier-2: block compilation with OSR deopt (ISSUE 10) ----

   [Tier2.attach] compiles hot basic blocks into chained closures; any
   mid-block condition the closures can't handle transfers pc/npc/ninsns
   back to the tier-1 interpreter at an instruction boundary (OSR).
   These tests pin the contract from the outside: across all three tiers
   the observable run — stop condition, event log, instruction count,
   final registers, output — is identical, including through deopts at
   every boundary of a chained block pair and under stores into compiled
   text. *)

type tier_run = {
  tr_stop : string;
  tr_events : string list;
  tr_insns : int;
  tr_regs : int array;
  tr_out : string;
  tr_engine : Tier2.t option;
  tr_profile : Emu.profile option;
}

let run_tier ?(pokes = []) ?(profile = false) ~tier src =
  let t, eng = load_tier ~tier (assemble_exe src) in
  let log = Emu.obs_log () in
  Emu.set_obs t (Some log);
  Emu.set_pokes t pokes;
  let prof = if profile then Some (Emu.create_profile ()) else None in
  Emu.set_profile t prof;
  let stop =
    match Emu.run t with
    | r -> Printf.sprintf "exit %d" r.Emu.exit_code
    | exception Emu.Fault m -> "fault: " ^ m
    | exception Emu.Out_of_fuel -> "fuel"
  in
  {
    tr_stop = stop;
    tr_events = List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log);
    tr_insns = Emu.insns_executed t;
    tr_regs = Emu.registers t;
    tr_out = Emu.output t;
    tr_engine = eng;
    tr_profile = prof;
  }

let engine_stats name r =
  match r.tr_engine with
  | Some st -> Tier2.stats st
  | None -> Alcotest.failf "%s: tier-2 engine failed to attach" name

(* Run [src] under all three tiers, each with and without a profile
   armed. Demand an identical observable run everywhere, tier-1's profile
   from every profiled run, and the same compiled execution from the
   block tier whether or not it keeps a profile; return the tier-2
   engine's stats for structural assertions. *)
let check_tiers_agree ?pokes name src =
  let base = run_tier ?pokes ~profile:true ~tier:Tier2.Interp src in
  let check ~profile tr =
    let chk what =
      Printf.sprintf "%s [%s%s] %s" name (Tier2.tier_name tr)
        (if profile then ", profiled" else "")
        what
    in
    let r = run_tier ?pokes ~profile ~tier:tr src in
    Alcotest.(check string) (chk "stop") base.tr_stop r.tr_stop;
    Alcotest.(check (list string)) (chk "events") base.tr_events r.tr_events;
    Alcotest.(check int) (chk "insns") base.tr_insns r.tr_insns;
    Alcotest.(check (array int)) (chk "registers") base.tr_regs r.tr_regs;
    Alcotest.(check string) (chk "output") base.tr_out r.tr_out;
    (match (base.tr_profile, r.tr_profile) with
    | Some pb, Some pa -> Profile_check.check (chk "profile") pb pa
    | _ -> ());
    r
  in
  ignore (check ~profile:false Tier2.Interp);
  ignore (check ~profile:false Tier2.Predecode);
  ignore (check ~profile:true Tier2.Predecode);
  let plain = engine_stats name (check ~profile:false Tier2.Block) in
  let profiled = engine_stats name (check ~profile:true Tier2.Block) in
  Alcotest.(check bool)
    (name ^ ": a profile does not change what the block tier runs")
    true (plain = profiled);
  plain

(* The kernel the tier timers used to race, pinned by counts instead of
   seconds: the predecode tier decodes each executed text word once (the
   interpreter decodes every step) and gives a page of the table only to
   the pages holding a pc that ran, and the block tier, at its production
   threshold, retires at least 90% of the instructions in compiled code. *)
let test_tier_work () =
  (* one predecode run: pages and slots decoded against the pcs that ran *)
  let predecode_work name exe =
    let t, _ = load_tier ~tier:Tier2.Predecode exe in
    let prof = Emu.create_profile () in
    Emu.set_profile t (Some prof);
    let r = Emu.run t in
    let slots =
      List.map (fun pc -> (pc - t.Emu.code_lo) / 4)
        (List.of_seq (Hashtbl.to_seq_keys prof.Emu.p_pc_counts))
    in
    let pages = allocated_pages t in
    Alcotest.(check (list int)) (name ^ ": pages allocated = pages holding a pc run")
      (List.sort_uniq compare (List.map (fun i -> i / Emu.page_slots) slots))
      pages;
    let decoded =
      List.fold_left
        (fun n p ->
          Array.fold_left (fun n i -> if i != Emu.undecoded then n + 1 else n) n t.Emu.code.(p))
        0 pages
    in
    Alcotest.(check int) (name ^ ": decoded slots = distinct pcs run") (List.length slots)
      decoded;
    (decoded, r.Emu.insns)
  in
  let kernel = assemble_exe (Eel_workload.Gen.memory_bound ~iters:40 ~size_words:256 ()) in
  let decoded, insns = predecode_work "kernel" kernel in
  Alcotest.(check bool) "the loop ran" true (insns > 100 * decoded);
  ignore (predecode_work "qpt2 fib" (snd (qpt2_fib ())));
  let t = Emu.load kernel in
  match Tier2.attach t with
  | None -> Alcotest.fail "tier-2 engine failed to attach"
  | Some eng ->
      let r = Emu.run t in
      let interp = (Tier2.stats eng).Tier2.st_interp_steps in
      Alcotest.(check bool)
        (Printf.sprintf "%d of %d instructions outside compiled blocks" interp r.Emu.insns)
        true
        (10 * interp <= r.Emu.insns)

let test_tier_parity () =
  (* a spread of control shapes; each must actually run compiled code *)
  let jump_table_src =
    {|
main:   mov 1, %o0
        set table, %l0
        sll %o0, 2, %l1
        ld [%l0 + %l1], %l2
        jmp %l2
        nop
c0:     mov 100, %o0
        ba Lend
        nop
c1:     mov 200, %o0
        ba Lend
        nop
Lend:   ta 2
|}
    ^ exit0
    ^ "        .data\n        .align 4\ntable:  .word c0, c1\n"
  in
  let annul_src =
    {|
main:   mov 3, %l0
Lloop:  cmp %l0, 1
        be,a Ldone
        mov 99, %o1             ! executes only on the taken exit
        subcc %l0, 1, %l0
        ba Lloop
        nop
Ldone:  mov %o1, %o0
        ta 2
|}
    ^ exit0
  in
  let widths_src =
    {|
main:   mov 4, %l0
        set buf, %l2
Lloop:  std %l0, [%l2]
        ldd [%l2], %o2
        sth %l0, [%l2 + 8]
        ldsh [%l2 + 8], %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        stb %l0, [%l2 + 10]
|}
    ^ exit0
    ^ "        .data\n        .align 8\nbuf:    .word 0, 0, 0\n"
  in
  (* a store into a text word never fetched (so never decoded), then a
     branch to it: the patched word must run *)
  let store_cold_src =
    Printf.sprintf
      {|
main:   set Lcold, %%l0
        set 0x%x, %%l1
        st %%l1, [%%l0]
        ba Lcold
        nop
Lcold:  mov 1, %%o0
        ta 2
|}
      (mov_imm_o0 42)
    ^ exit0
  in
  List.iter
    (fun (name, src) ->
      let st = check_tiers_agree name src in
      Alcotest.(check bool)
        (name ^ ": compiled blocks ran")
        true
        (st.Tier2.st_block_runs >= 1))
    [
      ("countdown", fuel_parity_src);
      ("jump-table", jump_table_src);
      ("annul-loop", annul_src);
      ("mem-widths", widths_src);
      ("store-never-fetched", store_cold_src);
    ]

(* OSR state transfer, swept over every boundary of a chained block
   pair. The loop body is two blocks (A: subcc + two slots + ba/delay;
   B: two slots + cmp + bne/delay); a udiv divides by %l0, which the
   subcc drives 2 -> 1 -> 0, so the poison slot divides cleanly on the
   warmup iteration (compiling and chaining both blocks) and faults on
   the second, by then fully inside compiled code. The deopt must
   replay the udiv in tier-1 and fault with an identical event log,
   instruction count and register file, wherever the poison sits. *)
let osr_src ~poison =
  let slot i =
    if i = poison then "        udiv %l2, %l0, %l3\n"
    else Printf.sprintf "        add %%l4, %d, %%l4\n" (i + 1)
  in
  "main:   mov 2, %l0\n        mov 7, %l2\n        mov 0, %l4\n"
  ^ "Lloop:  subcc %l0, 1, %l0\n" ^ slot 0 ^ slot 1 ^ "        ba Lb\n"
  ^ slot 2 (* A's delay slot *) ^ "Lb:\n" ^ slot 3 ^ slot 4
  ^ "        cmp %l0, 0\n        bne Lloop\n"
  ^ slot 5 (* B's delay slot (untaken on the faulting iteration) *)
  ^ exit0

let test_tier_osr_boundaries () =
  for poison = 0 to 5 do
    let name = Printf.sprintf "poison at slot %d" poison in
    let st = check_tiers_agree name (osr_src ~poison) in
    Alcotest.(check bool) (name ^ ": deopted") true (st.Tier2.st_deopts >= 1);
    Alcotest.(check int)
      (name ^ ": every deopt is a fault pre-check")
      st.Tier2.st_deopts st.Tier2.st_deopts_fault;
    Alcotest.(check bool)
      (name ^ ": blocks chained")
      true
      (st.Tier2.st_links >= 1)
  done

let test_tier_selfmod_suite () =
  (* the st/stb self-modify programs from the predecode suite: a store
     into an already-compiled block must invalidate the closure, and the
     patched instruction must execute. In patch-compiled, Lhot runs
     compiled on the second pass and a store from another block patches
     it before the third. *)
  let patch_compiled_src =
    Printf.sprintf
      {|
main:   mov 3, %%l0
        set Lhot, %%l2
        set 0x%x, %%l3
Lhot:   mov 1, %%o0
        ta 2
        cmp %%l0, 2
        bne Lskip
        nop
        st %%l3, [%%l2]
Lskip:  subcc %%l0, 1, %%l0
        bne Lhot
        nop
|}
      (mov_imm_o0 42)
    ^ exit0
  in
  List.iter
    (fun (name, src) ->
      let st = check_tiers_agree name src in
      Alcotest.(check bool)
        (name ^ ": compiled block invalidated")
        true
        (st.Tier2.st_invalidated >= 1))
    [
      ("selfmod-word", selfmod_word_src);
      ("selfmod-byte", selfmod_byte_src);
      ("patch-compiled", patch_compiled_src);
    ]

let test_tier_invalidate_chained () =
  (* block B stores block A's own first word back into A every iteration
     (same value, so semantics are unchanged): each store must kill A's
     compiled closure, sever B's chain slot into it, and force a
     recompile on the next arrival *)
  let src =
    {|
main:   mov 4, %l0
        set Lhead, %l2
        ld [%l2], %l3
Lhead:  add %l4, 1, %l4
        ba Lb
        nop
Lb:     st %l3, [%l2]
        subcc %l0, 1, %l0
        bne Lhead
        nop
|}
    ^ exit0
  in
  let st = check_tiers_agree "rewrite-chained" src in
  Alcotest.(check bool)
    "blocks invalidated" true
    (st.Tier2.st_invalidated >= 2);
  Alcotest.(check bool) "chain slots severed" true (st.Tier2.st_unlinked >= 1);
  Alcotest.(check bool)
    "recompiled after invalidation" true
    (st.Tier2.st_compiled > st.Tier2.st_live)

(* a store into the block currently executing: the engine must finish
   the store, OSR out at the next boundary (the closure is stale), and
   resume in tier-1 — every loop iteration *)
let selfstore_src =
  {|
main:   mov 3, %l0
        set Lself, %l2
        ld [%l2], %l3
Lloop:  st %l3, [%l2]
Lself:  add %l4, 1, %l4
        subcc %l0, 1, %l0
        bne Lloop
        nop
|}
  ^ exit0

let test_tier_selfstore_deopt () =
  let st = check_tiers_agree "self-store" selfstore_src in
  Alcotest.(check bool) "deopted mid-block" true (st.Tier2.st_deopts >= 1);
  Alcotest.(check int)
    "every deopt is a self-store" st.Tier2.st_deopts st.Tier2.st_deopts_store;
  Alcotest.(check bool)
    "invalidated itself" true
    (st.Tier2.st_invalidated >= 1)

let test_tier_metrics () =
  (* one block-tier run adds its stats to the emu.tier2.* counters, with
     deopts split by reason *)
  let read name =
    match Eel_obs.Metrics.find ("emu.tier2." ^ name) with
    | Some (Eel_obs.Metrics.Int n) -> n
    | _ -> 0
  in
  List.iter
    (fun (name, src) ->
      let names = [ "block_runs"; "deopts.fault"; "deopts.self_store" ] in
      let before = List.map read names in
      let st = engine_stats name (run_tier ~tier:Tier2.Block src) in
      Alcotest.(check (list int))
        (name ^ ": counters grew by the run's stats")
        [ st.Tier2.st_block_runs; st.Tier2.st_deopts_fault; st.Tier2.st_deopts_store ]
        (List.map2 ( - ) (List.map read names) before))
    [ ("osr", osr_src ~poison:4); ("self-store", selfstore_src) ]

let test_tier_profiled_loop () =
  (* a profiled hot loop on the default engine runs compiled, and its
     profile still counts every iteration *)
  let src =
    {|
main:   mov 100, %l0
        mov 0, %l1
Lloop:  add %l1, %l0, %l1
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
    ^ exit0
  in
  let exe = assemble_exe src in
  let t = Emu.load exe in
  let st = Option.get (Tier2.attach t) in
  let p = Emu.create_profile () in
  Emu.set_profile t (Some p);
  let r = Emu.run t in
  Alcotest.(check string) "output" "5050\n" r.Emu.out;
  Alcotest.(check bool)
    "compiled blocks ran" true
    ((Tier2.stats st).Tier2.st_block_runs > 0);
  Alcotest.(check int) "profile counts every instruction" r.Emu.insns
    p.Emu.p_insns;
  Alcotest.(check int) "loop head count" 100
    (Emu.pc_count p (exe.Sef.entry + 8))

(* recursion 600 calls deep, past the calling-context tree's depth cap
   (Cct.max_depth) *)
let deep_recursion_src =
  {|
main:   mov 600, %o0
        call rec
        nop
        ta 2
|}
  ^ exit0
  ^ {|
rec:    cmp %o0, 0
        be Lbase
        nop
        sub %sp, 8, %sp
        st %o7, [%sp]
        call rec
        sub %o0, 1, %o0
        ld [%sp], %o7
        add %sp, 8, %sp
        add %o0, 2, %o0
        retl
        nop
Lbase:  retl
        nop
|}

let test_tier_deep_recursion () =
  (* compiled calls and returns, 600 deep, keep tier-1's flat profile *)
  let st = check_tiers_agree "deep recursion" deep_recursion_src in
  Alcotest.(check bool) "compiled blocks ran" true (st.Tier2.st_block_runs > 0);
  let r = run_tier ~tier:Tier2.Block deep_recursion_src in
  Alcotest.(check string) "output" "1200\n" r.tr_out

(* ---- calls and returns on the profiled chain ----

   These programs call and return in the ways the calling-context tree
   (Cct) tells apart: two callers of one routine, a tail call, a computed
   jump, a kill and a deopt inside a callee, recursion past the tree's
   depth cap. Compiled, each must record tier-1's flat profile exactly;
   the tree's own tests below run them on tier-1. *)

(* [f] is called from one call site in R, and R alternately from A and
   B: the tree must file f's runs under A and under B apart. *)
let two_callers_src =
  {|
main:   mov 6, %l0
Lloop:  call A
        nop
        call B
        nop
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
  ^ exit0
  ^ {|
A:      mov %o7, %l2
        call R
        add %l1, 1, %l1
        jmp %l2 + 8
        nop
B:      mov %o7, %l3
        call R
        add %l1, 2, %l1
        jmp %l3 + 8
        nop
R:      mov %o7, %l4
        call f
        nop
        jmp %l4 + 8
        nop
f:      retl
        add %l1, 10, %l1
|}

let test_tier_two_callers () =
  let st = check_tiers_agree "two callers" two_callers_src in
  Alcotest.(check bool) "compiled blocks ran" true (st.Tier2.st_block_runs > 0);
  let r = run_tier ~tier:Tier2.Block two_callers_src in
  Alcotest.(check string) "output" "138\n" r.tr_out

(* a tail-call escape: U returns straight to T's caller, past T's
   frame, so the arrival pops two frames *)
let escape_src =
  {|
main:   mov 5, %l0
Lloop:  call T
        nop
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
  ^ exit0
  ^ {|
T:      mov %o7, %l5
        call U
        add %l1, 1, %l1
        add %l1, 100, %l1
        retl
        nop
U:      jmp %l5 + 8
        add %l1, 3, %l1
|}

(* a computed jump inside a callee, which no frame expects: it pops
   none *)
let computed_src =
  {|
main:   mov 5, %l0
Lloop:  call J
        nop
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
  ^ exit0
  ^ {|
J:      set Lin, %l6
        jmp %l6
        add %l1, 1, %l1
        add %l1, 100, %l1
Lin:    retl
        add %l1, 5, %l1
|}

let test_tier_unusual_returns () =
  List.iter
    (fun (name, src, out) ->
      let st = check_tiers_agree name src in
      Alcotest.(check bool)
        (name ^ ": compiled blocks ran")
        true
        (st.Tier2.st_block_runs > 0);
      Alcotest.(check string)
        (name ^ ": output")
        out (run_tier ~tier:Tier2.Block src).tr_out)
    [ ("tail-call escape", escape_src, "20\n"); ("computed jump", computed_src, "30\n") ]

let test_tier_kill_in_context () =
  (* W runs compiled, so its path counts are unfolded when main stores
     W's first word back over itself: the kill must fold them before the
     block goes *)
  let src =
    {|
main:   mov 6, %l0
        set W, %l2
        ld [%l2], %l3
Lloop:  call W
        nop
        cmp %l0, 3
        bne Lskip
        nop
        st %l3, [%l2]
Lskip:  subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
    ^ exit0
    ^ {|
W:      add %l1, 1, %l1
        add %l1, 2, %l1
        retl
        add %l1, 3, %l1
|}
  in
  let st = check_tiers_agree "kill in a callee context" src in
  Alcotest.(check bool) "W was killed" true (st.Tier2.st_invalidated >= 1);
  Alcotest.(check bool)
    "W recompiled" true
    (st.Tier2.st_compiled > st.Tier2.st_live)

let test_tier_deopt_in_context () =
  (* D stores over its own second word each call, so the profiled chain
     deopts in the middle of D, entered by a call, with the last pc
     still carried by the driver: it must reach the profile before
     tier-1 replays D's prefix *)
  let src =
    {|
main:   mov 4, %l0
        set Dself, %l2
        ld [%l2], %l3
Lloop:  call D
        nop
        subcc %l0, 1, %l0
        bne Lloop
        nop
        mov %l1, %o0
        ta 2
|}
    ^ exit0
    ^ {|
D:      st %l3, [%l2]
Dself:  add %l1, 1, %l1
        add %l1, 2, %l1
        retl
        nop
|}
  in
  let st = check_tiers_agree "deopt in a callee context" src in
  Alcotest.(check bool) "deopted" true (st.Tier2.st_deopts_store >= 1)

let test_tier_recursion_twice () =
  (* recursion 600 deep from a compiled chain, twice *)
  let src =
    {|
main:   mov 2, %l0
Lagain: mov 600, %o0
        call rec
        nop
        add %l1, %o0, %l1
        subcc %l0, 1, %l0
        bne Lagain
        nop
        mov %l1, %o0
        ta 2
|}
    ^ exit0
    ^ {|
rec:    cmp %o0, 0
        be Lbase
        nop
        sub %sp, 8, %sp
        st %o7, [%sp]
        call rec
        sub %o0, 1, %o0
        ld [%sp], %o7
        add %sp, 8, %sp
        add %o0, 2, %o0
        retl
        nop
Lbase:  retl
        nop
|}
  in
  let st = check_tiers_agree "recursion past the cap, twice" src in
  Alcotest.(check bool) "compiled blocks ran" true (st.Tier2.st_block_runs > 0);
  Alcotest.(check string)
    "output" "2400\n"
    (run_tier ~tier:Tier2.Block src).tr_out

let test_tier_poke_never_fetched () =
  (* the poke lands while the loop runs, before Lcold (main+0x10) is
     first fetched: the predecode slot was never decoded, so the word
     must still be read fresh when it first runs *)
  let src =
    {|
main:   mov 3, %l0
Lloop:  subcc %l0, 1, %l0
        bne Lloop
        nop
Lcold:  mov 1, %o0
        ta 2
|}
    ^ exit0
  in
  let at = (assemble_exe src).Sef.entry + 0x10 in
  let pokes = [ { Emu.pk_at = 2; pk_addr = at; pk_value = mov_imm_o0 42 } ] in
  ignore (check_tiers_agree ~pokes "poke-never-fetched" src);
  let r = run_tier ~pokes ~tier:Tier2.Interp src in
  Alcotest.(check string) "poked word executed" "42\n" r.tr_out

(* ---- the calling-context tree ----

   Cct builds the tree from the machine's hook, so these runs are
   tier-1. Each is read as collapsed stacks ("main;A;R;f 12": a
   context's path from the root, and its self count), named by the
   image's symbols. *)

module Cct = Eel_emu.Cct

let cct_run src =
  let exe = assemble_exe src in
  let tree = Cct.create () in
  let r, _ = Emu.run_exe ~hook:(Cct.hook tree) exe in
  let name_of pc =
    match List.find_opt (fun (s : Sef.symbol) -> s.Sef.value = pc) exe.Sef.symbols with
    | Some s -> s.Sef.sym_name
    | None -> Printf.sprintf "0x%x" pc
  in
  ( r,
    tree,
    Eel_obs.Hotspot.collapsed (Cct.hotspot ~name_of ~root:[ "main" ] tree) )

let test_cct_depth_cap () =
  (* calls past the cap enter no context; the returns past it pop the
     frames of shallower calls, and the run ends back at the root *)
  let r, tree, _ = cct_run deep_recursion_src in
  Alcotest.(check string) "output" "1200\n" r.Emu.out;
  let rec depth (n : Cct.node) =
    Hashtbl.fold (fun _ c d -> max d (1 + depth c)) n.Cct.children 0
  in
  Alcotest.(check int) "tree capped" Cct.max_depth (depth tree.Cct.root);
  Alcotest.(check int) "stack unwound" 0 (List.length tree.Cct.stack)

let test_cct_two_callers () =
  (* f's runs under A and under B stay two contexts, 6 calls each *)
  let _, _, stacks = cct_run two_callers_src in
  Alcotest.(check string)
    "contexts"
    "main 47\nmain;A 30\nmain;A;R 30\nmain;A;R;f 12\nmain;B 30\nmain;B;R 30\n\
     main;B;R;f 12\n"
    stacks

let test_cct_tail_call () =
  (* U's return lands past T's frame: two frames pop, so main's loop stays
     at the root and T and U are entered afresh from it each time; T's
     [add 100; retl; nop] never runs *)
  let _, tree, stacks = cct_run escape_src in
  Alcotest.(check string)
    "contexts" "main 30\nmain;T 15\nmain;T;U 10\n" stacks;
  Alcotest.(check int) "stack unwound" 0 (List.length tree.Cct.stack)

let test_cct_computed_jump () =
  (* J's jump to Lin is a return no frame expects: it pops nothing, so
     Lin's retl and its delay slot stay J's *)
  let _, tree, stacks = cct_run computed_src in
  Alcotest.(check string) "contexts" "main 30\nmain;J 30\n" stacks;
  Alcotest.(check int) "stack unwound" 0 (List.length tree.Cct.stack)

(* ---- recycled machine memory ----

   [Emu.load] reuses a buffer that an earlier machine handed back
   ([Emu.recycle]) when one is large enough, and zero-fills only the
   marked pages of the address space it needs: the buffer's bytes past
   [size] are stale. These tests seed a new domain's spares with a
   larger buffer, dirty, and demand that nothing can tell: each load and
   each run, on every tier, matches a fresh load in another new domain
   (which has no spares), every bound check at the top of the address
   space reads [size], and no byte past [size] changes. *)

module Dx = Eel_diffexec.Diffexec

let in_new_domain f = Domain.join (Domain.spawn f)

(* stale bytes: mostly 0xa5, with a NUL every 8 bytes so that a string
   read past the top would find a terminator *)
let stale i = if i land 7 = 0 then '\000' else '\xa5'

(* The memory of an earlier run of [exe] with 64 KB more headroom,
   scribbled over with [stale]. *)
let dirty_buffer ?os exe ~headroom =
  match Dx.execute ?os ~headroom:(headroom + 65536) exe with
  | Error e -> Alcotest.failf "execute: %s" (Eel_robust.Diag.error_message e)
  | Ok r ->
      let mem = r.Dx.r_mem in
      Bytes.iteri (fun i _ -> Bytes.set mem i (stale i)) mem;
      mem

(* Run [exe] on [tier] in a new domain, and again in a new domain whose
   one spare is the buffer [scribble ()] handed back and returned (by
   default a {!dirty_buffer}, handed back without marks, so every page
   counts as written); both runs must agree on the stop (the fault
   message included), events, registers, output, instruction count and
   every byte of [[0, size)], and the recycled run must leave the bytes
   past [size] alone. Returns the fresh run. *)
let recycled_vs_fresh ?os ?pokes ?scribble ~tier ~headroom name exe =
  let size = Sef.high_addr exe + headroom in
  let chk what = Printf.sprintf "%s [%s] %s" name (Tier2.tier_name tier) what in
  let go () =
    match Dx.execute ?os ?pokes ~tier ~headroom exe with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" (chk "execute") (Eel_robust.Diag.error_message e)
  in
  let scribble =
    match scribble with
    | Some f -> f
    | None ->
        fun () ->
          let dirty = dirty_buffer ?os exe ~headroom in
          Emu.recycle dirty;
          dirty
  in
  let fresh = in_new_domain go in
  let dirty, before, recycled =
    in_new_domain (fun () ->
        let dirty = scribble () in
        let before = Bytes.copy dirty in
        (dirty, before, go ()))
  in
  (* a new buffer is [size] rounded up by less than a quarter, to whole
     pages: these images stay far below Emu.max_spare_bytes *)
  let cap = Bytes.length fresh.Dx.r_mem in
  Alcotest.(check bool)
    (chk "a fresh buffer is the address space, rounded up")
    true
    (cap >= size && (cap - size) * 4 < size && cap mod 4096 = 0);
  Alcotest.(check bool) (chk "ran in the recycled buffer") true (recycled.Dx.r_mem == dirty);
  let stop r = Format.asprintf "%a" Dx.pp_stop r.Dx.r_stop in
  let events r = List.map (Format.asprintf "%a" Emu.pp_obs) (Array.to_list r.Dx.r_events) in
  Alcotest.(check string) (chk "stop") (stop fresh) (stop recycled);
  Alcotest.(check (list string)) (chk "events") (events fresh) (events recycled);
  Alcotest.(check (array int)) (chk "registers") fresh.Dx.r_regs recycled.Dx.r_regs;
  Alcotest.(check string) (chk "output") fresh.Dx.r_out recycled.Dx.r_out;
  Alcotest.(check int) (chk "insns") fresh.Dx.r_insns recycled.Dx.r_insns;
  Alcotest.(check bool) (chk "memory [0, size)") true
    (Bytes.sub fresh.Dx.r_mem 0 size = Bytes.sub recycled.Dx.r_mem 0 size);
  let past b = Bytes.sub b size (Bytes.length b - size) in
  Alcotest.(check bool) (chk "no byte past size written") true (past dirty = past before);
  fresh

let test_recycled_invisible () =
  let exe, edited = qpt2_fib () in
  let ha, hb = Dx.equalized_headroom exe edited in
  List.iter
    (fun (name, img, headroom) ->
      let size = Sef.high_addr img + headroom in
      let loaded = in_new_domain (fun () -> Emu.load ~headroom img) in
      let reloaded =
        in_new_domain (fun () ->
            Emu.recycle (dirty_buffer img ~headroom);
            Emu.load ~headroom img)
      in
      Alcotest.(check bool) (name ^ ": load took the larger spare") true
        (Bytes.length reloaded.Emu.mem > size);
      Alcotest.(check int) (name ^ ": same address-space size") loaded.Emu.size
        reloaded.Emu.size;
      Alcotest.(check bool) (name ^ ": loaded bytes [0, size)") true
        (Bytes.sub loaded.Emu.mem 0 size = Bytes.sub reloaded.Emu.mem 0 size);
      Alcotest.(check (array int)) (name ^ ": initial registers") (Emu.registers loaded)
        (Emu.registers reloaded);
      List.iter
        (fun tier -> ignore (recycled_vs_fresh ~tier ~headroom name img))
        Tier2.all_tiers)
    [ ("fib", exe, ha); ("qpt2 fib", edited, hb) ];
  (* past what a domain keeps, a new buffer is the address space itself *)
  let big = in_new_domain (fun () -> Emu.load ~headroom:Emu.max_spare_bytes exe) in
  Alcotest.(check int) "a buffer too large to keep is not rounded up"
    big.Emu.size (Bytes.length big.Emu.mem)

(* Programs that probe the top of the address space. With [size] a
   multiple of 8 the initial %sp is [size - 64], so [%sp + 64] is the
   top. The loops run long enough for the block tier to compile them, so
   compiled accesses meet the top too. *)
let top_probes =
  [
    ( "loads up to the top",
      {|
main:   add %sp, -16, %l0
Lloop:  ld [%l0], %o0
        ba Lloop
        add %l0, 4, %l0
|},
      None,
      "fault: memory access out of range",
      None );
    ( "stores up to the top",
      {|
main:   add %sp, -16, %l0
Lloop:  st %l0, [%l0]
        ba Lloop
        add %l0, 4, %l0
|},
      None,
      "fault: memory access out of range",
      None );
    ( "byte stores up to the top",
      {|
main:   add %sp, 44, %l0
Lloop:  stb %l0, [%l0]
        ba Lloop
        add %l0, 1, %l0
|},
      None,
      "fault: memory access out of range",
      None );
    ( "jump to the top",
      {|
main:   add %sp, 64, %l0
        jmp %l0
        nop
|},
      None,
      "fault: pc out of range",
      None );
    ( "ta 4 across the top",
      {|
main:   add %sp, 60, %o0
        mov 4, %o1
        ta 4
        add %sp, 62, %o0
        mov 4, %o1
        ta 4
|},
      None,
      "fault: write syscall out of range",
      None );
    ( "os read across the top",
      {|
main:   mov 0, %o0
        add %sp, 60, %o1
        mov 4, %o2
        ta 19
        mov 0, %o0
        add %sp, 62, %o1
        mov 4, %o2
        ta 19
|},
      Some (Eel_os.Spec.make ~stdin:"abcdefgh" ()),
      "fault: syscall buffer out of range",
      None );
    ( "os write across the top",
      {|
main:   mov 1, %o0
        add %sp, 60, %o1
        mov 4, %o2
        ta 20
        mov 1, %o0
        add %sp, 62, %o1
        mov 4, %o2
        ta 20
|},
      Some Eel_os.Spec.empty,
      "fault: syscall buffer out of range",
      None );
    ( "os open of a path ending at the top",
      {|
main:   set 0x616263, %l1
        st %l1, [%sp + 60]
        add %sp, 61, %o0
        mov 0, %o1
        ta 21
        ta 2
|}
      ^ exit0,
      Some (Eel_os.Spec.make ~files:[ ("abc", "x") ] ()),
      "exit 0",
      Some "2\n" (* ENOENT: no NUL below the top *) );
  ]

(* brk probes: the first break each refuses ([top - stack_size]), then
   one it grants *)
let brk_src trap =
  Printf.sprintf
    {|
main:   add %%sp, 64, %%l0
        set 0x%x, %%l1
        sub %%l0, %%l1, %%l0
        mov %%l0, %%o0
        ta %d
        ta 2
        sub %%l0, 8, %%o0
        ta %d
        ta 2
|}
    Emu.stack_size trap trap
  ^ exit0

let test_recycled_top () =
  let headroom_for exe = 0x200000 + ((-Sef.high_addr exe) land 7) in
  let probe ?os ?pokes name src =
    let exe = assemble_exe src in
    let headroom = headroom_for exe in
    List.map (fun tier -> recycled_vs_fresh ?os ?pokes ~tier ~headroom name exe) Tier2.all_tiers
  in
  List.iter
    (fun (name, src, os, want, want_out) ->
      List.iter
        (fun r ->
          let stop = Format.asprintf "%a" Dx.pp_stop r.Dx.r_stop in
          if not (String.starts_with ~prefix:want stop) then
            Alcotest.failf "%s: stopped with %S, expected %S" name stop want;
          Option.iter (fun o -> Alcotest.(check string) (name ^ ": output") o r.Dx.r_out) want_out)
        (probe ?os name src))
    top_probes;
  List.iter
    (fun (name, trap, os) ->
      let exe = assemble_exe (brk_src trap) in
      let size = Sef.high_addr exe + headroom_for exe in
      let want =
        Printf.sprintf "%d\n%d\n" (Sef.high_addr exe) (size - Emu.stack_size - 8)
      in
      List.iter
        (fun r -> Alcotest.(check string) (name ^ " is capped by size") want r.Dx.r_out)
        (probe ?os name (brk_src trap)))
    [
      ("brk", 5, None);
      ("os brk", Eel_os.Abi.trap_imm Eel_os.Abi.sys_brk, Some Eel_os.Spec.empty);
    ];
  (* a poke at the top is dropped (recycled_vs_fresh checks that no stale
     byte changed); one just below it lands *)
  let src = "main:   ld [%sp + 60], %o0\n        ta 2\n" ^ exit0 in
  let exe = assemble_exe src in
  let size = Sef.high_addr exe + headroom_for exe in
  let pokes =
    [
      { Emu.pk_at = 0; pk_addr = size; pk_value = 0x5a5a5a5a };
      { Emu.pk_at = 0; pk_addr = size - 4; pk_value = 42 };
    ]
  in
  List.iter
    (fun r -> Alcotest.(check string) "a poke below the top lands" "42\n" r.Dx.r_out)
    (probe ~pokes "pokes" src)

(* ---- selective zeroing ----

   A buffer comes back with its page marks ([Emu.t.marks]), and the next
   load zero-fills only the marked pages of its address space. The
   scribbler writes through every writer of machine memory, each into
   pages no other writer touches: the loader's blit of its .data, an OS
   read(2), a poke, and, in a loop long enough for the block tier to
   compile it, st with each operand kind, stb, sth and an std across a
   4 KB boundary. Each store moves on 8 KB an iteration, so on the block
   tier the last iteration's pages are written by compiled code alone.
   The reader loads from each of those pages and writes none of them: a
   writer that failed to mark its page leaves a stale value there, which
   the reader prints and the memory compare sees. *)

(* what the scribbler leaves where: (writer, the reader's load, address) *)
let scribbled =
  [
    ("loader blit", "ld", 0x11000);
    ("st imm", "ld", 0x6e010);
    ("st reg", "ld", 0xae000);
    ("stb", "ldub", 0xee001);
    ("sth", "lduh", 0x12e002);
    ("std, first page", "ld", 0x16effc);
    ("std, second page", "ld", 0x16f000);
    ("os read", "ld", 0x180000);
    ("poke", "ld", 0x190000);
  ]

let scribbler_src =
  {|
main:   mov 0, %o0
        set 0x180000, %o1
        mov 8, %o2
        ta 19
        set 0x5ca1ab1e, %l1
        set 0x600dcafe, %l2
        set 0x0badf00d, %l3
        set 0x40000, %g1
        set 0x80000, %g2
        set 0xc0001, %g3
        set 0x100002, %g4
        set 0x140ffc, %g5
        set 0x2000, %l6
        set 0x30000, %l7
        mov 0, %l0
Lloop:  add %l0, %g1, %o3
        st %l1, [%o3 + 16]
        st %l1, [%l0 + %g2]
        stb %l1, [%l0 + %g3]
        sth %l1, [%l0 + %g4]
        std %l2, [%l0 + %g5]
        add %l0, %l6, %l0
        subcc %l0, %l7, %g0
        bne Lloop
        nop
|}
  ^ exit0 ^ "        .data\n        .word 0x5eed5eed\n"

let reader_src =
  "main:   nop\n"
  ^ String.concat ""
      (List.map
         (fun (_, op, addr) ->
           Printf.sprintf "        set 0x%x, %%l0\n        %s [%%l0], %%o0\n        ta 2\n"
             addr op)
         scribbled)
  ^ exit0

(* Run the scribbler on [tier] in an address space of [size] bytes, check
   that every write landed, and hand the memory back with its marks. *)
let scribble ~tier ~size () =
  let exe = assemble_exe scribbler_src in
  let data = List.find (fun s -> s.Sef.sec_name = ".data") exe.Sef.sections in
  Alcotest.(check int) "the scribbler's .data" 0x11000 data.Sef.vaddr;
  let t =
    Emu.load ~headroom:(size - Sef.high_addr exe) ~predecode:(tier <> Tier2.Interp) exe
  in
  let block = if tier = Tier2.Block then Tier2.attach t else None in
  ignore (Eel_os.Os.install t (Eel_os.Spec.make ~stdin:"abcdefgh" ()));
  Emu.set_pokes t [ { Emu.pk_at = 0; pk_addr = 0x190000; pk_value = 0x7e57ab1e } ];
  (* an armed poke plan keeps a run on tier-1: a first run of one
     instruction spends it, so the block tier takes the rest *)
  (try ignore (Emu.run ~fuel:1 t) with Emu.Out_of_fuel -> ());
  ignore (Emu.run t);
  Option.iter
    (fun st ->
      if (Tier2.stats st).Tier2.st_block_runs = 0 then
        Alcotest.fail "the scribbler's loop never ran compiled")
    block;
  List.iter
    (fun (what, _, addr) ->
      if Bytes.get t.Emu.mem addr = '\000' then
        Alcotest.failf "the scribbler's %s left 0x%x zero" what addr)
    scribbled;
  Emu.recycle ~marks:t.Emu.marks t.Emu.mem;
  t.Emu.mem

let test_recycled_scribbled () =
  let reader = assemble_exe reader_src in
  let headroom = 0x200000 in
  let size = Sef.high_addr reader + headroom in
  List.iter
    (fun tier ->
      let r =
        recycled_vs_fresh ~scribble:(scribble ~tier ~size:(size + 65536)) ~tier ~headroom
          "after the scribbler" reader
      in
      Alcotest.(check string) "a fresh reader reads zeros"
        (String.concat "" (List.map (fun _ -> "0\n") scribbled))
        r.Dx.r_out)
    Tier2.all_tiers

(* A load leaves unmarked pages alone: a sentinel planted behind the
   marks' back, in a page the last run never wrote, survives it. Every
   other byte of the address space reads as a fresh load's, and every
   page the load zero-filled whole loses its mark. *)
let test_load_skips_unmarked () =
  let exe, _ = qpt2_fib () in
  let fresh = in_new_domain (fun () -> Emu.load exe) in
  let size = fresh.Emu.size and whole = fresh.Emu.size lsr Emu.mark_bits in
  let page = (Sef.high_addr exe lsr Emu.mark_bits) + 16 in
  let at = (page lsl Emu.mark_bits) + 100 in
  let r, run_marks, t =
    in_new_domain (fun () ->
        let r =
          match Dx.execute exe with
          | Ok r -> r
          | Error e -> Alcotest.failf "execute: %s" (Eel_robust.Diag.error_message e)
        in
        let run_marks = Bytes.copy r.Dx.r_marks in
        Bytes.set r.Dx.r_mem at '\x5a';
        Dx.recycle r;
        (r, run_marks, Emu.load exe))
  in
  Alcotest.(check char) "the run left the page unmarked" '\000' (Bytes.get run_marks page);
  Alcotest.(check bool) "the load took the spare" true (t.Emu.mem == r.Dx.r_mem);
  Alcotest.(check char) "the sentinel survives the load" '\x5a' (Bytes.get t.Emu.mem at);
  Bytes.set t.Emu.mem at '\000';
  Alcotest.(check bool) "every other byte of [0, size) as loaded fresh" true
    (Bytes.sub fresh.Emu.mem 0 size = Bytes.sub t.Emu.mem 0 size);
  let zeroed = ref 0 in
  Bytes.iteri
    (fun p m -> if p < whole && m <> '\000' && Bytes.get fresh.Emu.marks p = '\000' then incr zeroed)
    run_marks;
  if !zeroed = 0 then Alcotest.fail "the run marked no page the image does not cover";
  Alcotest.(check string) "marks of the whole pages as a fresh load's"
    (Bytes.sub_string fresh.Emu.marks 0 whole)
    (Bytes.sub_string t.Emu.marks 0 whole)

let () =
  Alcotest.run "emu"
    [
      ( "alu",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "negative values" `Quick test_neg_values;
          Alcotest.test_case "condition codes" `Quick test_cc_branches;
          Alcotest.test_case "unsigned compares" `Quick test_unsigned_branches;
          Alcotest.test_case "y register" `Quick test_y_register;
        ] );
      ( "delay-slots",
        [
          Alcotest.test_case "delay slot executes" `Quick test_delay_slot_executes;
          Alcotest.test_case "annulled taken" `Quick test_annulled_taken;
          Alcotest.test_case "annulled untaken" `Quick test_annulled_untaken;
          Alcotest.test_case "ba,a" `Quick test_ba_annulled;
          Alcotest.test_case "call+return" `Quick test_call_and_return;
          Alcotest.test_case "call delay order" `Quick test_call_delay_after_call;
        ] );
      ( "memory",
        [
          Alcotest.test_case "widths" `Quick test_memory;
          Alcotest.test_case "ldd/std" `Quick test_ldd_std;
          Alcotest.test_case "jump table" `Quick test_jump_table_dispatch;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "write" `Quick test_write_syscall;
          Alcotest.test_case "cycles" `Quick test_cycles_syscall;
          Alcotest.test_case "recursion" `Quick test_recursion;
        ] );
      ( "faults",
        [
          Alcotest.test_case "illegal instruction" `Quick test_fault_illegal;
          Alcotest.test_case "misaligned access" `Quick test_fault_misaligned;
          Alcotest.test_case "wild jump" `Quick test_fault_wild_pc;
          Alcotest.test_case "fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "event hook" `Quick test_event_hook;
        ] );
      ( "predecode",
        [
          Alcotest.test_case "mode equivalence" `Quick test_predecode_equiv;
          Alcotest.test_case "self-modifying word store" `Quick
            test_predecode_selfmod_word;
          Alcotest.test_case "self-modifying byte store" `Quick
            test_predecode_selfmod_byte;
          Alcotest.test_case "execution outside text" `Quick
            test_predecode_outside_text;
          Alcotest.test_case "fault parity" `Quick test_predecode_fault_parity;
          Alcotest.test_case "load cost" `Quick test_predecode_load_cost;
        ] );
      ( "recycle",
        [
          Alcotest.test_case "recycled memory is invisible" `Quick
            test_recycled_invisible;
          Alcotest.test_case "bound checks read the address-space size" `Quick
            test_recycled_top;
          Alcotest.test_case "zeroing follows every writer's marks" `Quick
            test_recycled_scribbled;
          Alcotest.test_case "a load leaves unmarked pages alone" `Quick
            test_load_skips_unmarked;
        ] );
      ( "fuel-and-pokes",
        [
          Alcotest.test_case "fuel boundary parity (three tiers)" `Quick
            test_fuel_boundary_parity;
          Alcotest.test_case "poke mode parity" `Quick test_poke_mode_parity;
          Alcotest.test_case "invalid pokes dropped" `Quick
            test_poke_invalid_dropped;
        ] );
      ( "tier2",
        [
          Alcotest.test_case "three-tier parity" `Quick test_tier_parity;
          Alcotest.test_case "kernel decodes once, runs compiled" `Quick
            test_tier_work;
          Alcotest.test_case "osr at every block boundary" `Quick
            test_tier_osr_boundaries;
          Alcotest.test_case "self-modify invalidates blocks" `Quick
            test_tier_selfmod_suite;
          Alcotest.test_case "invalidation severs chains" `Quick
            test_tier_invalidate_chained;
          Alcotest.test_case "self-store deopts" `Quick
            test_tier_selfstore_deopt;
          Alcotest.test_case "metrics split deopts by reason" `Quick
            test_tier_metrics;
          Alcotest.test_case "profiled loop runs compiled" `Quick
            test_tier_profiled_loop;
          Alcotest.test_case "recursion past the context depth cap" `Quick
            test_tier_deep_recursion;
          Alcotest.test_case "poke into a never-fetched word" `Quick
            test_tier_poke_never_fetched;
          Alcotest.test_case "two callers of one callee" `Quick
            test_tier_two_callers;
          Alcotest.test_case "tail-call escape and computed jump" `Quick
            test_tier_unusual_returns;
          Alcotest.test_case "kill folds per-path counts" `Quick
            test_tier_kill_in_context;
          Alcotest.test_case "deopt hands the chain's context back" `Quick
            test_tier_deopt_in_context;
          Alcotest.test_case "recursion past the cap, twice" `Quick
            test_tier_recursion_twice;
        ] );
      ( "cct",
        [
          Alcotest.test_case "depth cap" `Quick test_cct_depth_cap;
          Alcotest.test_case "two callers keep two contexts" `Quick
            test_cct_two_callers;
          Alcotest.test_case "a tail call returns past two frames" `Quick
            test_cct_tail_call;
          Alcotest.test_case "a computed jump pops no frame" `Quick
            test_cct_computed_jump;
        ] );
    ]
