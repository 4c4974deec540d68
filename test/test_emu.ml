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

let test_predecode_load_cost () =
  (* an edited image's text span runs from .text past the data regions to
     .eel.text, about a million words, of which the program executes a few
     hundred: loading it must allocate less than one minor word per slot
     (decoding every slot up front allocates about four) *)
  let exe =
    match Asm.assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  let edited = (Eel_tools.Qpt2.instrument Mach.mach exe).Eel_tools.Qpt2.edited in
  let _, headroom = Eel_diffexec.Diffexec.equalized_headroom exe edited in
  let w0 = Gc.minor_words () in
  let t = Emu.load ~headroom edited in
  let allocated = Gc.minor_words () -. w0 in
  let slots = Array.length t.Emu.code in
  Alcotest.(check bool) "edited image is predecoded" true (slots > 0);
  if allocated >= float_of_int slots then
    Alcotest.failf "load allocated %.0f minor words for %d table slots"
      allocated slots

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

let events_with_fuel ~tier ~fuel exe =
  let t, _ = load_tier ~tier exe in
  let log = Emu.obs_log () in
  Emu.set_obs t (Some log);
  let stop =
    match Emu.run ~fuel t with
    | r -> Printf.sprintf "exit %d" r.Emu.exit_code
    | exception Emu.Out_of_fuel -> "fuel"
    | exception Emu.Fault m -> "fault: " ^ m
  in
  ( List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log),
    Emu.insns_executed t,
    Emu.registers t,
    stop )

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
     that falls inside a compiled block's worst-case span *)
  let full = run_mode ~predecode:true fuel_parity_src in
  let n = full.Emu.insns in
  for fuel = 1 to n + 1 do
    let eb, ib, rb, sb = events_with_fuel ~tier:Tier2.Interp ~fuel exe in
    List.iter
      (fun tr ->
        let chk what =
          Printf.sprintf "%s %s at fuel %d" (Tier2.tier_name tr) what fuel
        in
        let ea, ia, ra, sa = events_with_fuel ~tier:tr ~fuel exe in
        Alcotest.(check string) (chk "stop") sb sa;
        Alcotest.(check int) (chk "insns") ib ia;
        Alcotest.(check (list string)) (chk "events") eb ea;
        Alcotest.(check (array int)) (chk "registers") rb ra)
      [ Tier2.Predecode; Tier2.Block ]
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

let run_tier ?(pokes = []) ~tier src =
  let t, eng = load_tier ~tier (assemble_exe src) in
  let log = Emu.obs_log () in
  Emu.set_obs t (Some log);
  Emu.set_pokes t pokes;
  let stop =
    match Emu.run t with
    | r -> Printf.sprintf "exit %d" r.Emu.exit_code
    | exception Emu.Fault m -> "fault: " ^ m
    | exception Emu.Out_of_fuel -> "fuel"
  in
  ( stop,
    List.map (Format.asprintf "%a" Emu.pp_obs) (Emu.obs_events log),
    Emu.insns_executed t,
    Emu.registers t,
    Emu.output t,
    eng )

(* Run [src] under all three tiers, demand an identical observable run,
   and return the tier-2 engine's stats for structural assertions. *)
let check_tiers_agree ?pokes name src =
  let sb, eb, ib, rb, ob, _ = run_tier ?pokes ~tier:Tier2.Interp src in
  let check tr =
    let chk what =
      Printf.sprintf "%s [%s] %s" name (Tier2.tier_name tr) what
    in
    let sa, ea, ia, ra, oa, eng = run_tier ?pokes ~tier:tr src in
    Alcotest.(check string) (chk "stop") sb sa;
    Alcotest.(check (list string)) (chk "events") eb ea;
    Alcotest.(check int) (chk "insns") ib ia;
    Alcotest.(check (array int)) (chk "registers") rb ra;
    Alcotest.(check string) (chk "output") ob oa;
    eng
  in
  ignore (check Tier2.Predecode);
  match check Tier2.Block with
  | Some st -> Tier2.stats st
  | None -> Alcotest.failf "%s: tier-2 engine failed to attach" name

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

let test_tier_selfstore_deopt () =
  (* a store into the block currently executing: the engine must finish
     the store, OSR out at the next boundary (the closure is stale), and
     resume in tier-1 — every loop iteration *)
  let src =
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
  in
  let st = check_tiers_agree "self-store" src in
  Alcotest.(check bool) "deopted mid-block" true (st.Tier2.st_deopts >= 1);
  Alcotest.(check bool)
    "invalidated itself" true
    (st.Tier2.st_invalidated >= 1)

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
  let _, _, _, _, out, _ = run_tier ~pokes ~tier:Tier2.Interp src in
  Alcotest.(check string) "poked word executed" "42\n" out

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
          Alcotest.test_case "osr at every block boundary" `Quick
            test_tier_osr_boundaries;
          Alcotest.test_case "self-modify invalidates blocks" `Quick
            test_tier_selfmod_suite;
          Alcotest.test_case "invalidation severs chains" `Quick
            test_tier_invalidate_chained;
          Alcotest.test_case "self-store deopts" `Quick
            test_tier_selfstore_deopt;
          Alcotest.test_case "poke into a never-fetched word" `Quick
            test_tier_poke_never_fetched;
        ] );
    ]
