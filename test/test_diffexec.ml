(* Tests for the differential execution oracle: the observable-event sink,
   the lockstep comparator's divergence classification, the identity-edit
   round-trip oracle over the whole example corpus, and the
   coverage-guided mutation scheduler. *)

module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module Mutate = Eel_mutate.Mutate
module Sched = Eel_mutate.Sched
module Dx = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
open Eel_sparc

let mach = Mach.mach

let assemble src =
  match Asm.assemble src with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "assembly failed: %s" m

let execute_ok ?fuel ?limit exe =
  match Dx.execute ?fuel ?limit exe with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute: %s" (Diag.error_message e)

let exit0 = "        mov 0, %o0\n        ta 1\n        nop\n"

(* ------------------------------------------------------------------ *)
(* The observable-event sink                                           *)
(* ------------------------------------------------------------------ *)

let test_obs_events () =
  let exe =
    assemble
      ({|
main:   set buf, %l0
        mov 7, %l1
        st %l1, [%l0]
        mov 42, %o0
        ta 2
|}
      ^ exit0 ^ "        .bss\n        .align 4\nbuf:    .space 8\n")
  in
  let r = execute_ok exe in
  (match r.Dx.r_stop with
  | Dx.S_exit 0 -> ()
  | s -> Alcotest.failf "stop: %s" (Format.asprintf "%a" Dx.pp_stop s));
  (* in order: the store, the putint trap, the exit trap, the exit *)
  match Array.to_list r.Dx.r_events with
  | [
   Emu.Ob_store { width = 4; value = 7; _ };
   Emu.Ob_trap { num = 2; arg = 42; _ };
   Emu.Ob_trap { num = 1; arg = 0; _ };
   Emu.Ob_exit { code = 0; _ };
  ] ->
      Alcotest.(check bool) "not truncated" false r.Dx.r_truncated;
      Alcotest.(check int) "total" 4 r.Dx.r_total
  | evs ->
      Alcotest.failf "unexpected events: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Emu.pp_obs) evs))

let test_obs_bounded () =
  let exe =
    assemble
      ({|
main:   mov 20, %l0
Lloop:  mov %l0, %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        nop
|}
      ^ exit0)
  in
  let r = execute_ok ~limit:5 exe in
  Alcotest.(check int) "retained" 5 (Array.length r.Dx.r_events);
  Alcotest.(check bool) "truncated" true r.Dx.r_truncated;
  Alcotest.(check bool) "total exceeds bound" true (r.Dx.r_total > 5)

let test_no_sink_no_events () =
  (* without set_obs, the emulator records nothing (the hot loop has no
     sink to feed) *)
  let exe = assemble ("main:   mov 3, %o0\n        ta 2\n" ^ exit0) in
  let t = Emu.load exe in
  ignore (Emu.run t);
  Alcotest.(check bool) "no log installed" true (Emu.obs_of t = None)

(* ------------------------------------------------------------------ *)
(* Identity round-trip oracle                                          *)
(* ------------------------------------------------------------------ *)

let test_identity_corpus () =
  List.iter
    (fun (name, exe) ->
      match Dx.identity_roundtrip ~mach exe with
      | Error e -> Alcotest.failf "%s: %s" name (Diag.error_message e)
      | Ok rp ->
          Alcotest.(check string)
            (name ^ " verdict") "equivalent"
            (Dx.verdict_name rp.Dx.rp_verdict))
    (Corpus.all ())

let test_identity_fib_o7_spill () =
  (* fib spills %o7 (a code pointer): the edited run stores edited return
     addresses, and the oracle's inverse address map must normalize them —
     a false value-mismatch on the [st %o7] otherwise *)
  let exe = assemble (List.assoc "fib" Corpus.sources) in
  match Dx.identity_roundtrip ~mach exe with
  | Error e -> Alcotest.failf "fib: %s" (Diag.error_message e)
  | Ok rp ->
      Alcotest.(check string)
        "verdict" "equivalent"
        (Dx.verdict_name rp.Dx.rp_verdict)

let test_identity_no_text () =
  (* front-end refusal surfaces as a structured error, never an exception *)
  let data =
    {
      Sef.sec_name = ".data";
      sec_kind = Sef.Data;
      vaddr = 0x20000;
      size = 8;
      contents = Bytes.make 8 '\000';
    }
  in
  let exe = Sef.create ~entry:0x10000 ~sections:[ data ] ~symbols:[] in
  match Dx.identity_roundtrip ~mach exe with
  | Error _ -> ()
  | Ok rp ->
      Alcotest.failf "expected a structured error, got %s"
        (Dx.verdict_name rp.Dx.rp_verdict)

let test_predecode_self_differential () =
  (* the predecoded tier under the oracle's own event sink: every corpus
     program must produce a byte-identical observable log, the same stop
     condition, and the same event total as the decode-per-step
     interpreter — the emulator differentially tested against itself *)
  List.iter
    (fun (name, exe) ->
      let exec tier =
        match Dx.execute ~tier exe with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" name (Diag.error_message e)
      in
      let a = exec Eel_emu.Tier2.Predecode and b = exec Eel_emu.Tier2.Interp in
      Alcotest.(check string)
        (name ^ ": same stop")
        (Format.asprintf "%a" Dx.pp_stop b.Dx.r_stop)
        (Format.asprintf "%a" Dx.pp_stop a.Dx.r_stop);
      Alcotest.(check int) (name ^ ": same total") b.Dx.r_total a.Dx.r_total;
      Alcotest.(check bool)
        (name ^ ": identical event log")
        true
        (a.Dx.r_events = b.Dx.r_events))
    (Corpus.all ())

(* the tier-2 block engine under the oracle's own event sink: every
   program of BOTH corpora — CPU-bound and OS-bound — and each of its six
   tool edits must produce a byte-identical observable run under block
   compilation and under pure interpretation: same stop condition, same
   event log (order and payloads), same instruction count, output and
   final register file, and the same ground-truth profile. This is the
   acceptance gate for OSR exactness: obs sinks and profiles are armed,
   so every compiled store emits its event from inside the closure and
   every compiled block keeps the profile. *)
let check_tier_self_differential name ?os exe =
  let exec tier =
    match Dx.execute ?os ~profile:true ~tier exe with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" name (Diag.error_message e)
  in
  let a = exec Eel_emu.Tier2.Block and b = exec Eel_emu.Tier2.Interp in
  Alcotest.(check string)
    (name ^ ": same stop")
    (Format.asprintf "%a" Dx.pp_stop b.Dx.r_stop)
    (Format.asprintf "%a" Dx.pp_stop a.Dx.r_stop);
  Alcotest.(check int) (name ^ ": same total") b.Dx.r_total a.Dx.r_total;
  Alcotest.(check bool)
    (name ^ ": identical event log")
    true
    (a.Dx.r_events = b.Dx.r_events);
  Alcotest.(check int) (name ^ ": same insns") b.Dx.r_insns a.Dx.r_insns;
  Alcotest.(check string) (name ^ ": same output") b.Dx.r_out a.Dx.r_out;
  Alcotest.(check (array int)) (name ^ ": same registers") b.Dx.r_regs
    a.Dx.r_regs;
  match (b.Dx.r_profile, a.Dx.r_profile) with
  | Some pb, Some pa -> Profile_check.check (name ^ ": same profile") pb pa
  | _ -> Alcotest.failf "%s: no profile" name

(* the program itself, then each tool's edit of it *)
let check_tier_self_differential_edits name ?os exe =
  check_tier_self_differential name ?os exe;
  List.iter
    (fun tool ->
      match Eel_tools.Toolbox.apply tool mach exe with
      | Ok ap ->
          check_tier_self_differential (name ^ "+" ^ tool) ?os
            ap.Eel_tools.Toolbox.ap_edited
      | Error m -> Alcotest.failf "%s: %s" name m)
    Eel_tools.Toolbox.names

let test_tier2_self_differential () =
  List.iter
    (fun (name, exe) -> check_tier_self_differential_edits name exe)
    (Corpus.all ())

let test_tier2_self_differential_os () =
  List.iter
    (fun (name, exe, spec) ->
      check_tier_self_differential_edits name ~os:spec exe)
    (Corpus.all_os ())

(* ------------------------------------------------------------------ *)
(* Seeded semantics-changing mutants                                   *)
(* ------------------------------------------------------------------ *)

let branch_src =
  {|
main:   mov 1, %l0
        cmp %l0, 1
        be Lyes
        nop
        mov 111, %o0
        ba Lout
        nop
Lyes:   mov 222, %o0
Lout:   ta 2
|}
  ^ exit0

let patch32_exn exe addr f =
  match Sef.fetch32 exe addr with
  | None -> Alcotest.failf "no word at 0x%x" addr
  | Some w ->
      if not (Sef.patch32 exe addr (f w)) then
        Alcotest.failf "patch at 0x%x failed" addr

let test_mutant_flipped_branch () =
  let a = assemble branch_src and b = assemble branch_src in
  (* Bicc cond field is bits 28:25; be=0001, bne=1001 — flip bit 28 of the
     [be] at main+8 and the branch inverts *)
  patch32_exn b 0x10008 (fun w -> w lxor 0x10000000);
  match Dx.compare_images a b with
  | Error e -> Alcotest.failf "compare: %s" (Diag.error_message e)
  | Ok rp -> (
      (match rp.Dx.rp_verdict with
      | Dx.Diverged Dx.D_value -> ()
      | v -> Alcotest.failf "verdict: %s" (Dx.verdict_name v));
      match rp.Dx.rp_divergence with
      | None -> Alcotest.fail "missing divergence detail"
      | Some dv ->
          (* first divergence is the ta 2 at main+32: original prints 222,
             the flipped-branch mutant prints 111 *)
          Alcotest.(check int) "first-divergence index" 0 dv.Dx.dv_index;
          Alcotest.(check int) "first-divergence pc" 0x10020 dv.Dx.dv_pc)

let store_src =
  {|
main:   mov 7, %l1
        set buf, %l0
        st %l1, [%l0]
        ld [%l0], %o0
        ta 2
|}
  ^ exit0 ^ "        .data\n        .align 4\nbuf:    .word 0\n"

let test_mutant_clobbered_store () =
  let a = assemble store_src and b = assemble store_src in
  (* mov 7,%l1 is or %g0,7,%l1 at main+0: xor the imm13 with 0xF turns the
     stored value into 8 *)
  patch32_exn b 0x10000 (fun w -> w lxor 0xF);
  (* the divergence must be anchored at the store instruction *)
  let store_pc =
    let r = execute_ok a in
    match
      Array.to_list r.Dx.r_events
      |> List.find_map (function
           | Emu.Ob_store { pc; _ } -> Some pc
           | _ -> None)
    with
    | Some pc -> pc
    | None -> Alcotest.fail "no store event in the original run"
  in
  match Dx.compare_images a b with
  | Error e -> Alcotest.failf "compare: %s" (Diag.error_message e)
  | Ok rp -> (
      (match rp.Dx.rp_verdict with
      | Dx.Diverged Dx.D_value -> ()
      | v -> Alcotest.failf "verdict: %s" (Dx.verdict_name v));
      match rp.Dx.rp_divergence with
      | None -> Alcotest.fail "missing divergence detail"
      | Some dv ->
          Alcotest.(check int) "diverges at the store" store_pc dv.Dx.dv_pc;
          Alcotest.(check int) "at event 0" 0 dv.Dx.dv_index)

let test_mutant_exit_code () =
  let src = "main:   mov 3, %o0\n        ta 2\n" ^ exit0 in
  let a = assemble src and b = assemble src in
  (* flip the exit status: mov 0,%o0 (main+8) becomes mov 1,%o0 *)
  patch32_exn b 0x10008 (fun w -> w lxor 0x1);
  match Dx.compare_images a b with
  | Error e -> Alcotest.failf "compare: %s" (Diag.error_message e)
  | Ok rp -> (
      match rp.Dx.rp_verdict with
      | Dx.Diverged Dx.D_value -> ()
      | v -> Alcotest.failf "verdict: %s" (Dx.verdict_name v))

(* ------------------------------------------------------------------ *)
(* Truncation and fault symmetry                                       *)
(* ------------------------------------------------------------------ *)

let test_fuel_truncated_equal () =
  (* an infinite loop exhausts the budget on both sides: the oracle must
     classify fuel-truncated-equal, never divergence *)
  let exe = assemble "main:   ba main\n        nop\n" in
  match Dx.identity_roundtrip ~fuel:1000 ~mach exe with
  | Error e -> Alcotest.failf "oracle: %s" (Diag.error_message e)
  | Ok rp ->
      Alcotest.(check string)
        "verdict" "fuel-truncated-equal"
        (Dx.verdict_name rp.Dx.rp_verdict)

let test_log_truncation_is_not_divergence () =
  (* a log bound hit on one side is truncation too: the dropped suffix
     might have matched *)
  let exe = assemble (List.assoc "countdown" Corpus.sources) in
  let a = execute_ok exe in
  let b = execute_ok ~limit:2 exe in
  let rp = Dx.compare_runs a b in
  Alcotest.(check string)
    "verdict" "fuel-truncated-equal"
    (Dx.verdict_name rp.Dx.rp_verdict)

let test_both_fault () =
  (* both sides fault after identical observable prefixes: a verdict of
     its own, not a divergence *)
  let exe = assemble "main:   .word 0\n        nop\n" in
  match Dx.compare_images exe exe with
  | Error e -> Alcotest.failf "compare: %s" (Diag.error_message e)
  | Ok rp ->
      Alcotest.(check string)
        "verdict" "both-fault"
        (Dx.verdict_name rp.Dx.rp_verdict)

let test_fault_asymmetry () =
  let good = "main:   mov 1, %o0\n        ta 2\n" ^ exit0 in
  let a = assemble good in
  let b = assemble good in
  (* turn the mov into an illegal word: the mutant faults where the
     original prints *)
  patch32_exn b 0x10000 (fun _ -> 0);
  match Dx.compare_images a b with
  | Error e -> Alcotest.failf "compare: %s" (Diag.error_message e)
  | Ok rp -> (
      match rp.Dx.rp_verdict with
      | Dx.Diverged Dx.D_fault_asym -> ()
      | v -> Alcotest.failf "verdict: %s" (Dx.verdict_name v))

(* ------------------------------------------------------------------ *)
(* Coverage-guided scheduler                                           *)
(* ------------------------------------------------------------------ *)

let test_sched_first_cycle_covers_all () =
  let t = Sched.create ~prefix:"test.sched.a" () in
  let picked =
    List.init (Sched.num_classes t) (fun _ ->
        let k = Sched.next t in
        ignore (Sched.observe t k ~signature:"same");
        k)
  in
  Alcotest.(check int)
    "all classes visited once" (Sched.num_classes t)
    (List.length (List.sort_uniq compare picked))

let test_sched_biases_to_rich_class () =
  let t = Sched.create ~prefix:"test.sched.b" () in
  let fresh = ref 0 in
  for _ = 1 to 160 do
    let k = Sched.next t in
    let signature =
      if k = Mutate.Bit_flip_text then (
        incr fresh;
        Printf.sprintf "new-%d" !fresh)
      else "saturated"
    in
    ignore (Sched.observe t k ~signature)
  done;
  let rich = Sched.attempts_of t Mutate.Bit_flip_text in
  List.iter
    (fun k ->
      if k <> Mutate.Bit_flip_text then
        Alcotest.(check bool)
          (Printf.sprintf "bit-flip-text out-attempts %s" (Mutate.name k))
          true
          (rich > Sched.attempts_of t k))
    Mutate.all;
  (* and the signature bookkeeping matches what we fed it *)
  Alcotest.(check int) "distinct global" (!fresh + 1) (Sched.distinct t);
  Alcotest.(check int)
    "distinct per class" !fresh
    (Sched.distinct_of t Mutate.Bit_flip_text)

let test_sched_deterministic () =
  let run () =
    let t = Sched.create ~prefix:"test.sched.c" () in
    List.init 64 (fun i ->
        let k = Sched.next t in
        ignore (Sched.observe t k ~signature:(Mutate.name k ^ string_of_int (i mod 3)));
        Mutate.name k)
  in
  Alcotest.(check (list string)) "same schedule" (run ()) (run ())

let test_sched_metrics_published () =
  let t = Sched.create ~prefix:"test.sched.d" () in
  let k = Sched.next t in
  ignore (Sched.observe t k ~signature:"sig");
  match Eel_obs.Metrics.find "test.sched.d.distinct" with
  | Some (Eel_obs.Metrics.Float f) ->
      Alcotest.(check int) "distinct gauge" 1 (int_of_float f)
  | _ -> Alcotest.fail "distinct gauge not published"

let test_sched_blind_cycles () =
  let names = List.map Mutate.name (Sched.blind ~count:20) in
  let expect =
    List.init 20 (fun i -> Mutate.name (List.nth Mutate.all (i mod 16)))
  in
  Alcotest.(check (list string)) "cycle" expect names

let () =
  Alcotest.run "diffexec"
    [
      ( "obs-sink",
        [
          Alcotest.test_case "event order and payloads" `Quick test_obs_events;
          Alcotest.test_case "bounded log" `Quick test_obs_bounded;
          Alcotest.test_case "no sink, no events" `Quick test_no_sink_no_events;
        ] );
      ( "identity-oracle",
        [
          Alcotest.test_case "corpus is event-equivalent" `Quick
            test_identity_corpus;
          Alcotest.test_case "return-address spills normalize" `Quick
            test_identity_fib_o7_spill;
          Alcotest.test_case "refusal is a structured error" `Quick
            test_identity_no_text;
          Alcotest.test_case "predecode self-differential" `Quick
            test_predecode_self_differential;
          Alcotest.test_case "tier-2 self-differential (CPU corpus)" `Quick
            test_tier2_self_differential;
          Alcotest.test_case "tier-2 self-differential (OS corpus)" `Quick
            test_tier2_self_differential_os;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "flipped branch condition" `Quick
            test_mutant_flipped_branch;
          Alcotest.test_case "clobbered store" `Quick test_mutant_clobbered_store;
          Alcotest.test_case "changed exit code" `Quick test_mutant_exit_code;
        ] );
      ( "truncation-and-faults",
        [
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_truncated_equal;
          Alcotest.test_case "log bound" `Quick
            test_log_truncation_is_not_divergence;
          Alcotest.test_case "both fault" `Quick test_both_fault;
          Alcotest.test_case "fault asymmetry" `Quick test_fault_asymmetry;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "first cycle covers all classes" `Quick
            test_sched_first_cycle_covers_all;
          Alcotest.test_case "biases toward rich classes" `Quick
            test_sched_biases_to_rich_class;
          Alcotest.test_case "deterministic" `Quick test_sched_deterministic;
          Alcotest.test_case "publishes coverage gauges" `Quick
            test_sched_metrics_published;
          Alcotest.test_case "blind schedule cycles" `Quick
            test_sched_blind_cycles;
        ] );
    ]
