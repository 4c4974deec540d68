(* Tests for the edit-contract subsystem (lib/equiv) and the contract
   oracle (Diffexec.verify_edit): the contract mask itself, the emulator's
   record-time event filter, masked equivalence of real instrumented edits
   over the corpus, qpt2's counter cross-validation against ground truth,
   and the acceptance-criteria seeded contract violations. *)

module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module E = Eel.Executable
module Contract = Eel_equiv.Contract
module Dx = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Toolbox = Eel_tools.Toolbox
module Qpt2 = Eel_tools.Qpt2
module Json = Eel_obs.Json
open Eel_sparc

let mach = Mach.mach

let assemble src =
  match Asm.assemble src with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "assembly failed: %s" m

let execute_ok ?profile ?filter exe =
  match Dx.execute ?profile ?filter exe with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute: %s" (Diag.error_message e)

let apply_ok tool exe =
  match Toolbox.apply tool mach exe with
  | Ok ap -> ap
  | Error m -> Alcotest.failf "%s: %s" tool m

let verify_ok ap exe =
  match
    Dx.verify_edit ~norm_b:ap.Toolbox.ap_norm_b
      ~block_of:ap.Toolbox.ap_block_of ~contract:ap.Toolbox.ap_contract exe
      ap.Toolbox.ap_edited
  with
  | Ok er -> er
  | Error e ->
      Alcotest.failf "%s: %s" ap.Toolbox.ap_tool (Diag.error_message e)

let exit0 = "        mov 0, %o0\n        ta 1\n        nop\n"

(* ------------------------------------------------------------------ *)
(* The contract mask                                                   *)
(* ------------------------------------------------------------------ *)

let store ?(pc = 0x10000) addr =
  Emu.Ob_store { pc; addr; width = 4; value = 1 }

let test_regions () =
  Alcotest.(check bool) "empty span" true (Contract.span ~name:"x" [] = None);
  (match Contract.span ~name:"x" [ 0x108; 0x100; 0x104 ] with
  | Some r ->
      Alcotest.(check int) "lo" 0x100 r.Contract.rg_lo;
      Alcotest.(check int) "hi covers last word" 0x10c r.Contract.rg_hi
  | None -> Alcotest.fail "span of three words");
  let ct =
    Contract.make "t"
      ~regions:[ Contract.region ~name:"c" ~lo:0x100 ~size:8 ]
  in
  Alcotest.(check bool) "lo inside" true (Contract.declares_store ct 0x100);
  Alcotest.(check bool) "last byte inside" true (Contract.declares_store ct 0x107);
  Alcotest.(check bool) "hi outside" false (Contract.declares_store ct 0x108);
  Alcotest.(check bool) "below outside" false (Contract.declares_store ct 0xfc)

let test_red_zone_and_traps () =
  let ct = Contract.make "t" ~red_zone:64 ~traps:[ 9 ] in
  let sp = 0x7f0000 in
  Alcotest.(check bool) "just below sp" true
    (Contract.declared ct ~sp (store (sp - 4)));
  Alcotest.(check bool) "red-zone floor" true
    (Contract.declared ct ~sp (store (sp - 64)));
  Alcotest.(check bool) "below the red zone" false
    (Contract.declared ct ~sp (store (sp - 68)));
  Alcotest.(check bool) "at sp (not below)" false
    (Contract.declared ct ~sp (store sp));
  Alcotest.(check bool) "declared trap" true
    (Contract.declared ct ~sp (Emu.Ob_trap { pc = 0; num = 9; arg = 0 }));
  Alcotest.(check bool) "undeclared trap" false
    (Contract.declared ct ~sp (Emu.Ob_trap { pc = 0; num = 2; arg = 0 }));
  (* terminal events are never the instrumentation's *)
  Alcotest.(check bool) "exit never declared" false
    (Contract.declared ct ~sp (Emu.Ob_exit { pc = 0; code = 0 }))

let test_mask_events () =
  let ct =
    Contract.make "t"
      ~regions:[ Contract.region ~name:"c" ~lo:0x200 ~size:4 ]
      ~traps:[ 9 ]
  in
  let evs =
    [|
      store 0x200;
      store 0x300;
      Emu.Ob_trap { pc = 0; num = 9; arg = 1 };
      Emu.Ob_trap { pc = 0; num = 2; arg = 1 };
      Emu.Ob_exit { pc = 0; code = 0 };
    |]
  in
  let kept = Contract.mask_events ct evs in
  Alcotest.(check int) "three survive" 3 (Array.length kept);
  Alcotest.(check bool) "program store kept" true (kept.(0) = store 0x300)

let test_run_checks_first_failure () =
  let ck name r = { Contract.ck_name = name; ck_run = (fun ~profile:_ ~mem:_ -> r) } in
  let ct =
    Contract.make "t"
      ~checks:[ ck "good" (Ok ()); ck "bad" (Error "boom"); ck "worse" (Error "x") ]
  in
  let profile = Emu.create_profile () in
  match Contract.run_checks ct ~profile ~mem:(Bytes.create 4) with
  | Error msg -> Alcotest.(check string) "first failure" "check bad: boom" msg
  | Ok () -> Alcotest.fail "expected a failure"

(* ------------------------------------------------------------------ *)
(* The emulator's record-time filter                                   *)
(* ------------------------------------------------------------------ *)

let store_loop_src =
  {|
main:   mov 7, %l1
        mov 3, %l0
        set buf, %l2
Lloop:  st %l1, [%l2]
        subcc %l0, 1, %l0
        bne Lloop
        nop
        ld [%l2], %o0
        ta 2
|}
  ^ exit0 ^ "        .data\n        .align 4\nbuf:    .word 0\n"

let test_obs_filter_masks_at_record_time () =
  let exe = assemble store_loop_src in
  let plain = execute_ok exe in
  let stores r =
    Array.to_list r.Dx.r_events
    |> List.filter (function Emu.Ob_store _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "three stores unfiltered" 3 (stores plain);
  (* mask every store: the log shrinks, the masked count accounts for it,
     and filtered events do not consume the total either *)
  let masked =
    execute_ok
      ~filter:(fun _ ev ->
        match ev with Emu.Ob_store _ -> false | _ -> true)
      exe
  in
  Alcotest.(check int) "no stores recorded" 0 (stores masked);
  Alcotest.(check int) "masked count" 3 masked.Dx.r_filtered;
  Alcotest.(check int) "total excludes masked" (plain.Dx.r_total - 3)
    masked.Dx.r_total

let test_obs_filter_never_masks_terminal_events () =
  (* a faulting program under a drop-everything filter still records the
     fault: terminal events are exempt by construction *)
  let exe = assemble "main:   .word 0\n        nop\n" in
  let r = execute_ok ~filter:(fun _ _ -> false) exe in
  match Array.to_list r.Dx.r_events with
  | [ Emu.Ob_fault _ ] -> ()
  | evs -> Alcotest.failf "expected exactly the fault, got %d events" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Masked equivalence of real edits                                    *)
(* ------------------------------------------------------------------ *)

let corpus_subset = [ "countdown"; "fib"; "jump-table"; "mem-widths" ]

let test_corpus_masked_equivalence () =
  List.iter
    (fun tool ->
      List.iter
        (fun name ->
          let exe = assemble (List.assoc name Corpus.sources) in
          let ap = apply_ok tool exe in
          let er = verify_ok ap exe in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s verdict" tool name)
            "equivalent"
            (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict))
        corpus_subset)
    [ "qpt2"; "tracer"; "sfi" ]

let test_qpt2_masks_counter_traffic () =
  (* fib branches a lot: the contract must mask real counter stores, and
     say how many *)
  let exe = assemble (List.assoc "fib" Corpus.sources) in
  let ap = apply_ok "qpt2" exe in
  let er = verify_ok ap exe in
  Alcotest.(check string) "verdict" "equivalent"
    (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict);
  Alcotest.(check bool) "counter stores were masked" true (er.Dx.er_masked > 0)

let test_remaining_tools_equivalent () =
  List.iter
    (fun (tool, src) ->
      let exe = assemble src in
      let ap = apply_ok tool exe in
      let er = verify_ok ap exe in
      Alcotest.(check string) (tool ^ " verdict") "equivalent"
        (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict))
    [
      ("oldqpt", List.assoc "fib" Corpus.sources);
      ("amemory", List.assoc "memory-bound" Corpus.sources);
      ("optprof", List.assoc "fib" Corpus.sources);
    ]

let test_equiv_metrics_published () =
  let exe = assemble (List.assoc "countdown" Corpus.sources) in
  let ap = apply_ok "qpt2" exe in
  let er = verify_ok ap exe in
  (match Eel_obs.Metrics.find "eel.equiv.runs" with
  | Some (Eel_obs.Metrics.Int n) ->
      Alcotest.(check bool) "runs counted" true (n > 0)
  | _ -> Alcotest.fail "eel.equiv.runs not published");
  match Eel_obs.Metrics.find "eel.equiv.masked_events" with
  | Some (Eel_obs.Metrics.Int n) ->
      Alcotest.(check bool) "masked events accumulated" true
        (n >= er.Dx.er_masked)
  | _ -> Alcotest.fail "eel.equiv.masked_events not published"

(* ------------------------------------------------------------------ *)
(* qpt2 counter cross-validation against emulator ground truth         *)
(* ------------------------------------------------------------------ *)

let workload ?(routines = 10) ?(seed = 23) () =
  match
    Asm.assemble
      (Eel_workload.Gen.program
         { Eel_workload.Gen.default with routines; seed })
  with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "workload assembly failed: %s" m

let test_qpt2_counts_cross_validate () =
  let exe = workload () in
  let p = Qpt2.instrument mach exe in
  let ra = execute_ok ~profile:true exe in
  let rb = execute_ok p.Qpt2.edited in
  let profile =
    match ra.Dx.r_profile with
    | Some pr -> pr
    | None -> Alcotest.fail "no profile collected"
  in
  (match Qpt2.validate_counts p ~profile ~mem:rb.Dx.r_mem with
  | Ok () -> ()
  | Error m -> Alcotest.failf "cross-validation rejected a correct run: %s" m);
  (* corrupt one counter word: the promise must break *)
  match p.Qpt2.counters with
  | [] -> Alcotest.fail "workload produced no counters"
  | c :: _ ->
      let mem = Bytes.copy rb.Dx.r_mem in
      Eel_util.Bytebuf.set32_be mem c.Qpt2.c_addr
        (Eel_util.Bytebuf.get32_be mem c.Qpt2.c_addr + 1);
      (match Qpt2.validate_counts p ~profile ~mem with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "tampered counter passed cross-validation")

let test_qpt2_check_runs_under_oracle () =
  (* the same promise, exercised through verify_edit's check machinery *)
  let exe = workload ~routines:6 ~seed:31 () in
  let ap = apply_ok "qpt2" exe in
  let er = verify_ok ap exe in
  Alcotest.(check string) "verdict" "equivalent"
    (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict)

(* ------------------------------------------------------------------ *)
(* Raw-equal values                                                    *)
(* ------------------------------------------------------------------ *)

let test_raw_equal_values_match () =
  (* a value both sides produce raw-identical matches even when the edited
     side's normalizer maps it elsewhere (it equals a relocated pc) *)
  let run events regs =
    {
      Dx.r_stop = Dx.S_exit 0;
      r_events = events;
      r_total = Array.length events;
      r_truncated = false;
      r_filtered = 0;
      r_filtered_stores = 0;
      r_filtered_traps = 0;
      r_filtered_syscalls = 0;
      r_out = "";
      r_insns = 1;
      r_regs = regs;
      r_mem = Bytes.empty;
      r_marks = Bytes.empty;
      r_profile = None;
    }
  in
  let v = 0x62e80 in
  let evs =
    [|
      Emu.Ob_store { pc = 0; addr = 0x100; width = 4; value = v };
      Emu.Ob_trap { pc = 0; num = 2; arg = v };
      Emu.Ob_exit { pc = 0; code = 0 };
    |]
  in
  let norm_b x = if x = v then 0x10000 else x in
  let rp = Dx.compare_runs ~norm_b (run evs [| v |]) (run evs [| v |]) in
  Alcotest.(check string) "verdict" "equivalent"
    (Dx.verdict_name rp.Dx.rp_verdict);
  (* the normalized match still holds, and a genuine difference still
     diverges *)
  let moved =
    Array.map
      (function
        | Emu.Ob_store s -> Emu.Ob_store { s with value = 0x20000 }
        | ev -> ev)
      evs
  in
  let norm_b x = if x = 0x20000 then v else x in
  Alcotest.(check string) "normalized" "equivalent"
    (Dx.verdict_name
       (Dx.compare_runs ~norm_b (run evs [||]) (run moved [||])).Dx.rp_verdict);
  Alcotest.(check string) "different" "diverged:value-mismatch"
    (Dx.verdict_name
       (Dx.compare_runs (run evs [||]) (run moved [||])).Dx.rp_verdict)

let test_oldqpt_raw_equal_seeds () =
  (* seeds whose oldqpt edits store a value (0x62e80 on seed 103) that
     both sides store raw-identical and that equals a relocated pc *)
  List.iter
    (fun seed ->
      let exe = workload ~routines:200 ~seed () in
      let er = verify_ok (apply_ok "oldqpt" exe) exe in
      Alcotest.(check string)
        (Printf.sprintf "seed %d verdict" seed)
        "equivalent"
        (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict))
    [ 12; 103 ]

(* ------------------------------------------------------------------ *)
(* Seeded contract violations (the acceptance criteria)                *)
(* ------------------------------------------------------------------ *)

let test_violation_counter_outside_declared_range () =
  (* instrument for real, then lie in the contract: declare every counter
     word except the highest one. The edited program's store to the
     undeclared word must surface as Contract_violation, anchored at the
     edited-side pc of the offending store *)
  let exe = assemble store_loop_src in
  let p = Qpt2.instrument mach exe in
  let addrs = List.map (fun c -> c.Qpt2.c_addr) p.Qpt2.counters in
  Alcotest.(check bool) "at least two counters" true (List.length addrs >= 2);
  let omitted = List.fold_left max (List.hd addrs) addrs in
  let lo = List.fold_left min (List.hd addrs) addrs in
  let forged =
    Contract.make "qpt2"
      ~regions:[ Contract.region ~name:"truncated" ~lo ~size:(omitted - lo) ]
      ~red_zone:Eel.Snippet.red_zone
  in
  match
    Dx.verify_edit
      ~norm_b:(E.inverse_address_norm p.Qpt2.exec)
      ~contract:forged exe p.Qpt2.edited
  with
  | Error e -> Alcotest.failf "oracle: %s" (Diag.error_message e)
  | Ok er -> (
      let rp = er.Dx.er_report in
      Alcotest.(check string) "verdict" "contract-violation"
        (Dx.verdict_name rp.Dx.rp_verdict);
      match rp.Dx.rp_divergence with
      | None -> Alcotest.fail "missing divergence detail"
      | Some dv -> (
          (match dv.Dx.dv_class with
          | Dx.D_contract -> ()
          | c -> Alcotest.failf "class: %s" (Dx.dclass_name c));
          match dv.Dx.dv_edit with
          | Some (Emu.Ob_store { addr; pc; _ }) ->
              Alcotest.(check int) "offending store address" omitted addr;
              Alcotest.(check int) "pc anchored at the edited-side store" pc
                dv.Dx.dv_pc
          | _ -> Alcotest.fail "offending event is not a store"))

let test_violation_clobbered_program_store () =
  (* a mutant that clobbers a PROGRAM store (not instrumentation): change
     the stored value in the edited image. The store address belongs to the
     original run too, so this is a genuine divergence, never blamed on the
     contract *)
  let exe = assemble store_loop_src in
  let p = Qpt2.instrument mach exe in
  (* mov 7, %l1 sits at main+0 in the original; find its edited home *)
  let mov_pc = 0x10000 in
  let edited_pc =
    match Hashtbl.find_opt (E.edited_address_map p.Qpt2.exec) mov_pc with
    | Some a -> a
    | None -> Alcotest.failf "no edited address for 0x%x" mov_pc
  in
  (match Sef.fetch32 p.Qpt2.edited edited_pc with
  | None -> Alcotest.failf "no word at edited 0x%x" edited_pc
  | Some w ->
      if not (Sef.patch32 p.Qpt2.edited edited_pc (w lxor 0xF)) then
        Alcotest.fail "patch failed");
  let store_pc =
    let r = execute_ok exe in
    match
      Array.to_list r.Dx.r_events
      |> List.find_map (function
           | Emu.Ob_store { pc; _ } -> Some pc
           | _ -> None)
    with
    | Some pc -> pc
    | None -> Alcotest.fail "no store event in the original run"
  in
  match
    Dx.verify_edit
      ~norm_b:(E.inverse_address_norm p.Qpt2.exec)
      ~contract:(Qpt2.contract p) exe p.Qpt2.edited
  with
  | Error e -> Alcotest.failf "oracle: %s" (Diag.error_message e)
  | Ok er -> (
      let rp = er.Dx.er_report in
      (match rp.Dx.rp_verdict with
      | Dx.Diverged Dx.D_value -> ()
      | v -> Alcotest.failf "verdict: %s" (Dx.verdict_name v));
      match rp.Dx.rp_divergence with
      | None -> Alcotest.fail "missing divergence detail"
      | Some dv ->
          Alcotest.(check int) "anchored at the program store" store_pc
            dv.Dx.dv_pc)

let test_violation_broken_check () =
  (* event streams match but the instrumentation's own promise is false:
     the post-run check demotes the verdict *)
  let exe = assemble store_loop_src in
  let p = Qpt2.instrument mach exe in
  let lying =
    {
      (Qpt2.contract p) with
      Contract.ct_checks =
        [
          {
            Contract.ck_name = "always-wrong";
            ck_run = (fun ~profile:_ ~mem:_ -> Error "promise broken");
          };
        ];
    }
  in
  match
    Dx.verify_edit
      ~norm_b:(E.inverse_address_norm p.Qpt2.exec)
      ~contract:lying exe p.Qpt2.edited
  with
  | Error e -> Alcotest.failf "oracle: %s" (Diag.error_message e)
  | Ok er -> (
      Alcotest.(check string) "verdict" "contract-violation"
        (Dx.verdict_name er.Dx.er_report.Dx.rp_verdict);
      match er.Dx.er_report.Dx.rp_divergence with
      | Some dv ->
          Alcotest.(check string) "check named in the report"
            "check always-wrong: promise broken" dv.Dx.dv_what
      | None -> Alcotest.fail "missing divergence detail")

(* ------------------------------------------------------------------ *)
(* Machine-readable verdicts                                           *)
(* ------------------------------------------------------------------ *)

let test_report_json_well_formed () =
  let exe = assemble (List.assoc "countdown" Corpus.sources) in
  let ap = apply_ok "qpt2" exe in
  let er = verify_ok ap exe in
  let s = Dx.report_to_json ~masked:er.Dx.er_masked er.Dx.er_report in
  match Json.parse s with
  | Error m -> Alcotest.failf "bad JSON: %s (%s)" m s
  | Ok j -> (
      (match Json.member "verdict" j with
      | Some (Json.Str v) -> Alcotest.(check string) "verdict" "equivalent" v
      | _ -> Alcotest.fail "no verdict member");
      (match Json.member "masked" j with
      | Some (Json.Num f) ->
          Alcotest.(check int) "masked" er.Dx.er_masked (int_of_float f)
      | _ -> Alcotest.fail "no masked member");
      match Json.member "divergence" j with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "divergence should be null")

let test_violation_json_carries_divergence () =
  let exe = assemble store_loop_src in
  let p = Qpt2.instrument mach exe in
  let forged = Contract.make "qpt2" ~red_zone:Eel.Snippet.red_zone in
  match
    Dx.verify_edit
      ~norm_b:(E.inverse_address_norm p.Qpt2.exec)
      ~contract:forged exe p.Qpt2.edited
  with
  | Error e -> Alcotest.failf "oracle: %s" (Diag.error_message e)
  | Ok er -> (
      let s = Dx.report_to_json ~masked:er.Dx.er_masked er.Dx.er_report in
      match Json.parse s with
      | Error m -> Alcotest.failf "bad JSON: %s" m
      | Ok j -> (
          match Json.member "divergence" j with
          | Some (Json.Obj _ as dv) -> (
              match Json.member "class" dv with
              | Some (Json.Str c) ->
                  Alcotest.(check string) "class" "contract" c
              | _ -> Alcotest.fail "no class member")
          | _ -> Alcotest.fail "violation report lacks a divergence object"))

let () =
  Alcotest.run "equiv"
    [
      ( "contract-mask",
        [
          Alcotest.test_case "regions and spans" `Quick test_regions;
          Alcotest.test_case "red zone and traps" `Quick test_red_zone_and_traps;
          Alcotest.test_case "post-hoc masking" `Quick test_mask_events;
          Alcotest.test_case "first failing check" `Quick
            test_run_checks_first_failure;
        ] );
      ( "record-time-filter",
        [
          Alcotest.test_case "masks at record time" `Quick
            test_obs_filter_masks_at_record_time;
          Alcotest.test_case "terminal events exempt" `Quick
            test_obs_filter_never_masks_terminal_events;
        ] );
      ( "masked-equivalence",
        [
          Alcotest.test_case "corpus x {qpt2,tracer,sfi}" `Quick
            test_corpus_masked_equivalence;
          Alcotest.test_case "qpt2 masks counter traffic" `Quick
            test_qpt2_masks_counter_traffic;
          Alcotest.test_case "oldqpt, amemory, optprof" `Quick
            test_remaining_tools_equivalent;
          Alcotest.test_case "publishes eel.equiv metrics" `Quick
            test_equiv_metrics_published;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "counters match ground truth" `Quick
            test_qpt2_counts_cross_validate;
          Alcotest.test_case "check runs under the oracle" `Quick
            test_qpt2_check_runs_under_oracle;
        ] );
      ( "raw-equal-values",
        [
          Alcotest.test_case "raw-equal values match" `Quick
            test_raw_equal_values_match;
          Alcotest.test_case "oldqpt seeds 12 and 103" `Quick
            test_oldqpt_raw_equal_seeds;
        ] );
      ( "seeded-violations",
        [
          Alcotest.test_case "counter outside declared range" `Quick
            test_violation_counter_outside_declared_range;
          Alcotest.test_case "clobbered program store" `Quick
            test_violation_clobbered_program_store;
          Alcotest.test_case "broken post-run check" `Quick
            test_violation_broken_check;
        ] );
      ( "json",
        [
          Alcotest.test_case "equivalent report" `Quick
            test_report_json_well_formed;
          Alcotest.test_case "violation report" `Quick
            test_violation_json_carries_divergence;
        ] );
    ]
