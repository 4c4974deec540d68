(* Differential verification driver: run the round-trip oracle over the
   example corpus (or over SEF images given on the command line) and report
   each verdict.

   Default mode is the identity-edit oracle: every program is pushed
   through load -> CFG -> no-op edit -> finalize -> emit, then the original
   and edited images run in lockstep under a shared fuel budget and must be
   event-equivalent.

   --tool NAME switches to the contract oracle: the named tool (qpt2,
   oldqpt, tracer, sfi, amemory, optprof) instruments each program for
   real, and the edited image must be event-equivalent to the original
   modulo the tool's declared side effects (its edit contract), with the
   instrumentation's own output cross-validated against emulator ground
   truth. Contract violations and divergences both fail the run.

   Front-end refusals surface as structured Diag errors (the driver
   degrades, it never crashes); any divergence, violation or refusal makes
   the exit status 1.

   --json writes one machine-readable JSON object (per-program verdicts +
   summary) to stdout instead of the table; --metrics dumps the eel.diff.*,
   eel.equiv.*, eel.ledger.* and emu.tier2.* registry slices at the end
   (the last shows how much oracle work ran compiled; metrics merge
   across domains, so this works at any EEL_JOBS); --trace FILE writes the
   whole run as a Chrome trace timeline (and pins the sweep to one domain,
   since span hierarchies don't cross domains). *)

module Sef = Eel_sef.Sef
module Diag = Eel_robust.Diag
module Diffexec = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Toolbox = Eel_tools.Toolbox
module Json = Eel_obs.Json

type outcome =
  | O_report of Diffexec.report * int  (** report, masked-event count *)
  | O_error of Diag.error

let run_identity ~fuel exe =
  match Diffexec.identity_roundtrip ~fuel ~mach:Eel_sparc.Mach.mach exe with
  | Ok rp -> O_report (rp, 0)
  | Error e -> O_error e

(* measure (not bare verify_edit) so every --tool run also populates the
   eel.ledger.* overhead accounting, merged across domains at the join *)
let run_tool ~fuel ~tool ~prog exe =
  match Toolbox.measure ~fuel ~prog tool Eel_sparc.Mach.mach exe with
  | Ok ms ->
      O_report
        (ms.Toolbox.ms_report.Diffexec.er_report,
         ms.Toolbox.ms_report.Diffexec.er_masked)
  | Error e -> O_error e

(* Replay a reproducer artifact: rebuild the exact (tool, program, fault
   class, sites) trial deterministically and demand the oracle still flag
   it. Reproducers are untrusted input like everything else the front end
   reads, so every failure — unreadable file, malformed or truncated JSON,
   a spec the campaign cannot rebuild — funnels into one structured Diag
   error and exit 2; nothing escapes as an uncaught exception. *)
let reproduce ~fuel path =
  let module Fault = Eel_mutate.Fault in
  let loc = Diag.in_file path in
  let outcome =
    Diag.guard (fun () ->
        try
          let text =
            try
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let s = really_input_string ic n in
              close_in ic;
              s
            with
            | Sys_error m -> Diag.fail (Diag.Sef_error { what = m; loc })
            | End_of_file ->
                Diag.fail
                  (Diag.Sef_error { what = "truncated reproducer file"; loc })
          in
          let spec =
            match Result.bind (Json.parse text) Fault.spec_of_json with
            | Ok spec -> spec
            | Error m ->
                Diag.fail (Diag.Sef_error { what = "bad reproducer: " ^ m; loc })
          in
          (match Fault.replay ~fuel spec with
          | Ok (at, desc) -> (spec, at, desc)
          | Error m -> Diag.fail (Diag.Exe_error { what = m }))
        with
        | (Diag.Error _ | Eel_util.Bytebuf.Truncated _) as e -> raise e
        | exn ->
            Diag.fail
              (Diag.Exe_error { what = "replay raised " ^ Printexc.to_string exn }))
  in
  match outcome with
  | Error e ->
      Printf.eprintf "eel_diff --reproduce: %s\n" (Diag.error_message e);
      2
  | Ok (spec, at, desc) ->
      Printf.printf "%s %s on %s: %s\n  fault: %s\n  verdict: %s%s\n"
        spec.Fault.sp_tool
        (Fault.class_name spec.Fault.sp_class)
        spec.Fault.sp_prog
        (if at.Fault.at_flagged then "REPRODUCED" else "NOT REPRODUCED")
        desc at.Fault.at_verdict
        (if at.Fault.at_dclass = "" then ""
         else Printf.sprintf " (%s at 0x%x)" at.Fault.at_dclass at.Fault.at_anchor);
      if at.Fault.at_flagged then 0 else 1

(* The oracle sweep over [files] (default: the built-in corpus). *)
let verify ~jobs ~fuel ~tool ~json ~verbose files =
  let programs =
    match files with
    | [] -> List.map (fun (n, e) -> (n, Ok e)) (Corpus.all ())
    | fs -> List.map (fun f -> (Filename.basename f, Sef.load_file f)) fs
  in
  let oracle name =
    if tool = "" then run_identity ~fuel
    else run_tool ~fuel ~tool ~prog:name
  in
  (* fan the per-program verifications across domains; results come back in
     program order, and all counting/printing happens serially after the
     join, so the output is byte-identical whatever EEL_JOBS says. Metrics
     (the ledger's counters included) live in Domain.DLS and merge
     deterministically at the join, so --metrics works at any domain count;
     only --trace (span hierarchies) forces a serial run. *)
  let results =
    Eel_util.Pool.map_list ?jobs
      (fun (name, img) ->
        let outcome =
          match img with Error e -> O_error e | Ok exe -> oracle name exe
        in
        (name, outcome))
      programs
  in
  let equivalent = ref 0
  and truncated = ref 0
  and diverged = ref 0
  and violations = ref 0
  and errors = ref 0 in
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | O_error _ -> incr errors
      | O_report (rp, _) -> (
          match rp.Diffexec.rp_verdict with
          | Diffexec.Equivalent -> incr equivalent
          | Diffexec.Fuel_truncated_equal -> incr truncated
          | Diffexec.Contract_violation -> incr violations
          | Diffexec.Both_fault | Diffexec.Diverged _ -> incr diverged))
    results;
  let json_rows = Buffer.create 1024 in
  if json then (
    List.iter
      (fun (name, outcome) ->
        if Buffer.length json_rows > 0 then Buffer.add_string json_rows ",";
        match outcome with
        | O_error e ->
            Buffer.add_string json_rows
              (Printf.sprintf {|{"program":"%s","error":"%s"}|}
                 (Json.escape name)
                 (Json.escape (Diag.error_message e)))
        | O_report (rp, masked) ->
            Buffer.add_string json_rows
              (Printf.sprintf {|{"program":"%s","report":%s}|}
                 (Json.escape name)
                 (Diffexec.report_to_json ~masked rp)))
      results;
    Printf.printf
      {|{"oracle":"%s","fuel":%d,"programs":[%s],"summary":{"total":%d,"equivalent":%d,"fuel_truncated":%d,"diverged":%d,"contract_violations":%d,"errors":%d}}|}
      (if tool = "" then "identity" else tool)
      fuel (Buffer.contents json_rows) (List.length results) !equivalent
      !truncated !diverged !violations !errors;
    print_newline ())
  else (
    List.iter
      (fun (name, outcome) ->
        match outcome with
        | O_error e ->
            Printf.printf "%-14s ERROR  %s\n" name (Diag.error_message e)
        | O_report (rp, masked) ->
            if verbose || Diffexec.is_divergence rp.Diffexec.rp_verdict then
              Format.printf "%-14s %a%s@." name Diffexec.pp_report rp
                (if masked > 0 then
                   Printf.sprintf " [%d events masked]" masked
                 else "")
            else
              Printf.printf "%-14s %s%s\n" name
                (Diffexec.verdict_name rp.Diffexec.rp_verdict)
                (if masked > 0 then
                   Printf.sprintf " (%d events masked)" masked
                 else ""))
      results;
    Printf.printf
      "eel_diff%s: %d programs: %d equivalent, %d fuel-truncated, %d \
       diverged, %d contract violations, %d errors\n"
      (if tool = "" then "" else " --tool " ^ tool)
      (List.length results) !equivalent !truncated !diverged !violations
      !errors);
  if !diverged > 0 || !violations > 0 || !errors > 0 then 1 else 0

let () =
  let fuel = ref Diffexec.default_fuel in
  let verbose = ref false and json = ref false in
  let tool = ref "" and reproduce_file = ref "" in
  let files = ref [] in
  Cli.main "eel_diff"
    ~usage:
      "eel_diff [--tool NAME] [FILE.sef ...]: differential oracle (default: \
       built-in corpus)"
    ~anon:(fun f -> files := f :: !files)
    ~trace:true
    ~metrics:(Cli.Stdout [ "eel.diff"; "eel.equiv"; "eel.ledger"; "emu.tier2" ])
    ~pool:true
    [
      ( "--fuel",
        Arg.Set_int fuel,
        Printf.sprintf "FUEL shared per-side instruction budget (default %d)"
          Diffexec.default_fuel );
      ( "--tool",
        Arg.Symbol (Toolbox.names, ( := ) tool),
        " verify a real instrumented edit under its contract" );
      ("--json", Arg.Set json, " emit machine-readable JSON verdicts on stdout");
      ("--verbose", Arg.Set verbose, " print event/instruction counts per program");
      ( "--reproduce",
        Arg.Set_string reproduce_file,
        "FILE replay a minimized fault-injection reproducer (JSON artifact \
         written by eel_fuzz --inject); exit 0 iff the fault is still \
         flagged" );
    ]
  @@ fun ctx ->
  if !reproduce_file <> "" then reproduce ~fuel:!fuel !reproduce_file
  else
    verify ~jobs:ctx.Cli.jobs ~fuel:!fuel ~tool:!tool ~json:!json
      ~verbose:!verbose (List.rev !files)
