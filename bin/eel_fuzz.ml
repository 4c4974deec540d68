(* Fault-injection fuzz driver: the executable form of the never-crash
   contract. A well-formed workload executable is mutated [--count] times
   (deterministically from [--seed], cycling through every mutation class),
   and each mutant is pushed through the full front end: SEF load, symbol
   refinement, CFG construction for every routine (hidden-routine queue
   drained), then a no-op edit + layout + output-image build. Each mutant
   must either succeed or be rejected with a structured [Diag.error] — any
   other exception is a crash, reported with its backtrace, and the driver
   exits 1.

   Per-class outcomes land in the metrics registry as
   fuzz.<class>.{survived,degraded,rejected} counters (survived = loaded
   with no diagnostics, degraded = loaded but some analysis was degraded,
   rejected = structured refusal) and are reported as a table at the end —
   the coverage signal the ROADMAP's coverage-guided mutation item needs.
   --metrics dumps the registry at the end (works at any EEL_JOBS — metrics
   merge at pool joins); --trace FILE writes the whole corpus run as a
   Chrome trace timeline and pins the sweep to one domain, since span
   hierarchies don't cross domains. *)

module Sef = Eel_sef.Sef
module Diag = Eel_robust.Diag
module Mutate = Eel_mutate.Mutate
module Sched = Eel_mutate.Sched
module Diffexec = Eel_diffexec.Diffexec
module Toolbox = Eel_tools.Toolbox
module E = Eel.Executable
module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics
module Fault = Eel_mutate.Fault

type outcome =
  | Ok_load of int  (** diagnostics count *)
  | Rejected of Diag.error
  | Crashed of string

(* The load -> CFG -> edit pipeline under test. [jump_stats] forces every
   routine's CFG (draining the hidden-routine discovery queue);
   [to_edited_sef] performs the no-op edit, layout and invariant-verified
   image build. *)
let pipeline bytes =
  let diag = Diag.create () in
  match Sef.load ~diag bytes with
  | Error e -> Rejected e
  | Ok exe -> (
      let budget = Diag.budget ~stage:"fuzz" (8 * 1024 * 1024) in
      match E.open_exe ~diag ~budget Eel_sparc.Mach.mach exe with
      | Error e -> Rejected e
      | Ok t -> (
          match
            Diag.guard (fun () ->
                ignore (E.jump_stats t);
                ignore (E.to_edited_sef t ()))
          with
          | Ok () -> Ok_load (Diag.count diag)
          | Error e -> Rejected e))

let run_one bytes =
  try pipeline bytes with
  | Stack_overflow -> Crashed "Stack_overflow"
  | exn ->
      Crashed
        (Printf.sprintf "%s\n%s" (Printexc.to_string exn)
           (Printexc.get_backtrace ()))

let outcome_slots = [ "survived"; "degraded"; "rejected" ]

let class_counter kind slot =
  Metrics.counter (Printf.sprintf "fuzz.%s.%s" kind slot)

(* one cell of the per-class outcome table, read back from the registry *)
let read_slot kind slot =
  match Metrics.find (Printf.sprintf "fuzz.%s.%s" kind slot) with
  | Some (Metrics.Int n) -> n
  | _ -> 0

(* ---- differential mode (--diff) ----------------------------------

   Each mutant's coverage signature is what it exercised end to end: the
   structured rejection kind when the front end refused it, or — when the
   identity round-trip ran — whether the mutant's no-op-edited image is
   event-equivalent to the mutant itself, and how it diverged if not.
   The blind pass replays Mutate.corpus's class cycle; the guided pass
   closes the loop through Sched, biasing the mutation budget toward the
   classes still discovering new signatures. *)

let diff_signature ~fuel ~tool bytes =
  let diag = Diag.create () in
  match Sef.load ~diag bytes with
  | Error e -> "rejected:" ^ Diag.error_kind e
  | Ok exe ->
      if tool = "" then (
        let budget = Diag.budget ~stage:"fuzz-diff" (8 * 1024 * 1024) in
        match
          Diffexec.identity_roundtrip ~fuel ~diag ~budget
            ~mach:Eel_sparc.Mach.mach exe
        with
        | Error e -> "rejected:" ^ Diag.error_kind e
        | Ok rp ->
            (if Diag.count diag = 0 then "ok:" else "degraded:")
            ^ Diffexec.coverage_signature rp)
      else (
        (* contract-oracle mode: instrument the mutant with the named tool
           and require masked-event equivalence under its contract *)
        match
          Diag.guard (fun () ->
              match Toolbox.apply tool Eel_sparc.Mach.mach exe with
              | Ok ap -> ap
              | Error m -> Diag.fail (Diag.Exe_error { what = m }))
        with
        | Error e -> "rejected:" ^ Diag.error_kind e
        | Ok ap -> (
            match
              Diffexec.verify_edit ~fuel ~norm_b:ap.Toolbox.ap_norm_b
                ~block_of:ap.Toolbox.ap_block_of
                ~contract:ap.Toolbox.ap_contract exe ap.Toolbox.ap_edited
            with
            | Error e -> "rejected:" ^ Diag.error_kind e
            | Ok er ->
                (if Diag.count diag = 0 then "ok:" else "degraded:")
                ^ Diffexec.coverage_signature er.Diffexec.er_report))

let diff_slots =
  [
    "survived"; "degraded"; "rejected"; "equivalent"; "fuel-eq"; "diverged";
    "both-fault"; "contract";
  ]

(* signature -> the outcome-table slots it lands in *)
let diff_slots_of signature =
  let has_prefix p =
    String.length signature >= String.length p
    && String.sub signature 0 (String.length p) = p
  in
  let front =
    if has_prefix "ok:" then [ "survived" ]
    else if has_prefix "degraded:" then [ "degraded" ]
    else if has_prefix "rejected:" then [ "rejected" ]
    else []
  in
  let verdict =
    match String.index_opt signature ':' with
    | None -> []
    | Some i -> (
        let v = String.sub signature (i + 1) (String.length signature - i - 1) in
        let vp p = String.length v >= String.length p && String.sub v 0 (String.length p) = p in
        if v = "equivalent" then [ "equivalent" ]
        else if v = "fuel-truncated-equal" then [ "fuel-eq" ]
        else if vp "both-fault" then [ "both-fault" ]
        else if vp "contract-violation" then [ "contract" ]
        else if vp "diverged" then [ "diverged" ]
        else [])
  in
  front @ verdict

(* ---- adversarial campaign (--inject) ------------------------------
   Seeded faults on all three attack surfaces; the acceptance bar is 100%
   detection, zero crashes and a clean corpus sweep. Minimized reproducers
   land in [out_dir] as JSON artifacts (CI uploads them). *)
let inject ~seed ~fuel ~budget ~out_dir ~verbose =
  let o = Fault.campaign ~seed ~fuel ~budget () in
  let rec mkdirs d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then (
      mkdirs (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ())
  in
  mkdirs out_dir;
  List.iteri
    (fun i (r : Fault.repro) ->
      let path =
        Filename.concat out_dir
          (Printf.sprintf "repro-%02d-%s-%s.json" i r.Fault.rx_tool
             (Fault.class_name r.Fault.rx_class))
      in
      let oc = open_out path in
      output_string oc (Fault.repro_to_json r);
      output_char oc '\n';
      close_out oc)
    o.Fault.o_repros;
  Printf.printf "eel_fuzz --inject: seed %d, fuel %d, hunt budget %d\n\n" seed
    fuel budget;
  Printf.printf "%-8s %-14s %-9s %6s %8s  %s\n" "tool" "fault class" "surface"
    "sites" "caught" "verdict";
  List.iter
    (fun (c : Fault.cell) ->
      Printf.printf "%-8s %-14s %-9s %6d %8s  %s\n" c.Fault.cl_tool
        (Fault.class_name c.Fault.cl_class)
        (Fault.surface c.Fault.cl_class)
        c.Fault.cl_sites
        (if c.Fault.cl_flagged then "yes" else "MISSED")
        c.Fault.cl_verdict)
    o.Fault.o_cells;
  Printf.printf "\ndetection: %d/%d cells flagged; %d minimized reproducers in %s\n"
    o.Fault.o_caught o.Fault.o_injected
    (List.length o.Fault.o_repros)
    out_dir;
  Printf.printf "guided hunt: %d distinct violation signatures in %d attempts\n"
    o.Fault.o_hunt_distinct o.Fault.o_hunt_attempts;
  Printf.printf "clean sweep: %d trials, %d false violations\n"
    o.Fault.o_clean_total o.Fault.o_clean_bad;
  Printf.printf "environment sweep: %d trials\n" o.Fault.o_env_trials;
  Printf.printf "crashes anywhere: %d\n" o.Fault.o_crashes;
  if verbose then
    List.iter
      (fun (r : Fault.repro) ->
        Printf.printf "  repro %s/%s sites=[%s] %s (%s @0x%x): %s\n"
          r.Fault.rx_tool
          (Fault.class_name r.Fault.rx_class)
          (String.concat "," (List.map string_of_int r.Fault.rx_sites))
          r.Fault.rx_verdict r.Fault.rx_dclass r.Fault.rx_anchor r.Fault.rx_desc)
      o.Fault.o_repros;
  if Fault.passed o then (
    print_string "PASS: every seeded fault detected, no crashes\n";
    0)
  else (
    print_string "FAIL: missed faults, crashes or false violations\n";
    1)

(* ---- differential mode (--diff): blind vs coverage-guided ---------- *)
let diff_run ~jobs ~seed ~count ~fuel ~tool ~verbose base =
  let crashed = ref 0 in
  (* strict gate: a mutant whose instrumented edit violates its tool's
     contract is a finding, not a statistic — the run must fail *)
  let violations = ref 0 in
  let count_violation s =
    if List.mem "contract" (diff_slots_of s) then incr violations
  in
  (* run the oracle, returning any crash as data: the blind pass runs in
     pool workers, which must not mutate shared counters or print *)
  let signature i kind bytes =
    try (diff_signature ~fuel ~tool bytes, None) with
    | Stack_overflow -> ("crash", Some "")
    | exn ->
        ( "crash",
          Some
            (Printf.sprintf "%4d %-22s CRASH: %s\n%s\n" i (Mutate.name kind)
               (Printexc.to_string exn)
               (Printexc.get_backtrace ())) )
  in
  let absorb_crash = function
    | None -> ()
    | Some msg ->
        incr crashed;
        if msg <> "" then print_string msg
  in
  (* pass 1: the blind schedule — Mutate.corpus's class cycle, signatures
     collected but no scheduling feedback. Mutants are independent and the
     signature {e set} is order-blind, so this pass fans out across
     domains; crash accounting happens serially after the join. *)
  let blind_sigs = Hashtbl.create 64 in
  List.iter
    (fun (s, crash) ->
      absorb_crash crash;
      count_violation s;
      Hashtbl.replace blind_sigs s ())
    (Eel_util.Pool.map_list ?jobs
       (fun (i, kind, bytes) -> signature i kind bytes)
       (Mutate.corpus ~seed ~count base));
  (* pass 2: coverage-guided — same seed, same budget, class picked per
     round by discovery rate. Inherently serial: each round's class choice
     depends on every earlier round's discoveries. *)
  let sched = Sched.create () in
  ignore
    (Sched.guided sched ~seed ~count base ~run:(fun i kind bytes ->
         let s, crash = signature i kind bytes in
         absorb_crash crash;
         count_violation s;
         let kname = Mutate.name kind in
         List.iter
           (fun slot -> Metrics.incr (class_counter kname slot))
           (diff_slots_of s);
         if verbose then Printf.printf "%4d %-22s %s\n" i kname s;
         s));
  let nb = Hashtbl.length blind_sigs and ng = Sched.distinct sched in
  Metrics.set (Metrics.gauge "eel.diff.cover.blind") (float_of_int nb);
  Metrics.set (Metrics.gauge "eel.diff.cover.guided") (float_of_int ng);
  Printf.printf "eel_fuzz --diff%s: %d mutants (seed %d), per-side fuel %d\n"
    (if tool = "" then "" else " --tool " ^ tool)
    count seed fuel;
  Printf.printf "%-22s %9s %9s %9s %10s %9s %9s %10s %9s %9s\n"
    "mutation class" "survived" "degraded" "rejected" "equivalent" "fuel-eq"
    "diverged" "both-fault" "contract" "attempts";
  List.iter
    (fun kind ->
      let kname = Mutate.name kind in
      match List.map (read_slot kname) diff_slots with
      | [ s; d; r; eq; fe; dv; bf; cv ] ->
          Printf.printf "%-22s %9d %9d %9d %10d %9d %9d %10d %9d %9d\n" kname s
            d r eq fe dv bf cv
            (Sched.attempts_of sched kind)
      | _ -> assert false)
    Mutate.all;
  Printf.printf "coverage (distinct signatures): blind %d, guided %d%s\n" nb ng
    (if ng > nb then " — guided found more" else "");
  if verbose then
    List.iter
      (fun s -> Printf.printf "  guided signature: %s\n" s)
      (Sched.signatures sched);
  if !violations > 0 then
    Printf.printf "contract violations found: %d (failing the run)\n"
      !violations;
  if !crashed > 0 || !violations > 0 then 1 else 0

(* ---- the never-crash corpus (default mode) ------------------------- *)
let fuzz ~jobs ~seed ~count ~verbose base =
  let corpus = Mutate.corpus ~seed ~count base in
  (* mutants are independent: the pipeline runs fan out across domains and
     return outcomes in corpus order; counting, the per-class table and all
     printing happen serially after the join, so output and metrics are
     byte-identical whatever EEL_JOBS says *)
  let outcomes =
    Eel_util.Pool.map_list ?jobs
      (fun (i, kind, bytes) ->
        let kname = Mutate.name kind in
        let o =
          Trace.with_span (Printf.sprintf "mutant:%s" kname)
            ~args:[ ("index", string_of_int i) ]
            (fun () -> run_one bytes)
        in
        (i, kname, o))
      corpus
  in
  let ok = ref 0 and rejected = ref 0 and crashed = ref 0 in
  List.iter
    (fun (i, kname, outcome) ->
      match outcome with
      | Ok_load ndiag ->
          incr ok;
          Metrics.incr
            (class_counter kname (if ndiag = 0 then "survived" else "degraded"));
          if verbose then
            Printf.printf "%4d %-22s ok (%d diagnostics)\n" i kname ndiag
      | Rejected e ->
          incr rejected;
          Metrics.incr (class_counter kname "rejected");
          if verbose then
            Printf.printf "%4d %-22s rejected: %s\n" i kname
              (Diag.error_message e)
      | Crashed msg ->
          incr crashed;
          Printf.printf "%4d %-22s CRASH: %s\n" i kname msg)
    outcomes;
  Printf.printf "eel_fuzz: %d mutants (seed %d): %d ok, %d rejected, %d crashed\n"
    (List.length corpus) seed !ok !rejected !crashed;
  (* per-class outcome table, read back from the metrics registry *)
  let classes =
    List.sort_uniq compare (List.map (fun (_, k, _) -> Mutate.name k) corpus)
  in
  Printf.printf "%-22s %9s %9s %9s\n" "mutation class" "survived" "degraded"
    "rejected";
  List.iter
    (fun kname ->
      match List.map (read_slot kname) outcome_slots with
      | [ s; d; r ] -> Printf.printf "%-22s %9d %9d %9d\n" kname s d r
      | _ -> assert false)
    classes;
  if !crashed > 0 then 1 else 0

let () =
  let count = ref 200 and seed = ref 42 and routines = ref 12 in
  let verbose = ref false in
  let diff = ref false and fuel = ref 300_000 in
  let tool = ref "" in
  let inject_mode = ref false and out_dir = ref "_build/inject" in
  let budget = ref 48 in
  Cli.main "eel_fuzz"
    ~usage:"eel_fuzz: assert the front end never crashes on mutated executables"
    ~trace:true
    ~metrics:(Cli.Stdout [ "fuzz."; "eel."; "emu.tier2." ])
    ~pool:true
    [
      ("--count", Arg.Set_int count, "NUMBER of mutants (default 200)");
      ("--seed", Arg.Set_int seed, "SEED for mutation and the base workload (default 42)");
      ("--routines", Arg.Set_int routines, "ROUTINES in the base workload (default 12)");
      ("--verbose", Arg.Set verbose, " print one line per mutant");
      ( "--diff",
        Arg.Set diff,
        " run the differential oracle per mutant; compare blind vs \
         coverage-guided scheduling" );
      ( "--fuel",
        Arg.Set_int fuel,
        "FUEL per-side instruction budget in --diff mode (default 300000)" );
      ( "--tool",
        Arg.Symbol (Toolbox.names, ( := ) tool),
        " in --diff mode, verify a real instrumented edit of each mutant \
         under the tool's contract" );
      ( "--inject",
        Arg.Set inject_mode,
        " run the adversarial fault-injection campaign (tool x fault-class \
         detection matrix, guided hunt, clean and environment sweeps)" );
      ( "--out",
        Arg.Set_string out_dir,
        "DIR for minimized violation reproducers in --inject mode (default \
         _build/inject)" );
      ( "--budget",
        Arg.Set_int budget,
        "ATTEMPTS for the guided hunt in --inject mode (default 48)" );
    ]
  @@ fun ctx ->
  if !inject_mode then (
    (* mirror the EEL_JOBS notice: poke plans need per-instruction
       interpretation, which silently drops the affected runs to tier-1 *)
    Printf.eprintf
      "eel_fuzz: --inject arms poke plans (tier-2 block engine off for those \
       trials)\n";
    inject ~seed:!seed ~fuel:!fuel ~budget:!budget ~out_dir:!out_dir
      ~verbose:!verbose)
  else
    let base =
      Eel_workload.Gen.assemble_program
        { Eel_workload.Gen.default with seed = !seed; routines = !routines }
    in
    if !diff then
      diff_run ~jobs:ctx.Cli.jobs ~seed:!seed ~count:!count ~fuel:!fuel
        ~tool:!tool ~verbose:!verbose base
    else fuzz ~jobs:ctx.Cli.jobs ~seed:!seed ~count:!count ~verbose:!verbose base
