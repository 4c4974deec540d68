(* Perf-regression gate (`make perf-regress`): measure a fresh perf point
   with the same kernel as the perf experiment (Perf_common) and judge it
   against the committed baseline BENCH_perf.json; the checks and their
   thresholds are Perf_gate's. Every run appends one JSONL line to a
   trajectory history, so drift is visible over time, not just
   run-to-run.

   Environment: EEL_PERF_BASELINE (default BENCH_perf.json),
   EEL_REGRESS_TOL (default 0.12), EEL_REGRESS_SCALING=skip,
   EEL_PERF_HISTORY (default _build/perf-history.jsonl), plus
   Perf_common's EEL_PERF_BUDGET / EEL_PERF_HANDICAP. `regress
   --write-baseline FILE` measures and writes a fresh baseline instead of
   comparing. *)

let fail_usage () =
  prerr_endline "usage: regress [--write-baseline FILE]";
  exit 2

let getenv_f name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

(* --- history --------------------------------------------------------- *)

let append_history ~pass ~baseline th =
  let path =
    match Sys.getenv_opt "EEL_PERF_HISTORY" with
    | Some p -> p
    | None -> "_build/perf-history.jsonl"
  in
  (try
     let dir = Filename.dirname path in
     if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
       Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  try
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc
      "{\"ts\": %.0f, \"speedup\": %.3f, \"speedup_block\": %.3f, \
       \"mips_on\": %.2f, \"mips_off\": %.2f, \"mips_block\": %.2f, \
       \"smoke\": %b, \"baseline\": \"%s\", \"pass\": %b}\n"
      (Unix.time ())
      (Perf_common.speedup th)
      (Perf_common.speedup_block th)
      (Perf_common.mips th th.Perf_common.th_on)
      (Perf_common.mips th th.Perf_common.th_off)
      (Perf_common.mips th th.Perf_common.th_block)
      (Perf_common.smoke ()) baseline pass;
    close_out oc
  with Sys_error m -> Printf.eprintf "regress: history append failed: %s\n" m

(* --- main ------------------------------------------------------------ *)

let () =
  let write_baseline = ref "" in
  (match Array.to_list Sys.argv with
  | [ _ ] -> ()
  | [ _; "--write-baseline"; f ] -> write_baseline := f
  | _ -> fail_usage ());
  let smoke = Perf_common.smoke () in
  if !write_baseline <> "" then begin
    let th = Perf_common.measure_throughput ~smoke () in
    (* scaling points are optional in a baseline; a gate run against one
       without them just skips the scaling checks *)
    let sc =
      {
        Perf_common.sc_sweep_jobs = 0;
        sc_fuel = 0;
        sc_cores = Domain.recommended_domain_count ();
        sc_points = [];
      }
    in
    let oc = open_out !write_baseline in
    output_string oc
      (Perf_common.trajectory_json ~cores:sc.Perf_common.sc_cores ~smoke th sc);
    close_out oc;
    Printf.printf "regress: wrote baseline %s (speedup %.2fx)\n"
      !write_baseline (Perf_common.speedup th);
    exit 0
  end;
  let baseline_path =
    match Sys.getenv_opt "EEL_PERF_BASELINE" with
    | Some p -> p
    | None -> "BENCH_perf.json"
  in
  let base =
    try
      let ic = open_in_bin baseline_path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Perf_gate.parse_baseline src
    with
    | Sys_error m ->
        Printf.eprintf "regress: cannot read baseline %s: %s\n" baseline_path m;
        exit 2
    | Failure m ->
        Printf.eprintf "regress: %s: %s\n" baseline_path m;
        exit 2
  in
  let tol = getenv_f "EEL_REGRESS_TOL" 0.12 in
  let report (c : Perf_gate.check) =
    Printf.printf "%-34s %s  %s\n" c.Perf_gate.c_name
      (Perf_gate.verdict_name c.Perf_gate.c_verdict)
      c.Perf_gate.c_detail
  in
  Printf.printf "perf-regress: baseline %s (cores %d), %s budget, tol %.0f%%\n"
    baseline_path base.Perf_gate.b_cores
    (if smoke then "smoke" else "full")
    (tol *. 100.);
  let th = Perf_common.measure_throughput ~smoke () in
  let checks =
    Perf_gate.throughput_checks ~tol base
      {
        Perf_gate.f_speedup = Perf_common.speedup th;
        f_speedup_block = Perf_common.speedup_block th;
        f_mips_on = Perf_common.mips th th.Perf_common.th_on;
      }
  in
  List.iter report checks;
  (* scaling: only meaningful with real cores and an uncontended baseline *)
  let cores = Domain.recommended_domain_count () in
  let checks =
    match
      Perf_gate.scaling_skip ~cores
        ~skip:(Sys.getenv_opt "EEL_REGRESS_SCALING" = Some "skip")
        base
    with
    | Some why ->
        Printf.printf "%-34s SKIP  %s\n" "scaling speedup per domain count" why;
        checks
    | None ->
        let sc =
          Perf_common.measure_scaling ~smoke
            ~jobs_list:(Perf_gate.scaling_jobs ~cores base)
            ()
        in
        let scaling =
          Perf_gate.scaling_checks base
            (List.map
               (fun (j, t) -> (j, Perf_common.point_speedup sc t))
               sc.Perf_common.sc_points)
        in
        List.iter report scaling;
        checks @ scaling
  in
  let failures = Perf_gate.failures checks in
  let pass = failures = [] in
  append_history ~pass ~baseline:baseline_path th;
  if pass then print_endline "perf-regress: PASS"
  else begin
    Printf.printf "perf-regress: FAIL (%s)\n"
      (String.concat ", " failures);
    exit 1
  end
