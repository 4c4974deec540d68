(* qpt2 — the EEL-based edge profiler as a command-line tool (paper §5).

   Instruments FILE, writes FILE.count (paper Fig. 1 writes argv[1]
   ".count"), and with --run executes the edited program and prints the
   edge profile. --trace/--metrics expose the instrumentation pipeline's
   phase timeline and the metrics registry (ISSUE 2). *)

module Emu = Eel_emu.Emu
module Qpt2 = Eel_tools.Qpt2
module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics

let () =
  let path = ref None and run_it = ref false and no_fold = ref false in
  Cli.main "qpt2" ~usage:"qpt2 [options] FILE  -- EEL-based edge profiler"
    ~anon:(Cli.one_arg path) ~trace:true ~metrics:Cli.Stderr
    [
      ("--run", Arg.Set run_it, " run and print profile");
      ("--no-fold", Arg.Set no_fold, " disable delay-slot refolding");
    ]
  @@ fun ctx ->
  let path = Cli.the_arg "FILE" path in
  let exe = Trace.with_span "load" (fun () -> Eel_sef.Sef.read_file path) in
  let t0 = Unix.gettimeofday () in
  let prof =
    Trace.with_span "instrument" (fun () ->
        Qpt2.instrument ~fold_delay:(not !no_fold) Eel_sparc.Mach.mach exe)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let out = path ^ ".count" in
  Eel_sef.Sef.write_file out prof.Qpt2.edited;
  Metrics.set (Metrics.gauge "qpt2.counters") (float_of_int (List.length prof.Qpt2.counters));
  Metrics.set (Metrics.gauge "qpt2.skipped_uneditable")
    (float_of_int prof.Qpt2.skipped_uneditable);
  Printf.printf "instrumented %s -> %s: %d counters, %d uneditable edges skipped (%.3fs)\n"
    path out
    (List.length prof.Qpt2.counters)
    prof.Qpt2.skipped_uneditable dt;
  if !run_it then (
    let profile = if ctx.Cli.metrics then Some (Emu.create_profile ()) else None in
    let res, st =
      Trace.with_span "emulate" (fun () -> Emu.run_exe ?profile prof.Qpt2.edited)
    in
    Option.iter Emu.publish_profile profile;
    print_string res.Emu.out;
    Printf.printf "--- edge profile ---\n";
    List.iter
      (fun ((c : Qpt2.counter), n) ->
        if n > 0 then
          Printf.printf "%-20s block %-4d edge %-4d : %d\n" c.Qpt2.c_routine
            c.Qpt2.c_block c.Qpt2.c_edge n)
      (Qpt2.counts prof st.Emu.mem));
  0
