(* Batch driver for the rewriting service: generates a deterministic mixed
   job corpus (all 6 tools x corpus programs + generated workloads), runs it
   through the same engine as eel_serve (Pool-sharded, contract-verified,
   content-addressed cache), and prints a per-tool summary table. --emit
   writes the corpus as JSONL instead, which pipes straight into eel_serve.

   Artifacts: --out (response JSONL), --report (summary JSON), --stats
   (cache + throughput JSON). Exits 0 iff every job came back "equivalent"
   (and, under --expect-cached, every one was served from the cache). *)

module Serve = Eel_service.Serve
module Proto = Eel_service.Proto
module Toolbox = Eel_tools.Toolbox
module Ledger = Eel_obs.Ledger

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* Run the corpus through the service engine, print the per-tool table and
   write the --out / --report / --stats artifacts. *)
let run service ~count ~seed ~out ~report batch =
  let cache, cfg, jobs = Cli.Service.setup service in
  let t0 = Unix.gettimeofday () in
  let results = Serve.run_batch ?jobs cfg batch in
  let dt = Unix.gettimeofday () -. t0 in
  if out <> "" then write_lines out (List.map Serve.result_to_line results);
  (* per-tool rollup *)
  let by_tool =
    List.map
      (fun tool ->
        let rs = List.filter (fun r -> r.Serve.sr_tool = tool) results in
        let ok = List.filter Serve.ok rs in
        let cached = List.filter Serve.cached rs in
        let sum f =
          List.fold_left
            (fun a r ->
              match r.Serve.sr_outcome with Ok o -> a + f o | Error _ -> a)
            0 rs
        in
        ( tool,
          List.length rs,
          List.length ok,
          List.length cached,
          sum (fun o -> o.Serve.o_entry.Ledger.le_sites),
          sum (fun o -> o.Serve.o_masked) ))
      Toolbox.names
  in
  Printf.printf "tool      jobs    ok  cached   sites  masked\n";
  Printf.printf "--------  ----  ----  ------  ------  ------\n";
  List.iter
    (fun (tool, n, ok, cached, sites, masked) ->
      Printf.printf "%-8s  %4d  %4d  %6d  %6d  %6d\n" tool n ok cached sites
        masked)
    by_tool;
  let n_total = List.length results in
  let n_ok = List.length (List.filter Serve.ok results) in
  let n_cached = List.length (List.filter Serve.cached results) in
  let n_err = n_total - n_ok in
  let rate = Cli.Service.rate ~elapsed:dt n_total in
  Printf.printf "--------  ----  ----  ------  ------  ------\n";
  Printf.printf "total     %4d  %4d  %6d\n" n_total n_ok n_cached;
  Printf.eprintf "eel_batch: %d job(s), %d ok (%d cached), %d failed in %.2fs (%.1f jobs/s)\n%!"
    n_total n_ok n_cached n_err dt rate;
  let report_json =
    let tool_json =
      String.concat ", "
        (List.map
           (fun (tool, n, ok, cached, sites, masked) ->
             Printf.sprintf
               {|%s: {"jobs": %d, "ok": %d, "cached": %d, "sites": %d, "masked": %d}|}
               (Proto.json_str tool) n ok cached sites masked)
           by_tool)
    in
    Printf.sprintf
      {|{"count": %d, "seed": %d, "ok": %d, "cached": %d, "errors": %d, "elapsed_s": %.3f, "jobs_per_s": %.2f, "by_tool": {%s}}|}
      count seed n_ok n_cached n_err dt rate tool_json
  in
  if report <> "" then write_lines report [ report_json ];
  List.iter
    (fun r ->
      match r.Serve.sr_outcome with
      | Error m -> Printf.eprintf "  %s (%s/%s): error: %s\n" r.Serve.sr_id r.Serve.sr_tool r.Serve.sr_prog m
      | Ok o when o.Serve.o_verdict <> "equivalent" ->
          Printf.eprintf "  %s (%s/%s): verdict %s\n" r.Serve.sr_id r.Serve.sr_tool r.Serve.sr_prog o.Serve.o_verdict
      | Ok _ -> ())
    results;
  Cli.Service.finish "eel_batch" service cache ~elapsed:dt ~total:n_total
    ~ok:n_ok ~cached:n_cached ~errors:n_err

let () =
  let count = ref 100 in
  let seed = ref 42 in
  let emit = ref "" in
  let out = ref "" in
  let report = ref "" in
  let service = Cli.Service.create () in
  Cli.main "eel_batch"
    ~usage:"eel_batch [options]  -- run a deterministic mixed job corpus through the service"
    ~metrics:(Cli.Stdout [ "emu.tier2" ])
    ([
       ("--gen", Arg.Set_int count, "N number of jobs in the corpus (default 100)");
       ("--seed", Arg.Set_int seed, "S corpus mix seed (default 42)");
       ( "--emit",
         Arg.Set_string emit,
         "FILE write the job corpus as JSONL (for eel_serve) and exit" );
       ("--out", Arg.Set_string out, "FILE write per-job response JSONL");
       ("--report", Arg.Set_string report, "FILE write the summary report JSON");
     ]
    @ Cli.Service.flags service)
  @@ fun _ ->
  let batch = Serve.mixed_jobs ~count:!count ~seed:!seed in
  if !emit <> "" then (
    write_lines !emit (List.map Proto.job_to_line batch);
    Printf.eprintf "eel_batch: wrote %d job(s) to %s\n%!" !count !emit;
    0)
  else run service ~count:!count ~seed:!seed ~out:!out ~report:!report batch
