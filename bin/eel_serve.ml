(* Rewriting as a service: the batch daemon.

   Reads JSONL jobs ({"id", "tool", one of corpus|file|gen|sef_hex, params};
   see lib/serve/proto.ml) from stdin — or from FILE arguments — shards each
   batch across the Pool, routes every job through Toolbox.measure (contract
   oracle + overhead ledger included), and answers one JSON object per line
   on stdout, in input order. The content-addressed cache (EEL_CACHE_DIR /
   EEL_CACHE_MB, or the flags below) persists per-routine analysis facts and
   whole-job results across invocations, so a warm daemon serves repeat
   images without re-analyzing or re-verifying them.

   Responses are deterministic (no wall-clock fields, stable order at any
   EEL_JOBS); the stderr summary and --stats JSON carry the timing and
   cache-efficiency numbers. Exits 0 iff every job parsed and came back
   "equivalent". *)

module Serve = Eel_service.Serve
module Proto = Eel_service.Proto

let () =
  let batch = ref 64 in
  let out = ref "" in
  let files = ref [] in
  let service = Cli.Service.create () in
  Cli.main "eel_serve"
    ~usage:"eel_serve [options] [JOBS.jsonl ...]  (no files: read jobs from stdin)"
    ~anon:(fun f -> files := f :: !files)
    ([
       ( "--batch",
         Arg.Set_int batch,
         "N jobs buffered per pool dispatch (default 64)" );
       ("--out", Arg.Set_string out, "FILE write responses here instead of stdout");
     ]
    @ Cli.Service.flags service)
  @@ fun _ ->
  let cache, cfg, jobs = Cli.Service.setup service in
  let out_chan = if !out = "" then stdout else open_out !out in
  let t0 = Unix.gettimeofday () in
  let seq = ref 0 in
  let n_ok = ref 0 and n_cached = ref 0 and n_err = ref 0 and n_total = ref 0 in
  let flush_batch pending =
    match List.rev pending with
    | [] -> ()
    | batch ->
        let results = Serve.run_batch ?jobs cfg batch in
        List.iter
          (fun r ->
            incr n_total;
            if Serve.ok r then incr n_ok else incr n_err;
            if Serve.cached r then incr n_cached;
            output_string out_chan (Serve.result_to_line r);
            output_char out_chan '\n')
          results;
        flush out_chan
  in
  let pending = ref [] and n_pending = ref 0 in
  let flush_pending () =
    flush_batch !pending;
    pending := [];
    n_pending := 0
  in
  let feed_line line =
    let line = String.trim line in
    if line <> "" then (
      incr seq;
      (match Proto.job_of_line ~seq:!seq line with
      | Ok job ->
          pending := job :: !pending;
          incr n_pending
      | Error m ->
          (* a bad line is a per-job error response, not a dead daemon;
             the jobs before it answer first *)
          flush_pending ();
          incr n_total;
          incr n_err;
          output_string out_chan
            (Printf.sprintf {|{"id": %s, "ok": false, "error": %s}|}
               (Proto.json_str (Printf.sprintf "job-%d" !seq))
               (Proto.json_str m));
          output_char out_chan '\n';
          flush out_chan);
      if !n_pending >= !batch then flush_pending ())
  in
  let feed_channel ic =
    try
      while true do
        feed_line (input_line ic)
      done
    with End_of_file -> ()
  in
  (match List.rev !files with
  | [] -> feed_channel stdin
  | fs ->
      List.iter
        (fun f ->
          let ic = open_in f in
          Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> feed_channel ic))
        fs);
  flush_batch !pending;
  if !out <> "" then close_out out_chan;
  let dt = Unix.gettimeofday () -. t0 in
  let rate = Cli.Service.rate ~elapsed:dt !n_total in
  let uncached = !n_ok - !n_cached in
  Printf.eprintf
    "eel_serve: %d job(s), %d ok (%d cached, %d computed), %d error(s) in %.2fs (%.1f jobs/s)\n%!"
    !n_total !n_ok !n_cached uncached !n_err dt rate;
  Cli.Service.finish "eel_serve" service cache ~elapsed:dt ~total:!n_total
    ~ok:!n_ok ~cached:!n_cached ~errors:!n_err
