(* The command-line harness every binary in bin/ runs under: one parser
   (Stdlib.Arg), one definition of --trace FILE and --metrics, one error
   exit.

   A binary hands [main] its name, its flags and a body that returns the
   process exit code. [main] parses the command line, installs the ambient
   tracer when --trace is given, runs the body, and then — on every exit
   path, errors included — prints the metrics and writes the trace.

   Exit convention: a bad flag, a bad flag value, or [Arg.Bad] raised by
   the body is a usage error and exits 2. A [Diag.Error], an emulator
   fault or fuel exhaustion, or a [Sys_error] (an unreadable input, an
   unwritable output path) prints one "<tool>: <message>" line on stderr
   and exits 1. Anything else is a bug and escapes with its backtrace. *)

module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics

(** What a binary's body learns from the harness. *)
type ctx = {
  tracing : bool;  (** --trace FILE was given *)
  metrics : bool;  (** --metrics was given *)
  jobs : int option;
      (** the [?jobs] to hand {!Eel_util.Pool}: [Some 1] while tracing,
          since span hierarchies don't cross domains *)
}

(** Where --metrics prints the registry. *)
type metrics =
  | Stderr  (** every metric, on stderr *)
  | Stdout of string list  (** the metrics under these prefixes, on stdout *)

(** An [~anon] handler for a binary's single positional argument. *)
let one_arg r a =
  match !r with
  | None -> r := Some a
  | Some _ -> raise (Arg.Bad ("unexpected argument " ^ a))

(** The single positional argument, or a usage error naming it. *)
let the_arg docv r =
  match !r with Some a -> a | None -> raise (Arg.Bad ("missing " ^ docv))

let error_message = function
  | Eel_robust.Diag.Error e -> Some (Eel_robust.Diag.error_message e)
  | Eel_emu.Emu.Fault m -> Some ("fault: " ^ m)
  | Eel_emu.Emu.Out_of_fuel -> Some "out of fuel"
  | Sys_error m -> Some m
  | _ -> None

(** [main name specs body] parses [Sys.argv] against [specs] (plus --trace
    when [trace], plus --metrics when [metrics] says where to print), runs
    [body] and exits with its result. [anon] receives the positional
    arguments (default: none accepted); [pool] says the binary fans out
    over the domain pool, so --trace prints the [EEL_JOBS=1] notice. *)
let main name ?(usage = name ^ " [options]") ?anon ?(trace = false) ?metrics
    ?(pool = false) specs body =
  Printexc.record_backtrace true;
  let trace_file = ref "" and show_metrics = ref false in
  let trace_flag =
    ("--trace", Arg.Set_string trace_file, "FILE write a Chrome trace_event JSON timeline")
  in
  let metrics_flag where =
    ("--metrics", Arg.Set show_metrics, " print the metrics registry " ^ where ^ " at exit")
  in
  let specs =
    specs
    @ (if trace then [ trace_flag ] else [])
    @
    match metrics with
    | None -> []
    | Some Stderr -> [ metrics_flag "on stderr" ]
    | Some (Stdout only) ->
        [ metrics_flag (Printf.sprintf "(%s*) on stdout" (String.concat "* " only)) ]
  in
  let anon =
    match anon with
    | Some f -> f
    | None -> fun a -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  let argv = Array.copy Sys.argv in
  argv.(0) <- name;
  (try Arg.parse_argv argv (Arg.align specs) anon usage with
  | Arg.Help text ->
      print_string text;
      exit 0
  | Arg.Bad text ->
      prerr_string text;
      exit 2);
  let tracer = if !trace_file = "" then None else Some (Trace.create ()) in
  Trace.set_current tracer;
  if tracer <> None && pool then
    Printf.eprintf
      "%s: --trace forces EEL_JOBS=1 (span hierarchies don't cross domains)\n%!"
      name;
  let ctx =
    {
      tracing = tracer <> None;
      metrics = !show_metrics;
      jobs = (if tracer = None then None else Some 1);
    }
  in
  let finish () =
    (match metrics with
    | Some Stderr when !show_metrics ->
        Metrics.pp Format.err_formatter ();
        Format.pp_print_flush Format.err_formatter ()
    | Some (Stdout only) when !show_metrics ->
        Metrics.pp ~only Format.std_formatter ();
        Format.pp_print_flush Format.std_formatter ()
    | _ -> ());
    Option.iter (fun tr -> Trace.write_chrome_json tr !trace_file) tracer
  in
  let outcome =
    try Ok (body ctx) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* a failing finish reports its own error only when the body succeeded *)
  let outcome =
    match finish () with
    | () -> outcome
    | exception e when Result.is_ok outcome ->
        Error (e, Printexc.get_raw_backtrace ())
    | exception _ -> outcome
  in
  match outcome with
  | Ok code -> exit code
  | Error (Arg.Bad m, _) ->
      Printf.eprintf "%s: %s\n" name m;
      exit 2
  | Error (e, bt) -> (
      match error_message e with
      | Some m ->
          Printf.eprintf "%s: %s\n" name m;
          exit 1
      | None -> Printexc.raise_with_backtrace e bt)

(** The service flags, engine set-up and stats file eel_batch and
    eel_serve share. *)
module Service = struct
  module Serve = Eel_service.Serve
  module Cache = Eel_service.Cache

  type t = {
    cache_dir : string ref;
    cache_mb : int ref;
    jobs : int ref;
    fuel : int ref;
    stats : string ref;
    no_result : bool ref;
    no_analysis : bool ref;
    expect_cached : bool ref;
  }

  let create () =
    {
      cache_dir = ref "";
      cache_mb = ref 0;
      jobs = ref 0;
      fuel = ref Eel_diffexec.Diffexec.default_fuel;
      stats = ref "";
      no_result = ref false;
      no_analysis = ref false;
      expect_cached = ref false;
    }

  let flags s =
    [
      ( "--cache-dir",
        Arg.Set_string s.cache_dir,
        "DIR durable cache directory (default $EEL_CACHE_DIR; unset: memory-only)"
      );
      ( "--cache-mb",
        Arg.Set_int s.cache_mb,
        "MB disk cache budget (default $EEL_CACHE_MB, else 256)" );
      ( "--jobs",
        Arg.Set_int s.jobs,
        "N worker domains per batch (default $EEL_JOBS, else cores)" );
      ( "--fuel",
        Arg.Set_int s.fuel,
        Printf.sprintf "FUEL default per-job instruction budget (default %d)"
          Eel_diffexec.Diffexec.default_fuel );
      ( "--stats",
        Arg.Set_string s.stats,
        "FILE write cache + throughput stats JSON on exit" );
      ( "--no-result-cache",
        Arg.Set s.no_result,
        " disable the whole-job result cache (analysis cache stays on)" );
      ( "--no-analysis-cache",
        Arg.Set s.no_analysis,
        " disable the per-routine analysis cache" );
      ( "--expect-cached",
        Arg.Set s.expect_cached,
        " fail if any successful job was not served from the result cache" );
    ]

  (** The cache, the engine configuration and the pool width the flags
      ask for. *)
  let setup s =
    let cache =
      Cache.create
        ?dir:(if !(s.cache_dir) = "" then None else Some !(s.cache_dir))
        ?disk_budget_bytes:
          (if !(s.cache_mb) > 0 then Some (!(s.cache_mb) * 1024 * 1024)
           else None)
        ()
    in
    let cfg =
      {
        (Serve.default_config cache) with
        Serve.c_use_result = not !(s.no_result);
        c_use_analysis = not !(s.no_analysis);
        c_fuel = !(s.fuel);
      }
    in
    (cache, cfg, if !(s.jobs) > 0 then Some !(s.jobs) else None)

  let rate ~elapsed n = if elapsed > 0.0 then float_of_int n /. elapsed else 0.0

  (** Write --stats, then turn the tallies into the exit code: 1 if a job
      failed or, under --expect-cached, missed the result cache. *)
  let finish name s cache ~elapsed ~total ~ok ~cached ~errors =
    if !(s.stats) <> "" then begin
      let oc = open_out !(s.stats) in
      Printf.fprintf oc
        {|{"jobs": %d, "ok": %d, "cached": %d, "errors": %d, "elapsed_s": %.3f, "jobs_per_s": %.2f, "cache": %s}|}
        total ok cached errors elapsed (rate ~elapsed total)
        (Cache.stats_json cache);
      output_char oc '\n';
      close_out oc
    end;
    if !(s.expect_cached) && ok - cached > 0 then begin
      Printf.eprintf "%s: --expect-cached: %d job(s) missed the result cache\n%!"
        name (ok - cached);
      1
    end
    else if errors > 0 then 1
    else 0
end
