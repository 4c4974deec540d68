(* Per-layer accounting for the traced run.

   A traced job runs under its own Eel_obs.Trace tracer. The benchmark opens
   a span around each public call it makes into a layer; the program's own
   spans (exe.open, cfg.routine, edit.emit, equiv.run.original, ...) land in
   the same tree. A span's self time is its duration minus its child spans;
   it is charged to the span's layer, or to the nearest ancestor's layer
   when the span names none. The root "job" span charges [other], so the
   layers' self times sum to job time. *)

module Trace = Eel_obs.Trace

let layer_of_span = function
  | "job" -> Some "other"
  | "resolve" -> Some "resolve"
  | "sef.encode" -> Some "sef.encode"
  | "serve.key" -> Some "serve.key"
  | "cache.get" -> Some "cache.get"
  | "cache.put" -> Some "cache.put"
  | "serve.codec" -> Some "serve.codec"
  | "tools.apply" -> Some "tools.apply"
  | "exe.open" -> Some "exe.open"
  | "cfg.routine" | "exe.jump_stats" -> Some "cfg"
  | "edit.finalize" | "edit.emit" -> Some "edit.emit"
  | "equiv.verify" -> Some "diffexec.compare"
  | "equiv.run.original" | "equiv.run.edited" -> Some "emu.run"
  | _ -> None

(* Layers in report order, each with the end-to-end metrics it should move
   and the workload where it should move them. *)
let layers =
  [
    ("resolve", "jobs_per_s, latency_p50_ms on warm_mixed");
    ("sef.encode", "jobs_per_s on warm_mixed");
    ("serve.key", "jobs_per_s on warm_mixed");
    ("cache.get", "jobs_per_s on warm_mixed");
    ("serve.codec", "jobs_per_s, latency_p50_ms on warm_mixed");
    ("cache.put", "jobs_per_s on cold_mixed");
    ("tools.apply", "jobs_per_s, latency_p90_ms on edit_only");
    ("exe.open", "jobs_per_s on edit_only");
    ("cfg", "jobs_per_s on edit_only");
    ("edit.emit", "jobs_per_s on edit_only");
    ("emu.load", "jobs_per_s, latency_p50_ms, peak RSS on cold_mixed; less on long_run");
    ("emu.run", "jobs_per_s on long_run");
    ("diffexec.compare", "jobs_per_s on long_run");
    ("other", "nothing in particular");
  ]

type t = {
  self_ms : (string, float) Hashtbl.t;
  mutable jobs : int;
  mutable job_ms : float;
  mutable resolve_alloc_w : float;
  mutable apply_alloc_w : float;
  mutable sites : int;
  mutable routines : int;
  mutable blocks : int;
  mutable result_lookups : int;
  mutable result_hits : int;
  mutable rf_lookups : int;
  mutable rf_hits : int;
  mutable put_bytes : int;
  mutable bytes_zeroed : int;
  mutable words_predecoded : int;
  mutable words_executed : int;
  mutable run_insns : int;
  mutable events : int;
  mutable masked : int;
  mutable predecode_insns : int;
  mutable predecode_s : float;
  mutable block_insns : int;
  mutable block_s : float;
}

let create () =
  {
    self_ms = Hashtbl.create 16;
    jobs = 0;
    job_ms = 0.;
    resolve_alloc_w = 0.;
    apply_alloc_w = 0.;
    sites = 0;
    routines = 0;
    blocks = 0;
    result_lookups = 0;
    result_hits = 0;
    rf_lookups = 0;
    rf_hits = 0;
    put_bytes = 0;
    bytes_zeroed = 0;
    words_predecoded = 0;
    words_executed = 0;
    run_insns = 0;
    events = 0;
    masked = 0;
    predecode_insns = 0;
    predecode_s = 0.;
    block_insns = 0;
    block_s = 0.;
  }

let charge lx layer ms =
  let v = Option.value (Hashtbl.find_opt lx.self_ms layer) ~default:0. in
  Hashtbl.replace lx.self_ms layer (v +. ms)

let self lx layer = Option.value (Hashtbl.find_opt lx.self_ms layer) ~default:0.

(* Fold one finished job trace into [lx]. Returns how many [exe.open] spans
   the job held: the number of times the editor opened an executable. *)
let add_trace lx (tr : Trace.t) =
  Trace.seal tr;
  let opens = ref 0 in
  let rec walk layer = function
    | Trace.N_instant _ -> ()
    | Trace.N_span sp ->
        let layer = Option.value (layer_of_span sp.Trace.sp_name) ~default:layer in
        let children =
          List.fold_left
            (fun a -> function Trace.N_span c -> a +. c.Trace.sp_dur | _ -> a)
            0. sp.Trace.sp_children
        in
        charge lx layer ((sp.Trace.sp_dur -. children) /. 1e3);
        (match sp.Trace.sp_name with
        | "job" -> lx.job_ms <- lx.job_ms +. (sp.Trace.sp_dur /. 1e3)
        | "resolve" -> lx.resolve_alloc_w <- lx.resolve_alloc_w +. sp.Trace.sp_alloc
        | "tools.apply" -> lx.apply_alloc_w <- lx.apply_alloc_w +. sp.Trace.sp_alloc
        | "exe.open" -> incr opens
        | _ -> ());
        List.iter (walk layer) sp.Trace.sp_children
  in
  List.iter (walk "other") tr.Trace.root.Trace.sp_children;
  lx.jobs <- lx.jobs + 1;
  !opens

(* The oracle loads both images inside its equiv.run.* spans, which charge
   emu.run; move the separately timed load cost to emu.load. *)
let move_load lx ms =
  charge lx "emu.run" (-.ms);
  charge lx "emu.load" ms

let ratio a b = if b = 0. then 0. else a /. b
let per_job lx v = ratio v (float_of_int lx.jobs)

(* Every per-layer metric, in BENCHMARK.json order: (name, unit, value).
   [overhead_jobs_per_s] is traced minus untraced jobs_per_s. *)
let metrics lx ~overhead_jobs_per_s ~peak_rss_mb =
  let ms layer = per_job lx (self lx layer) in
  let f = float_of_int in
  let run_s = self lx "emu.run" /. 1e3 in
  [
    ("resolve.ms_per_job", "ms", ms "resolve");
    ("resolve.alloc_kw_per_job", "kw", per_job lx (lx.resolve_alloc_w /. 1e3));
    ("sef.encode.ms_per_job", "ms", ms "sef.encode");
    ("serve.key.ms_per_job", "ms", ms "serve.key");
    ("cache.get.ms_per_job", "ms", ms "cache.get");
    ("cache.result.hit_rate", "share", ratio (f lx.result_hits) (f lx.result_lookups));
    ("cache.put.ms_per_job", "ms", ms "cache.put");
    ("cache.put.kb_per_job", "kb", per_job lx (f lx.put_bytes /. 1024.));
    ("cache.rf.hit_rate", "share", ratio (f lx.rf_hits) (f lx.rf_lookups));
    ("serve.codec.ms_per_job", "ms", ms "serve.codec");
    ("tools.apply.ms_per_job", "ms", ms "tools.apply");
    ("tools.apply.alloc_kw_per_job", "kw", per_job lx (lx.apply_alloc_w /. 1e3));
    ("tools.sites_per_job", "count", per_job lx (f lx.sites));
    ("exe.open.ms_per_job", "ms", ms "exe.open");
    ("exe.routines_per_job", "count", per_job lx (f lx.routines));
    ("cfg.ms_per_job", "ms", ms "cfg");
    ("cfg.blocks_per_job", "count", per_job lx (f lx.blocks));
    ("edit.emit.ms_per_job", "ms", ms "edit.emit");
    ("emu.load.ms_per_job", "ms", ms "emu.load");
    ("emu.load.kb_zeroed_per_job", "kb", per_job lx (f lx.bytes_zeroed /. 1024.));
    ("emu.load.words_predecoded_per_job", "count", per_job lx (f lx.words_predecoded));
    ("emu.load.predecode_used", "share", ratio (f lx.words_executed) (f lx.words_predecoded));
    ("emu.run.ms_per_job", "ms", ms "emu.run");
    ("emu.run.insns_per_job", "count", per_job lx (f lx.run_insns));
    ("emu.run.mips_profiled", "MIPS", ratio (f lx.run_insns /. 1e6) run_s);
    ("emu.run.mips_predecode", "MIPS", ratio (f lx.predecode_insns /. 1e6) lx.predecode_s);
    ("emu.run.mips_block", "MIPS", ratio (f lx.block_insns /. 1e6) lx.block_s);
    ("diffexec.compare.ms_per_job", "ms", ms "diffexec.compare");
    ("diffexec.events_per_job", "count", per_job lx (f lx.events));
    ("diffexec.masked_per_job", "count", per_job lx (f lx.masked));
    ("other.ms_per_job", "ms", ms "other");
    ("job.ms_per_job", "ms", per_job lx lx.job_ms);
    ("trace.overhead_jobs_per_s", "1/s", overhead_jobs_per_s);
    ("process.peak_rss_mb", "MB", peak_rss_mb);
  ]
