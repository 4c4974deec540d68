(* The job benchmark: four job workloads, each a closed loop with one client
   and one worker (the main domain). The client submits the next job when
   the previous one returns.

     cold_mixed  Serve.mixed_jobs through Serve.run_job, empty cache per pass
     warm_mixed  the same jobs, served from a cache filled during set-up
     long_run    cold verification of seeded loop kernels sent as sef_hex
     edit_only   Toolbox.apply + Sef.to_string on large generated images

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--inject-fail]

   --inject-fail adds a job with an unknown tool, which must fail.

   With --trace 0 one timed phase gives the end-to-end metrics. With
   --trace 1 an untraced phase is followed by a traced one, which gives the
   per-layer metrics. Every job's output is checked; the last line of
   standard output is one JSON object, and any failed check makes the exit
   code 1. *)

module Serve = Eel_service.Serve
module Cache = Eel_service.Cache
module Analysis = Eel_service.Analysis
module Proto = Eel_service.Proto
module Toolbox = Eel_tools.Toolbox
module Diffexec = Eel_diffexec.Diffexec
module Emu = Eel_emu.Emu
module Tier2 = Eel_emu.Tier2
module Sef = Eel_sef.Sef
module Gen = Eel_workload.Gen
module Ledger = Eel_obs.Ledger
module Trace = Eel_obs.Trace
module Diag = Eel_robust.Diag
module E = Eel.Executable

let mach = Eel_sparc.Mach.mach
let now = Unix.gettimeofday

(* ---- helpers ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* Linear interpolation between closest ranks. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let geomean = function
  | [] -> 0.
  | l ->
      exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let assemble what src =
  match Eel_sparc.Asm.assemble src with
  | Ok exe -> exe
  | Error m -> failwith (Printf.sprintf "%s: assembly failed: %s" what m)

let unknown_tool = "no-such-tool"

(* Toolbox.apply as Toolbox.measure calls it: an unknown tool and the front
   end's exceptions both come back as a Diag error. *)
let apply_tool ?sfi_base ?sfi_size tool exe =
  Diag.guard (fun () ->
      match Toolbox.apply ?sfi_base ?sfi_size tool mach exe with
      | Ok ap -> ap
      | Error what -> Diag.fail (Diag.Exe_error { what }))

(* ---- outcomes and runners ---- *)

(* One checked job. [o_error] is [None] when every output check passed. The
   counts are the ledger's: dynamic instructions and Sef.image_size bytes,
   original then edited. *)
type outcome = {
  o_key : string;
  o_error : string option;
  o_insns : int * int;
  o_bytes : int * int;
}

let failed_outcome key msg =
  { o_key = key; o_error = Some msg; o_insns = (0, 0); o_bytes = (0, 0) }

(* A pass runs the workload's jobs once, in order. [job i] runs job [i],
   returning its outcome and its latency in seconds; with a layer
   accumulator the job runs traced and is folded into it. *)
type pass = { job : int -> outcome * float; finish : unit -> unit }
type runner = { per_pass : int; start : Layers.t option -> pass }

type setup = {
  runner : runner;
  s_attempted : int;  (** jobs run and checked during set-up *)
  s_failures : string list;
}

(* ---- the traced job path ----

   Serve.run_job has no spans around its calls into the layers, so
   [traced_job] makes the calls Serve.run_job (and Toolbox.measure inside
   it) makes, in the same order, with a span around each. Its outputs go
   through the same checks as Serve.run_job's, against the same references,
   so a traced path that drifted from run_job would fail the run. *)

type aux = { x_exe : Sef.t; x_ap : Toolbox.applied; x_er : Diffexec.edit_report }

let span = Trace.with_span

(* Run [body] as one job under a fresh tracer and fold its spans into [lx].
   Returns the body's result, the number of exe.open spans and the job's
   latency in seconds. *)
let run_traced lx ~id body =
  let tr = Trace.create () in
  let t0 = now () in
  let r = Trace.with_current tr (fun () -> Trace.span tr ~args:[ ("id", id) ] "job" body) in
  let dt = now () -. t0 in
  (r, Layers.add_trace lx tr, dt)

let traced_job (cfg : Serve.config) lx (j : Proto.job) =
  let tool = j.Proto.j_tool and prog = Proto.prog_name j in
  let aux = ref None in
  let body () =
    match span "resolve" (fun () -> Serve.resolve j) with
    | Error m -> Error m
    | Ok (exe, os) -> (
        let image = span "sef.encode" (fun () -> Sef.to_string exe) in
        let key = span "serve.key" (fun () -> Serve.job_key cfg j ?os image) in
        let blob =
          span "cache.get" (fun () -> Cache.get cfg.Serve.c_cache ~ns:Serve.result_ns key)
        in
        lx.Layers.result_lookups <- lx.Layers.result_lookups + 1;
        let cached =
          Option.bind blob (fun s ->
              span "serve.codec" (fun () -> Serve.decode_outcome ~tool ~prog s))
        in
        match cached with
        | Some o ->
            lx.Layers.result_hits <- lx.Layers.result_hits + 1;
            Ledger.record o.Serve.o_entry;
            Ok o
        | None -> (
            let fuel = Option.value j.Proto.j_fuel ~default:cfg.Serve.c_fuel in
            let applied =
              span "tools.apply" (fun () ->
                  apply_tool ?sfi_base:j.Proto.j_sfi_base ?sfi_size:j.Proto.j_sfi_size tool exe)
            in
            match applied with
            | Error e -> Error (Diag.error_message e)
            | Ok ap -> (
                lx.Layers.sites <- lx.Layers.sites + ap.Toolbox.ap_sites;
                let ap, os_b =
                  match os with
                  | None -> (ap, None)
                  | Some spec ->
                      let ap, spec_b = Toolbox.os_interpose ap spec in
                      (ap, Some spec_b)
                in
                match
                  Diffexec.verify_edit ~fuel ~profiles:true ?os ?os_b
                    ~norm_b:ap.Toolbox.ap_norm_b ~block_of:ap.Toolbox.ap_block_of
                    ~contract:ap.Toolbox.ap_contract exe ap.Toolbox.ap_edited
                with
                | Error e -> Error (Diag.error_message e)
                | Ok er ->
                    aux := Some { x_exe = exe; x_ap = ap; x_er = er };
                    let entry = Toolbox.ledger_entry ~prog ap er exe in
                    Ledger.record entry;
                    let o =
                      {
                        Serve.o_verdict = entry.Ledger.le_verdict;
                        o_masked = er.Diffexec.er_masked;
                        o_result_hit = false;
                        o_edited =
                          span "sef.encode" (fun () -> Sef.to_string ap.Toolbox.ap_edited);
                        o_entry = entry;
                      }
                    in
                    if o.Serve.o_verdict = "equivalent" then begin
                      let blob = span "serve.codec" (fun () -> Serve.encode_outcome o) in
                      span "cache.put" (fun () ->
                          Cache.put cfg.Serve.c_cache ~ns:Serve.result_ns key blob)
                    end;
                    Ok o)))
  in
  let outcome, opens, dt = run_traced lx ~id:j.Proto.j_id body in
  let result =
    { Serve.sr_id = j.Proto.j_id; sr_tool = tool; sr_prog = prog; sr_outcome = outcome }
  in
  (result, !aux, opens, dt)

(* The analysis-fact hooks Analysis.install sets, with the rf namespace's
   Cache.get and Cache.put spanned and counted. *)
let install_traced_analysis cache lx =
  E.set_analysis_cache
    (Some
       {
         E.ac_lookup =
           (fun digest ->
             lx.Layers.rf_lookups <- lx.Layers.rf_lookups + 1;
             match span "cache.get" (fun () -> Cache.get cache ~ns:Analysis.ns digest) with
             | None -> None
             | Some blob ->
                 lx.Layers.rf_hits <- lx.Layers.rf_hits + 1;
                 Analysis.decode blob);
         ac_store =
           (fun digest tables ->
             let blob = Analysis.encode tables in
             span "cache.put" (fun () -> Cache.put cache ~ns:Analysis.ns digest blob));
       })

(* Routines and basic blocks EEL finds in an image, counted once per
   program with the analysis cache switched off. *)
let cfg_counts =
  let memo = Hashtbl.create 64 in
  fun prog exe ->
    match Hashtbl.find_opt memo prog with
    | Some c -> c
    | None ->
        let saved = Atomic.get E.analysis_cache in
        E.set_analysis_cache None;
        let c =
          Fun.protect
            ~finally:(fun () -> E.set_analysis_cache saved)
            (fun () ->
              match E.open_exe mach exe with
              | Error _ -> (0, 0)
              | Ok t ->
                  let js = E.jump_stats t in
                  (js.E.js_routines, (E.cfg_stats t).Eel.Cfg.s_blocks))
        in
        Hashtbl.add memo prog c;
        c

let add_cfg_counts lx ~opens prog exe =
  if opens > 0 then (
    let routines, blocks = cfg_counts prog exe in
    lx.Layers.routines <- lx.Layers.routines + (opens * routines);
    lx.Layers.blocks <- lx.Layers.blocks + (opens * blocks))

(* The oracle's two loads, outside the job: Diffexec.execute calls Emu.load
   directly, so the job path has no span for them. *)
let time_loads lx (x : aux) =
  let orig = x.x_exe and edited = x.x_ap.Toolbox.ap_edited in
  let ha, hb = Diffexec.equalized_headroom orig edited in
  let t0 = now () in
  let a = Emu.load ~headroom:ha orig in
  let b = Emu.load ~headroom:hb edited in
  Layers.move_load lx ((now () -. t0) *. 1e3);
  lx.Layers.bytes_zeroed <-
    lx.Layers.bytes_zeroed + Bytes.length a.Emu.mem + Bytes.length b.Emu.mem;
  lx.Layers.words_predecoded <-
    lx.Layers.words_predecoded + Array.length a.Emu.code + Array.length b.Emu.code;
  let er = x.x_er in
  let executed = function
    | Some p -> Hashtbl.length p.Emu.p_pc_counts
    | None -> 0
  in
  lx.Layers.words_executed <-
    lx.Layers.words_executed + executed er.Diffexec.er_profile_orig
    + executed er.Diffexec.er_profile_edit;
  let rp = er.Diffexec.er_report in
  let ia, ib = rp.Diffexec.rp_insns and ea, eb = rp.Diffexec.rp_events in
  lx.Layers.run_insns <- lx.Layers.run_insns + ia + ib;
  lx.Layers.events <- lx.Layers.events + ea + eb;
  lx.Layers.masked <- lx.Layers.masked + er.Diffexec.er_masked

(* Unprofiled Emu.run on both images, predecoded and on the block tier,
   beside the profiled runs the oracle made. *)
let time_tiers lx ~fuel (x : aux) =
  let orig = x.x_exe and edited = x.x_ap.Toolbox.ap_edited in
  let ha, hb = Diffexec.equalized_headroom orig edited in
  let run ~block headroom img =
    let m = Emu.load ~headroom img in
    if block then ignore (Tier2.attach m);
    let t0 = now () in
    (try ignore (Emu.run ~fuel m) with Emu.Fault _ | Emu.Out_of_fuel -> ());
    (now () -. t0, Emu.insns_executed m)
  in
  List.iter
    (fun (headroom, img) ->
      let s, n = run ~block:false headroom img in
      lx.Layers.predecode_s <- lx.Layers.predecode_s +. s;
      lx.Layers.predecode_insns <- lx.Layers.predecode_insns + n;
      let s, n = run ~block:true headroom img in
      lx.Layers.block_s <- lx.Layers.block_s +. s;
      lx.Layers.block_insns <- lx.Layers.block_insns + n)
    [ (ha, orig); (hb, edited) ]

(* ---- Serve.run_job workloads ---- *)

let check_serve refs (j : Proto.job) (r : Serve.result) =
  let key = j.Proto.j_id in
  match r.Serve.sr_outcome with
  | Error m -> failed_outcome key m
  | Ok o ->
      let e = o.Serve.o_entry in
      let error =
        if o.Serve.o_verdict <> "equivalent" then Some ("verdict " ^ o.Serve.o_verdict)
        else if e.Ledger.le_unexplained <> 0 then
          Some (Printf.sprintf "%d unexplained store insns" e.Ledger.le_unexplained)
        else
          let digest = Digest.string o.Serve.o_edited in
          match Hashtbl.find_opt refs key with
          | Some d when d <> digest -> Some "edited bytes differ from the reference"
          | Some _ -> None
          | None ->
              Hashtbl.add refs key digest;
              None
      in
      {
        o_key = key;
        o_error = error;
        o_insns = (e.Ledger.le_insns_orig, e.Ledger.le_insns_edited);
        o_bytes = (e.Ledger.le_bytes_orig, e.Ledger.le_bytes_edited);
      }

(* [fresh]: every pass starts from an empty cache directory (cold jobs);
   otherwise each pass opens a new Cache.t on the directory filled during
   set-up, as a restarted daemon would. [refs] maps a job id to the digest
   of the edited bytes every later run of it must reproduce. *)
let serve_runner ?(tiers = false) ~dir ~fresh ~refs jobs =
  let jobs = Array.of_list jobs in
  let start traced =
    if fresh then (rm_rf dir; mkdir_p dir);
    let cache = Cache.create ~dir () in
    let cfg = Serve.default_config cache in
    (match traced with
    | None -> Analysis.install cache
    | Some lx -> install_traced_analysis cache lx);
    let job i =
      let j = jobs.(i) in
      match traced with
      | None ->
          let t0 = now () in
          let r = Serve.run_job cfg j in
          let dt = now () -. t0 in
          (check_serve refs j r, dt)
      | Some lx ->
          let r, aux, opens, dt = traced_job cfg lx j in
          Option.iter
            (fun x ->
              time_loads lx x;
              add_cfg_counts lx ~opens (Proto.prog_name j) x.x_exe;
              if tiers then
                time_tiers lx ~fuel:(Option.value j.Proto.j_fuel ~default:cfg.Serve.c_fuel) x)
            aux;
          (check_serve refs j r, dt)
    in
    let finish () =
      Analysis.uninstall ();
      Option.iter
        (fun lx ->
          lx.Layers.put_bytes <- lx.Layers.put_bytes + (Cache.snapshot cache).Cache.sn_store_bytes)
        traced;
      if fresh then rm_rf dir
    in
    { job; finish }
  in
  { per_pass = Array.length jobs; start }

(* Resolve every job once before timing, so inputs that cannot be built
   fail in set-up rather than in the timed phase. *)
let preflight jobs =
  List.filter_map
    (fun j ->
      match Serve.resolve j with
      | Ok _ -> None
      | Error m -> Some (Printf.sprintf "%s: %s" j.Proto.j_id m))
    jobs

let inject ~inject_fail jobs =
  match jobs with
  | j :: _ when inject_fail ->
      { j with Proto.j_id = "injected-failure"; j_tool = unknown_tool } :: jobs
  | _ -> jobs

(* One period of the mixed corpus's stride: 102 distinct (tool, program)
   pairs, covering all 34 programs and all 6 tools. Which half of the 204
   pairs a period holds depends only on the parity of the corpus seed, so
   the corpus seed is kept even: every --seed runs the same pairs, and only
   the generated programs differ. *)
let mixed ~seed = Serve.mixed_jobs ~count:102 ~seed:(2 * seed)

let setup_cold ~work ~seed ~inject_fail =
  let jobs = inject ~inject_fail (mixed ~seed) in
  let failures = preflight jobs in
  let runner =
    serve_runner ~dir:(Filename.concat work "cold-cache") ~fresh:true
      ~refs:(Hashtbl.create 128) jobs
  in
  { runner; s_attempted = 0; s_failures = failures }

let setup_warm ~work ~seed ~inject_fail =
  let jobs = inject ~inject_fail (mixed ~seed) in
  let failures = preflight jobs in
  let dir = Filename.concat work "warm-cache" in
  rm_rf dir;
  let refs = Hashtbl.create 128 in
  let fill = serve_runner ~dir ~fresh:false ~refs jobs in
  let p = fill.start None in
  let fill_failures =
    List.mapi (fun i j -> (j, fst (p.job i))) jobs
    |> List.filter_map (fun (j, o) ->
           Option.map (Printf.sprintf "fill %s: %s" j.Proto.j_id) o.o_error)
  in
  p.finish ();
  let runner = serve_runner ~dir ~fresh:false ~refs jobs in
  { runner; s_attempted = fill.per_pass; s_failures = failures @ fill_failures }

(* Fuel for long_run jobs: ten times the longest edited run (about 4.5M
   instructions), so every kernel exits. *)
let long_fuel = 50_000_000

(* Job [i] of a tools x programs pass: the tool cycles fastest and each
   block of |tools| jobs shifts the program, so every pair occurs once and
   any prefix of the pass mixes programs. *)
let crossed tools progs =
  let nt = List.length tools and np = List.length progs in
  List.init (nt * np) (fun i ->
      (List.nth tools (i mod nt), List.nth progs ((i + (i / nt)) mod np)))

let setup_long ~work ~seed ~inject_fail =
  let images =
    List.map
      (fun sh ->
        let src = Kernels.source ~seed sh in
        (sh.Kernels.k_name, Sef.to_string (assemble sh.Kernels.k_name src)))
      Kernels.shapes
  in
  (* the jobs arrive as protocol lines with the image inline (sef_hex) *)
  let jobs =
    List.mapi
      (fun i (tool, (name, raw)) ->
        let line =
          Proto.job_to_line
            {
              Proto.j_id = Printf.sprintf "k%02d-%s-%s" i name tool;
              j_tool = tool;
              j_src = Proto.S_inline raw;
              j_fuel = Some long_fuel;
              j_sfi_base = None;
              j_sfi_size = None;
            }
        in
        match Proto.job_of_line ~seq:i line with
        | Ok j -> j
        | Error m -> failwith ("long_run job line: " ^ m))
      (crossed Toolbox.names images)
  in
  let jobs = inject ~inject_fail jobs in
  let failures = preflight jobs in
  let runner =
    serve_runner ~tiers:true ~dir:(Filename.concat work "long-cache") ~fresh:true
      ~refs:(Hashtbl.create 32) jobs
  in
  { runner; s_attempted = 0; s_failures = failures }

(* ---- edit_only ---- *)

let edit_routines = 200

type edit_ref = { r_digest : Digest.t; r_insns : int * int; r_bytes : int * int }

let setup_edit ~seed ~inject_fail =
  let progs =
    List.map
      (fun (style, name, s) ->
        let cfg = { Gen.default with Gen.seed = s; routines = edit_routines; style } in
        (Printf.sprintf "%s-s%d-r%d" name s edit_routines, assemble name (Gen.program cfg)))
      [ (Gen.Gcc, "gcc", seed); (Gen.Sunpro, "sunpro", seed + 1) ]
  in
  let pairs = crossed Toolbox.names progs in
  let verified = List.length pairs in
  let refs = Hashtbl.create 16 and failures = ref [] in
  List.iter
    (fun (tool, (prog, exe)) ->
      let key = tool ^ "/" ^ prog in
      match Toolbox.measure ~prog tool mach exe with
      | Error e -> failures := (key ^ ": " ^ Diag.error_message e) :: !failures
      | Ok ms ->
          let e = ms.Toolbox.ms_entry in
          if e.Ledger.le_verdict <> "equivalent" || e.Ledger.le_unexplained <> 0 then
            failures :=
              Printf.sprintf "%s: reference verdict %s, %d unexplained" key
                e.Ledger.le_verdict e.Ledger.le_unexplained
              :: !failures
          else
            Hashtbl.replace refs key
              {
                r_digest = Digest.string (Sef.to_string ms.Toolbox.ms_applied.Toolbox.ap_edited);
                r_insns = (e.Ledger.le_insns_orig, e.Ledger.le_insns_edited);
                r_bytes = (e.Ledger.le_bytes_orig, e.Ledger.le_bytes_edited);
              })
    pairs;
  let pairs =
    if inject_fail then (unknown_tool, List.hd progs) :: pairs else pairs
  in
  let jobs = Array.of_list pairs in
  let check key = function
    | Error m -> failed_outcome key m
    | Ok edited -> (
        match Hashtbl.find_opt refs key with
        | None -> failed_outcome key "no verified reference"
        | Some r ->
            {
              o_key = key;
              o_error =
                (if Digest.string edited = r.r_digest then None
                 else Some "edited image differs from the verified reference");
              o_insns = r.r_insns;
              o_bytes = r.r_bytes;
            })
  in
  let start traced =
    E.set_analysis_cache None;
    let job i =
      let tool, (prog, exe) = jobs.(i) in
      let key = tool ^ "/" ^ prog in
      match traced with
      | None ->
          let t0 = now () in
          let r =
            Result.map (fun ap -> Sef.to_string ap.Toolbox.ap_edited) (apply_tool tool exe)
          in
          let dt = now () -. t0 in
          (check key (Result.map_error Diag.error_message r), dt)
      | Some lx ->
          let r, opens, dt =
            run_traced lx ~id:key (fun () ->
                match span "tools.apply" (fun () -> apply_tool tool exe) with
                | Error e -> Error (Diag.error_message e)
                | Ok ap ->
                    lx.Layers.sites <- lx.Layers.sites + ap.Toolbox.ap_sites;
                    Ok (span "sef.encode" (fun () -> Sef.to_string ap.Toolbox.ap_edited)))
          in
          add_cfg_counts lx ~opens prog exe;
          (check key r, dt)
    in
    { job; finish = ignore }
  in
  {
    runner = { per_pass = Array.length jobs; start };
    s_attempted = verified;
    s_failures = List.rev !failures;
  }

(* ---- timed phases ---- *)

type phase = {
  lat : float array;  (** per-job latency, seconds, sorted *)
  failed : int;
  distinct : (string, outcome) Hashtbl.t;  (** first outcome of each job *)
}

(* Run passes back to back until [seconds] of wall time have gone by; the
   job in flight at the deadline completes and counts. *)
let run_phase runner ~seconds ~traced =
  let deadline = now () +. seconds in
  let lat = ref [] and failed = ref 0 and distinct = Hashtbl.create 128 in
  let rec passes () =
    let p = runner.start traced in
    let rec go i =
      if i < runner.per_pass && now () < deadline then (
        let o, dt = p.job i in
        lat := dt :: !lat;
        (match o.o_error with
        | Some m ->
            incr failed;
            Printf.eprintf "FAILED %s: %s\n%!" o.o_key m
        | None -> ());
        if not (Hashtbl.mem distinct o.o_key) then Hashtbl.add distinct o.o_key o;
        go (i + 1))
    in
    go 0;
    p.finish ();
    if now () < deadline then passes ()
  in
  passes ();
  { lat = sorted_array !lat; failed = !failed; distinct }

let jobs_per_s ph =
  let busy = Array.fold_left ( +. ) 0. ph.lat in
  if busy = 0. then 0. else float_of_int (Array.length ph.lat) /. busy

(* Geometric means over the distinct jobs that passed their checks. *)
let ratios ph =
  let good =
    Hashtbl.fold (fun _ o acc -> if o.o_error = None then o :: acc else acc) ph.distinct []
  in
  let r (a, b) = if a = 0 then None else Some (float_of_int b /. float_of_int a) in
  ( geomean (List.filter_map (fun o -> r o.o_insns) good),
    geomean (List.filter_map (fun o -> r o.o_bytes) good),
    List.length good )

(* ---- output ---- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_num v) unit)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed body;
  print_newline ()

(* ---- main ---- *)

let workloads = [ "cold_mixed"; "warm_mixed"; "long_run"; "edit_only" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (cold_mixed|warm_mixed|long_run|edit_only) --seed N \
     --seconds S --trace 0|1 [--inject-fail]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let inject_fail = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--inject-fail" :: rest -> inject_fail := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  let workload = !workload and seed = !seed and seconds = !seconds in
  let inject_fail = !inject_fail in
  let work_root = ".jobbench_work" in
  let work = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  mkdir_p work;
  let cleanup () =
    rm_rf work;
    (* shared by concurrent runs: removed only once empty *)
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  in
  let failed = Fun.protect ~finally:cleanup @@ fun () ->
  let setup () =
    match workload with
    | "cold_mixed" -> setup_cold ~work ~seed ~inject_fail
    | "warm_mixed" -> setup_warm ~work ~seed ~inject_fail
    | "long_run" -> setup_long ~work ~seed ~inject_fail
    | _ -> setup_edit ~seed ~inject_fail
  in
  (* Set up at least three times and for at least two seconds, and report
     the median. The warm cache fill is itself a full cold pass of the
     corpus, so warm_mixed sets up once. *)
  let rec setups acc =
    let t0 = now () in
    let s = setup () in
    let acc = (now () -. t0, s) :: acc in
    let k = List.length acc and total = List.fold_left (fun a (d, _) -> a +. d) 0. acc in
    if workload = "warm_mixed" || (k >= 3 && total >= 2.0) || k >= 40 then acc
    else setups acc
  in
  let done_setups = setups [] in
  let reps = List.length done_setups in
  let setup_s = quantile (sorted_array (List.map fst done_setups)) 0.5 in
  let s = snd (List.hd done_setups) in
  List.iter (fun m -> Printf.eprintf "FAILED set-up %s\n%!" m) s.s_failures;
  Printf.printf "workload %s, seed %d: closed loop, 1 client, 1 worker domain, %.0f s timed\n"
    workload seed seconds;
  (* the timed phase starts from a collected heap: set-up garbage is not
     the workload's *)
  Gc.full_major ();
  let untraced = run_phase s.runner ~seconds ~traced:None in
  let n = Array.length untraced.lat in
  let setup_failed = List.length s.s_failures in
  let line name unit v note = Printf.printf "  %-34s %14.4f %-6s %s\n" name v unit note in
  if !trace = 0 then (
    let attempted = s.s_attempted + n and failed = setup_failed + untraced.failed in
    let insns_ratio, bytes_ratio, n_distinct = ratios untraced in
    let p90 = quantile untraced.lat 0.9 in
    let beyond = Array.fold_left (fun a x -> if x > p90 then a + 1 else a) 0 untraced.lat in
    let distinct = Printf.sprintf "(geomean over %d distinct jobs)" n_distinct in
    let rows =
      [
        ("jobs_per_s", "1/s", jobs_per_s untraced, Printf.sprintf "(%d jobs)" n);
        ("latency_p50_ms", "ms", 1e3 *. quantile untraced.lat 0.5, Printf.sprintf "(n=%d)" n);
        ("latency_p90_ms", "ms", 1e3 *. p90, Printf.sprintf "(n=%d, %d beyond)" n beyond);
        ("setup_s", "s", setup_s, Printf.sprintf "(median of %d set-ups)" reps);
        ("edited_insns_ratio", "ratio", insns_ratio, distinct);
        ("edited_bytes_ratio", "ratio", bytes_ratio, distinct);
      ]
    in
    List.iter (fun (name, unit, v, note) -> line name unit v note) rows;
    (* not bounded end-to-end metrics: failed_share is 0 when the benchmark
       passes, and the high-water mark moves with GC timing *)
    line "failed_share" "share"
      (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted)
      (Printf.sprintf "(%d of %d)" failed attempted);
    line "peak_rss_mb" "MB" (peak_rss_mb ()) "(VmHWM of the whole run)";
    print_result ~correct:(failed = 0) ~attempted ~failed
      (List.map (fun (name, unit, v, _) -> (name, unit, v)) rows);
    failed)
  else (
    let lx = Layers.create () in
    let traced = run_phase s.runner ~seconds ~traced:(Some lx) in
    let attempted = s.s_attempted + n + Array.length traced.lat in
    let failed = setup_failed + untraced.failed + traced.failed in
    let plain = jobs_per_s untraced and with_spans = jobs_per_s traced in
    let metrics =
      Layers.metrics lx ~overhead_jobs_per_s:(with_spans -. plain) ~peak_rss_mb:(peak_rss_mb ())
    in
    let job_ms = Layers.per_job lx lx.Layers.job_ms in
    Printf.printf "  %d traced jobs; jobs_per_s %.3f untraced, %.3f traced\n" lx.Layers.jobs plain
      with_spans;
    Printf.printf "  %-18s %10s %7s   %s\n" "layer (self time)" "ms/job" "share" "should move";
    List.iter
      (fun (layer, moves) ->
        let ms = Layers.per_job lx (Layers.self lx layer) in
        Printf.printf "  %-18s %10.4f %6.1f%%   %s\n" layer ms (100. *. Layers.ratio ms job_ms)
          moves)
      Layers.layers;
    List.iter (fun (name, unit, v) -> line name unit v "") metrics;
    print_result ~correct:(failed = 0) ~attempted ~failed metrics;
    failed)
  in
  if failed > 0 then exit 1
