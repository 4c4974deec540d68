(** The rewriting-service engine: resolve a {!Proto.job} to an executable,
    route it through {!Eel_tools.Toolbox.measure} (so every served edit
    passes the contract oracle and lands in the overhead {!Eel_obs.Ledger}),
    and cache at two content-addressed granularities:

    - {b per-routine analysis facts} (namespace ["rf"], via {!Analysis}):
      installed ambiently for the whole batch, so even a cache-missing job
      re-slices only routines whose bytes changed;
    - {b whole-job results} (namespace ["job"]): keyed by a digest of the
      protocol version, tool, fuel/SFI parameters and the full image bytes.
      A hit replays the stored edited image and ledger entry without
      re-running instrument + verify. Only ["equivalent"] verdicts are
      stored — a divergence must re-verify every time, never be served from
      cache.

    Cache-hit responses are byte-identical to cache-miss responses by
    construction (the stored artifact {e is} the miss-path output), and the
    corpus-wide self-differential test pins exactly that. *)

module Toolbox = Eel_tools.Toolbox
module Diffexec = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Sef = Eel_sef.Sef
module Ledger = Eel_obs.Ledger
module Metrics = Eel_obs.Metrics
module Trace = Eel_obs.Trace
module B = Eel_util.Bytebuf
module Os_spec = Eel_os.Spec

type config = {
  c_cache : Cache.t;
  c_use_result : bool;  (** consult/populate the whole-job result cache *)
  c_use_analysis : bool;  (** install the per-routine analysis cache *)
  c_fuel : int;  (** default fuel for jobs that don't set one *)
}

let default_config cache =
  {
    c_cache = cache;
    c_use_result = true;
    c_use_analysis = true;
    c_fuel = Diffexec.default_fuel;
  }

(** What one job produced. [o_edited] is the full serialized edited image
    ([Sef.to_string]); the byte-identity guarantee is stated over it. *)
type outcome = {
  o_verdict : string;
  o_masked : int;
  o_result_hit : bool;  (** served from the result cache *)
  o_edited : string;
  o_entry : Ledger.entry;
}

type result = {
  sr_id : string;
  sr_tool : string;
  sr_prog : string;
  sr_outcome : (outcome, string) Stdlib.result;
}

let serve_metric what = Metrics.incr (Metrics.counter ("eel.serve." ^ what))

(* ---- job resolution ---- *)

(** [resolve j] — the job's executable plus, for OS-mode sources, the
    {!Os_spec} world it runs against. OS-ness is derived from the source
    itself (an [os-*] corpus entry, or gen style ["os"]): the job carries
    no separate world field, so a job line alone fully determines the
    run. *)
let resolve (j : Proto.job) :
    (Sef.t * Os_spec.t option, string) Stdlib.result =
  match j.Proto.j_src with
  | Proto.S_corpus name -> (
      match
        ( List.assoc_opt name Corpus.sources,
          List.assoc_opt name Corpus.os_sources )
      with
      | Some src, _ -> (
          match Eel_sparc.Asm.assemble src with
          | Ok exe -> Ok (exe, None)
          | Error m -> Error (Printf.sprintf "corpus %s: %s" name m))
      | None, Some (src, spec) -> (
          match Eel_sparc.Asm.assemble src with
          | Ok exe -> Ok (exe, Some spec)
          | Error m -> Error (Printf.sprintf "os corpus %s: %s" name m))
      | None, None -> Error (Printf.sprintf "unknown corpus program %S" name))
  | Proto.S_gen { seed; routines; style } when style = "os" -> (
      ignore routines;
      let src, world =
        Eel_workload.Gen.os_program { Eel_workload.Gen.default with seed }
      in
      match Eel_sparc.Asm.assemble src with
      | Ok exe -> Ok (exe, Some (Corpus.spec_of_world world))
      | Error m -> Error (Printf.sprintf "os gen workload: %s" m))
  | Proto.S_gen { seed; routines; style } -> (
      let style =
        if style = "sunpro" then Eel_workload.Gen.Sunpro else Eel_workload.Gen.Gcc
      in
      let src =
        Eel_workload.Gen.program
          { Eel_workload.Gen.default with seed; routines; style }
      in
      match Eel_sparc.Asm.assemble src with
      | Ok exe -> Ok (exe, None)
      | Error m -> Error (Printf.sprintf "gen workload: %s" m))
  | Proto.S_file path -> (
      match Sef.load_file path with
      | Ok exe -> Ok (exe, None)
      | Error e -> Error (Eel_robust.Diag.error_message e))
  | Proto.S_inline raw -> (
      match Sef.load raw with
      | Ok exe -> Ok (exe, None)
      | Error e -> Error (Eel_robust.Diag.error_message e))

(* ---- whole-job result cache ---- *)

let result_ns = "job"
let result_magic = "EELJ2"

(** The result key covers everything that can change the served bytes: the
    artifact version, the tool, every measure parameter, the OS world's
    digest (files, stdin and policy all shift the syscall stream), and the
    entire input image ([Sef.to_string] is canonical, so equal images
    digest equal). *)
let job_key (cfg : config) (j : Proto.job) ?os (image : string) =
  let buf = Buffer.create (String.length image + 64) in
  Buffer.add_string buf result_magic;
  Buffer.add_string buf Eel.Executable.analysis_version;
  B.wstr buf j.Proto.j_tool;
  B.w64 buf (Option.value j.Proto.j_fuel ~default:cfg.c_fuel);
  B.w64 buf (Option.value j.Proto.j_sfi_base ~default:(-1));
  B.w64 buf (Option.value j.Proto.j_sfi_size ~default:(-1));
  B.wstr buf (match os with None -> "" | Some spec -> Os_spec.digest spec);
  Buffer.add_string buf image;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let encode_outcome (o : outcome) =
  let buf = Buffer.create (String.length o.o_edited + 128) in
  Buffer.add_string buf result_magic;
  B.wstr buf o.o_verdict;
  B.w32 buf o.o_masked;
  Ledger.write_counts buf o.o_entry;
  B.w32 buf (String.length o.o_edited);
  Buffer.add_string buf o.o_edited;
  Buffer.contents buf

let decode_outcome ~tool ~prog (s : string) : outcome option =
  match
    let r = B.reader s in
    if B.rbytes r (String.length result_magic) <> Bytes.of_string result_magic
    then None
    else
      let verdict = B.rstr r in
      let masked = B.r32 r in
      let entry = Ledger.read_counts r ~tool ~prog ~verdict in
      let n = B.r32 r in
      let edited = Bytes.to_string (B.rbytes r n) in
      Some
        {
          o_verdict = verdict;
          o_masked = masked;
          o_result_hit = true;
          o_edited = edited;
          o_entry = entry;
        }
  with
  | v -> v
  | exception B.Truncated _ -> None

(* ---- the engine ---- *)

let run_job (cfg : config) (j : Proto.job) : result =
  let prog = Proto.prog_name j in
  Trace.with_span "serve.job"
    ~args:[ ("id", j.Proto.j_id); ("tool", j.Proto.j_tool); ("prog", prog) ]
    (fun () ->
      serve_metric "jobs";
      let outcome =
        match resolve j with
        | Error m ->
            serve_metric "resolve_errors";
            Error m
        | Ok (exe, os) -> (
            let image = Sef.to_string exe in
            let key =
              if cfg.c_use_result then Some (job_key cfg j ?os image) else None
            in
            let cached =
              match key with
              | None -> None
              | Some k ->
                  Option.bind
                    (Cache.get cfg.c_cache ~ns:result_ns k)
                    (decode_outcome ~tool:j.Proto.j_tool ~prog)
            in
            match cached with
            | Some o ->
                serve_metric "result_hits";
                (* a cache hit must leave the same ledger trail as a miss *)
                Ledger.record o.o_entry;
                Ok o
            | None -> (
                serve_metric "result_misses";
                let fuel = Option.value j.Proto.j_fuel ~default:cfg.c_fuel in
                match
                  Toolbox.measure ~fuel ?sfi_base:j.Proto.j_sfi_base
                    ?sfi_size:j.Proto.j_sfi_size ?os ~prog j.Proto.j_tool
                    Eel_sparc.Mach.mach exe
                with
                | Error e ->
                    serve_metric "measure_errors";
                    Error (Eel_robust.Diag.error_message e)
                | Ok ms ->
                    let entry = ms.Toolbox.ms_entry in
                    let o =
                      {
                        o_verdict = entry.Ledger.le_verdict;
                        o_masked = ms.Toolbox.ms_report.Diffexec.er_masked;
                        o_result_hit = false;
                        o_edited = Sef.to_string ms.Toolbox.ms_applied.Toolbox.ap_edited;
                        o_entry = entry;
                      }
                    in
                    (match key with
                    | Some k when o.o_verdict = "equivalent" ->
                        Cache.put cfg.c_cache ~ns:result_ns k (encode_outcome o)
                    | _ -> ());
                    Ok o))
      in
      (match outcome with Error _ -> serve_metric "errors" | Ok _ -> ());
      { sr_id = j.Proto.j_id; sr_tool = j.Proto.j_tool; sr_prog = prog; sr_outcome = outcome })

(** Run a batch across the pool with the analysis cache installed for the
    duration. Results come back in input order (the pool's merge is
    deterministic), so the response stream doesn't depend on [EEL_JOBS]. *)
let run_batch ?jobs (cfg : config) (batch : Proto.job list) : result list =
  let run () = Eel_util.Pool.map_list ?jobs (run_job cfg) batch in
  if cfg.c_use_analysis then (
    Analysis.install cfg.c_cache;
    Fun.protect ~finally:Analysis.uninstall run)
  else run ()

(* ---- the standard mixed corpus ---- *)

(** The deterministic mixed job corpus ([eel_batch], the job benchmark's
    mixed workloads and test_serve share it): every corpus program (base
    and OS-mode) plus a spread of generated workloads (both compiler
    styles and the OS generator, varying sizes), crossed with all 6 tools
    by a stride coprime to the source count so neighbouring jobs differ
    in both tool and program. Fully determined by [(count, seed)]. *)
let mixed_jobs ~count ~seed =
  let gen_variants =
    List.init 9 (fun g ->
        Proto.S_gen
          {
            seed = seed + (17 * g);
            routines = 6 + (g mod 6);
            style = (if g mod 2 = 0 then "gcc" else "sunpro");
          })
  in
  let os_gen_variants =
    List.init 3 (fun g ->
        Proto.S_gen { seed = seed + (5 * g); routines = 0; style = "os" })
  in
  let sources =
    List.map (fun (name, _) -> Proto.S_corpus name) Corpus.sources
    @ List.map (fun (name, _) -> Proto.S_corpus name) Corpus.os_sources
    @ gen_variants @ os_gen_variants
  in
  let sources = Array.of_list sources in
  let n_src = Array.length sources in
  let tools = Array.of_list Toolbox.names in
  List.init count (fun i ->
      {
        Proto.j_id = Printf.sprintf "b%03d" i;
        j_tool = tools.(i mod Array.length tools);
        j_src = sources.((seed + (7 * i)) mod n_src);
        j_fuel = None;
        j_sfi_base = None;
        j_sfi_size = None;
      })

(* ---- response rendering (deterministic: no wall-clock fields) ---- *)

let result_to_line (r : result) =
  match r.sr_outcome with
  | Error m ->
      Printf.sprintf {|{"id": %s, "ok": false, "tool": %s, "prog": %s, "error": %s}|}
        (Proto.json_str r.sr_id) (Proto.json_str r.sr_tool)
        (Proto.json_str r.sr_prog) (Proto.json_str m)
  | Ok o ->
      Printf.sprintf
        {|{"id": %s, "ok": true, "tool": %s, "prog": %s, "verdict": %s, "cached": %b, "masked": %d, "sites": %d, "edited_bytes": %d, "edited_digest": %s, "unexplained": %d}|}
        (Proto.json_str r.sr_id) (Proto.json_str r.sr_tool)
        (Proto.json_str r.sr_prog) (Proto.json_str o.o_verdict) o.o_result_hit
        o.o_masked o.o_entry.Ledger.le_sites (String.length o.o_edited)
        (Proto.json_str (Digest.to_hex (Digest.string o.o_edited)))
        o.o_entry.Ledger.le_unexplained

let ok (r : result) =
  match r.sr_outcome with
  | Ok o -> o.o_verdict = "equivalent"
  | Error _ -> false

let cached (r : result) =
  match r.sr_outcome with Ok o -> o.o_result_hit | Error _ -> false
