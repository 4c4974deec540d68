(** A chunked domain pool: deterministic data-parallel [map] over OCaml 5
    domains.

    Every verification pipeline in this repository — the fuzz corpus, the
    differential oracle over the example programs, the contract sweeps in
    the benchmark harness — is a map of an expensive, independent job over
    an ordered work list. This module runs such maps across cores while
    keeping the {e observable result serial}: results come back indexed by
    job, so drivers that print or aggregate in job order produce
    byte-identical output whatever the domain count.

    Work is split into [jobs] contiguous chunks (chunk [k] covers items
    [n*k/jobs, n*(k+1)/jobs)); chunk 0 runs on the calling domain, the rest
    each on a freshly spawned domain. Contiguous chunking (rather than
    striding) matters for the join hooks below: merging worker state in
    chunk order reproduces the serial left-to-right order of side effects.

    The domain count defaults to [Domain.recommended_domain_count ()],
    overridable with the [EEL_JOBS] environment variable (and per call with
    [?jobs]). [EEL_JOBS=1] (or one core) degrades to a plain in-domain
    [Array.map] — no domains are spawned at all.

    {1 Join hooks}

    Jobs mutate per-domain ambient state — the {!Eel_obs.Metrics} registry
    is domain-local — and that state must survive the join. A hook
    registered with {!on_join} runs in each worker domain after its chunk
    finishes and returns a {e merge thunk}; the pool runs the merge thunks
    on the calling domain, in chunk order, before [map] returns. [Metrics]
    registers its snapshot/absorb pair this way at start-up, so callers
    never thread registries by hand; anything else a job measures comes
    back as its result.

    Exceptions: a job that raises aborts the whole map — the worker's
    exception is re-raised on the calling domain by [Domain.join]. Jobs
    are expected to return errors as data (the never-crash convention). *)

(* Registered at module-init time (main domain), read-only afterwards:
   registration from inside a running pool is not supported. *)
let hooks : (unit -> unit -> unit) list ref = ref []

(** [on_join capture] registers a per-worker state capture. After a worker
    finishes its chunk, [capture ()] runs {e in the worker} and returns a
    thunk the pool runs {e in the caller} (in chunk order) to merge the
    worker's ambient state back. Call this only from module initializers. *)
let on_join f = hooks := !hooks @ [ f ]

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 && n <= 256 -> Some n
  | _ -> None

(** The [EEL_JOBS] override, when set and sane (1..256). *)
let env_jobs () = Option.bind (Sys.getenv_opt "EEL_JOBS") parse_jobs

(** {1 Cgroup CPU quota}

    In a container, [Domain.recommended_domain_count] reports the host's
    cores; a CI job pinned to 2 CPUs on a 64-core machine would spawn 64
    domains contending for 2 cores' worth of quota. When a cgroup CPU
    limit is visible, clamp to [ceil(quota / period)] — the number of
    cores the scheduler will actually grant. *)

(** [parse_cpu_max line] parses cgroup v2's [cpu.max] ("max 100000" or
    "25000 100000") into a core count, ceiling-divided so a fractional
    quota still gets one domain. *)
let parse_cpu_max line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "max"; _ ] | [ "max" ] -> None
  | quota :: period :: _ -> (
      match (int_of_string_opt quota, int_of_string_opt period) with
      | Some q, Some p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
      | _ -> None)
  | _ -> None

(** [parse_cfs ~quota ~period] parses cgroup v1's [cpu.cfs_quota_us] /
    [cpu.cfs_period_us] pair ([-1] quota means unlimited). *)
let parse_cfs ~quota ~period =
  match (int_of_string_opt (String.trim quota), int_of_string_opt (String.trim period)) with
  | Some q, Some p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
  | _ -> None

let read_line_of path =
  try
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    Some line
  with Sys_error _ -> None

let cgroup_quota () =
  match read_line_of "/sys/fs/cgroup/cpu.max" with
  | Some line -> parse_cpu_max line
  | None -> (
      match
        ( read_line_of "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
          read_line_of "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
      with
      | Some quota, Some period -> parse_cfs ~quota ~period
      | _ -> None)

(** [recommended_domain_count ()] — the runtime's recommendation clamped
    to the cgroup CPU quota when one is present, never less than 1. *)
let recommended_domain_count () =
  let n = max 1 (Domain.recommended_domain_count ()) in
  match cgroup_quota () with Some q -> max 1 (min n q) | None -> n

(** Domains a pool map will use by default: [EEL_JOBS] if set, otherwise
    {!recommended_domain_count}. *)
let default_jobs () =
  match env_jobs () with Some n -> n | None -> recommended_domain_count ()

(** [map ?jobs f items] — [Array.map f items] fanned out across domains.
    Results are in item order regardless of the domain count. *)
let map ?jobs f (items : 'a array) : 'b array =
  let n = Array.length items in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let w = min jobs n in
  if w <= 1 then Array.map f items
  else begin
    let bounds k = (n * k / w, n * (k + 1) / w) in
    let chunk k =
      let lo, hi = bounds k in
      Array.init (hi - lo) (fun i -> f items.(lo + i))
    in
    let work k () =
      let out = chunk k in
      (* capture per-domain ambient state while still on the worker *)
      let merges = List.map (fun capture -> capture ()) !hooks in
      (out, merges)
    in
    let domains = Array.init (w - 1) (fun k -> Domain.spawn (work (k + 1))) in
    (* chunk 0 runs here: its side effects land directly in the caller's
       ambient state, in serial order, before any worker merge. If it
       raises, every spawned domain is still joined first — no domain is
       left running past the map. *)
    let first = try Ok (chunk 0) with e -> Error e in
    let rest =
      Array.to_list
        (Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains)
    in
    let ok = function Ok v -> v | Error e -> raise e in
    let first = ok first in
    let rest = List.map ok rest in
    List.iter (fun (_, merges) -> List.iter (fun m -> m ()) merges) rest;
    Array.concat (first :: List.map fst rest)
  end

(** List version of {!map}; same ordering guarantee. *)
let map_list ?jobs f items =
  Array.to_list (map ?jobs f (Array.of_list items))
