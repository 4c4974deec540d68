(** A typed metrics registry: named counters and gauges.

    This is the uniform introspection surface the tools and the benchmark
    harness read instead of ad-hoc mutable records scattered per module;
    the paper's object-allocation figures are its [eel.stats.*] counters.
    A counter is a plain [int ref]: hot paths look it up once and bump the
    ref.

    Registration is idempotent by name: [counter "x"] returns the existing
    counter on the second call, and raises [Invalid_argument] if "x" is
    already registered as a different metric kind.

    The registry is {e domain-local}: each domain sees (and mutates) its
    own registry, so jobs fanned out through {!Eel_util.Pool} can bump
    counters without locks or races. The pool merges worker registries
    back into the caller's at join time — in chunk order, via the
    {!snapshot}/{!absorb} pair registered as a pool join hook below — so a
    parallel run's final registry matches the serial run's: counters
    accumulate, gauges keep the last chunk that set them. It is the only
    per-domain state the pool merges. *)

type counter = int ref

type gauge = float ref

type metric = M_counter of counter | M_gauge of gauge

(* one registry per domain: worker domains start empty, so a snapshot
   after a pool chunk is exactly that chunk's delta *)
let registry_key : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

let kind_name = function M_counter _ -> "counter" | M_gauge _ -> "gauge"

let register name make match_existing =
  match Hashtbl.find_opt (registry ()) name with
  | None ->
      let m, v = make () in
      Hashtbl.add (registry ()) name m;
      v
  | Some m -> (
      match match_existing m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s is already registered as a %s" name
               (kind_name m)))

let counter name =
  register name
    (fun () ->
      let r = ref 0 in
      (M_counter r, r))
    (function M_counter r -> Some r | _ -> None)

let incr ?(by = 1) (c : counter) = c := !c + by

let gauge name =
  register name
    (fun () ->
      let r = ref 0. in
      (M_gauge r, r))
    (function M_gauge r -> Some r | _ -> None)

let set (g : gauge) v = g := v

(** {1 Snapshots}

    A snapshot is a pure value: reading it never perturbs the metrics. *)

type value = Int of int | Float of float

let read = function M_counter r -> Int !r | M_gauge r -> Float !r

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, read m) :: acc) (registry ()) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find name = Option.map read (Hashtbl.find_opt (registry ()) name)

(** [reset ()] zeroes counters and gauges. Registrations survive. *)
let reset () =
  Hashtbl.iter
    (fun _ m -> match m with M_counter r -> r := 0 | M_gauge r -> r := 0.)
    (registry ())

(** [clear ()] drops every registration (test isolation). *)
let clear () = Hashtbl.reset (registry ())

(** {1 Cross-domain merge}

    Worker domains in an {!Eel_util.Pool} fan-out start with an empty
    registry; a {!snapshot} captures everything a chunk registered and
    [absorb] merges it into the caller's registry. The merge is the
    serial semantics, replayed: counters add, gauges are
    overwritten (the pool absorbs chunks in order, so the last chunk that
    set a gauge wins — exactly the serial last-writer). *)

let absorb ex =
  List.iter
    (fun (name, v) ->
      match (v, Hashtbl.find_opt (registry ()) name) with
      | Int n, (None | Some (M_counter _)) -> incr ~by:n (counter name)
      | Float f, (None | Some (M_gauge _)) -> set (gauge name) f
      | _ ->
          (* kind drift between domains: drop rather than corrupt *)
          ())
    ex

(* a pool worker's registry rides home on the join hook *)
let () =
  Eel_util.Pool.on_join (fun () ->
      let ex = snapshot () in
      fun () -> absorb ex)

(** {1 Rendering} *)

let float_json v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let value_to_json = function Int i -> string_of_int i | Float f -> float_json f

(** The whole registry as a JSON object keyed by metric name. *)
let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (Json.escape name) (value_to_json v)))
    (snapshot ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp_value fmt = function
  | Int i -> Format.fprintf fmt "%d" i
  | Float f -> Format.fprintf fmt "%g" f

(** One line per metric; with [only], just the names under those prefixes. *)
let pp ?only fmt () =
  let shown name =
    match only with
    | None -> true
    | Some prefixes ->
        List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
  in
  List.iter
    (fun (name, v) ->
      if shown name then Format.fprintf fmt "%-36s %a@\n" name pp_value v)
    (snapshot ())
