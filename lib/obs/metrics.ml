(** A typed metrics registry: named counters, gauges, and fixed-bucket
    histograms.

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
    parallel run's final registry matches the serial run's: counters and
    histograms accumulate, gauges keep the last chunk that set them. It is
    the only per-domain state the pool merges. *)

type histogram = {
  h_edges : float array;  (** strictly increasing upper bucket edges *)
  h_counts : int array;  (** length [Array.length h_edges + 1]; last = overflow *)
  mutable h_sum : float;
  mutable h_n : int;
}

type counter = int ref

type gauge = float ref

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_hist of histogram

(* one registry per domain: worker domains start empty, so a snapshot
   after a pool chunk is exactly that chunk's delta *)
let registry_key : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_hist _ -> "histogram"

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

let histogram ~edges name =
  let ok = ref (Array.length edges > 0) in
  Array.iteri (fun i e -> if i > 0 && e <= edges.(i - 1) then ok := false) edges;
  if not !ok then
    invalid_arg "Metrics.histogram: edges must be non-empty and strictly increasing";
  register name
    (fun () ->
      let h =
        {
          h_edges = Array.copy edges;
          h_counts = Array.make (Array.length edges + 1) 0;
          h_sum = 0.;
          h_n = 0;
        }
      in
      (M_hist h, h))
    (function M_hist h -> Some h | _ -> None)

(** [observe h v] adds [v] to the first bucket whose upper edge is >= [v];
    values above every edge land in the overflow bucket. *)
let observe (h : histogram) v =
  let n = Array.length h.h_edges in
  let rec bucket i = if i >= n || v <= h.h_edges.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_n <- h.h_n + 1

(** {1 Snapshots}

    A snapshot is a pure value: reading it never perturbs the metrics. *)

type value =
  | Int of int
  | Float of float
  | Hist of { edges : float array; counts : int array; sum : float; n : int }

let read = function
  | M_counter r -> Int !r
  | M_gauge r -> Float !r
  | M_hist h ->
      Hist
        {
          edges = Array.copy h.h_edges;
          counts = Array.copy h.h_counts;
          sum = h.h_sum;
          n = h.h_n;
        }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, read m) :: acc) (registry ()) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find name = Option.map read (Hashtbl.find_opt (registry ()) name)

(** [reset ()] zeroes counters, gauges and histograms. Registrations
    survive. *)
let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter r -> r := 0
      | M_gauge r -> r := 0.
      | M_hist h ->
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          h.h_sum <- 0.;
          h.h_n <- 0)
    (registry ())

(** [clear ()] drops every registration (test isolation). *)
let clear () = Hashtbl.reset (registry ())

(** {1 Cross-domain merge}

    Worker domains in an {!Eel_util.Pool} fan-out start with an empty
    registry; a {!snapshot} captures everything a chunk registered and
    [absorb] merges it into the caller's registry. The merge is the
    serial semantics, replayed: counters and histograms add, gauges are
    overwritten (the pool absorbs chunks in order, so the last chunk that
    set a gauge wins — exactly the serial last-writer). *)

let absorb ex =
  List.iter
    (fun (name, v) ->
      match (v, Hashtbl.find_opt (registry ()) name) with
      | Int n, (None | Some (M_counter _)) -> incr ~by:n (counter name)
      | Float f, (None | Some (M_gauge _)) -> set (gauge name) f
      | Hist { edges; counts; sum; n }, (None | Some (M_hist _)) ->
          let h = histogram ~edges name in
          if h.h_edges = edges then (
            Array.iteri
              (fun i c -> h.h_counts.(i) <- h.h_counts.(i) + c)
              counts;
            h.h_sum <- h.h_sum +. sum;
            h.h_n <- h.h_n + n)
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

let value_to_json = function
  | Int i -> string_of_int i
  | Float f -> float_json f
  | Hist { edges; counts; sum; n } ->
      let arr f xs =
        "[" ^ String.concat "," (List.map f (Array.to_list xs)) ^ "]"
      in
      Printf.sprintf "{\"edges\":%s,\"counts\":%s,\"sum\":%s,\"n\":%d}"
        (arr float_json edges)
        (arr string_of_int counts)
        (float_json sum) n

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
  | Hist { edges; counts; sum; n } ->
      Format.fprintf fmt "n=%d sum=%g" n sum;
      Array.iteri
        (fun i c ->
          if i < Array.length edges then
            Format.fprintf fmt " le(%g)=%d" edges.(i) c
          else Format.fprintf fmt " inf=%d" c)
        counts

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
