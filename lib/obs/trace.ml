(** Hierarchical span tracing for the load→CFG→edit→layout→run pipeline.

    The paper's evaluation (§5, Tables 1–2) is built on per-phase cost
    measurement; this module is the substrate that makes those measurements
    a first-class, always-available artifact instead of ad-hoc stopwatch
    code in the benchmark harness.

    A {e span} covers one phase of work: it has a name, optional key/value
    arguments, a wall-clock duration, and the number of words the OCaml GC
    allocated while it was open (via {!Gc.quick_stat} deltas). Spans nest;
    diagnostics and other point-in-time observations are attached to the
    innermost open span as {e instant} events. A finished trace exports as

    - Chrome [trace_event] JSON ({!to_chrome_json}), loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}, and
    - a plain-text tree ({!pp_tree}) for terminals.

    Instrumented code does not thread a tracer through every call chain:
    it uses the {e ambient} tracer ({!set_current}/{!with_current}) through
    {!with_span} and {!mark}, which cost one ref read and one match when no
    tracer is installed — the disabled-instrumentation overhead budget is
    "not measurable" (ISSUE 2 acceptance: < 2% on E1). *)

type instant = {
  i_name : string;
  i_ts : float;  (** µs since the tracer epoch *)
  i_args : (string * string) list;
}

type span = {
  sp_name : string;
  sp_args : (string * string) list;
  sp_start : float;  (** µs since the tracer epoch *)
  sp_alloc0 : float;  (** GC words allocated before the span opened *)
  mutable sp_dur : float;  (** µs; negative while the span is still open *)
  mutable sp_alloc : float;  (** words allocated while the span was open *)
  mutable sp_children : node list;  (** newest first *)
}

and node = N_span of span | N_instant of instant

type t = {
  epoch : float;  (** [Unix.gettimeofday] at creation *)
  root : span;  (** synthetic container for top-level spans *)
  mutable stack : span list;  (** open spans, innermost first; root last *)
  mutable n_spans : int;
  mutable unclosed : string list;  (** filled by {!seal} *)
  mutable sealed : bool;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let create () =
  let root =
    {
      sp_name = "<root>";
      sp_args = [];
      sp_start = 0.;
      sp_alloc0 = alloc_words ();
      sp_dur = -1.;
      sp_alloc = 0.;
      sp_children = [];
    }
  in
  {
    epoch = Unix.gettimeofday ();
    root;
    stack = [ root ];
    n_spans = 0;
    unclosed = [];
    sealed = false;
  }

let now_us t = (Unix.gettimeofday () -. t.epoch) *. 1e6

let num_spans t = t.n_spans

(** {1 Recording} *)

let enter t ?(args = []) name =
  let sp =
    {
      sp_name = name;
      sp_args = args;
      sp_start = now_us t;
      sp_alloc0 = alloc_words ();
      sp_dur = -1.;
      sp_alloc = 0.;
      sp_children = [];
    }
  in
  (match t.stack with
  | parent :: _ -> parent.sp_children <- N_span sp :: parent.sp_children
  | [] -> t.root.sp_children <- N_span sp :: t.root.sp_children);
  t.stack <- sp :: t.stack;
  t.n_spans <- t.n_spans + 1

(** Close the innermost open span. Exiting with only the root open is an
    imbalance (an [exit] without a matching [enter]); it is recorded rather
    than raised, because tracing must never abort the traced pipeline. *)
let exit t =
  match t.stack with
  | sp :: (_ :: _ as rest) ->
      sp.sp_dur <- now_us t -. sp.sp_start;
      sp.sp_alloc <- alloc_words () -. sp.sp_alloc0;
      t.stack <- rest
  | _ -> t.unclosed <- "<exit without enter>" :: t.unclosed

let span t ?args name f =
  enter t ?args name;
  Fun.protect ~finally:(fun () -> exit t) f

let instant t ?(args = []) name =
  let i = { i_name = name; i_ts = now_us t; i_args = args } in
  match t.stack with
  | sp :: _ -> sp.sp_children <- N_instant i :: sp.sp_children
  | [] -> t.root.sp_children <- N_instant i :: t.root.sp_children

(** [seal t] closes any span left open (recording its name in
    {!unclosed}) so exports see complete durations. Idempotent. *)
let seal t =
  if not t.sealed then (
    t.sealed <- true;
    let rec close () =
      match t.stack with
      | sp :: (_ :: _ as rest) ->
          t.unclosed <- sp.sp_name :: t.unclosed;
          sp.sp_dur <- now_us t -. sp.sp_start;
          sp.sp_alloc <- alloc_words () -. sp.sp_alloc0;
          t.stack <- rest;
          close ()
      | _ -> ()
    in
    close ())

(** Names of spans that were entered but never exited (innermost last),
    plus a marker for each unmatched [exit]. Seals the trace. *)
let unclosed t =
  seal t;
  List.rev t.unclosed

(** {1 The ambient tracer}

    The slot is domain-local: a tracer installed on the main domain is
    not visible to {!Eel_util.Pool} workers, whose spans would otherwise
    interleave racily into one mutable tree. Workers see [None] and
    their spans no-op; drivers that want a full trace run serially
    (they pass [~jobs:1] when [--trace] is set). *)

let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let set_current o = current () := o

let get_current () = !(current ())

let with_current t f =
  let cur = current () in
  let old = !cur in
  cur := Some t;
  Fun.protect ~finally:(fun () -> cur := old) f

(** [with_span name f] runs [f] inside a span of the ambient tracer, or
    just calls [f] when none is installed. *)
let with_span ?args name f =
  match !(current ()) with None -> f () | Some t -> span t ?args name f

(** [mark name] attaches an instant event to the ambient tracer's innermost
    open span (dropped when no tracer is installed). *)
let mark ?args name =
  match !(current ()) with None -> () | Some t -> instant t ?args name

(** {1 Export} *)

let children_in_order sp = List.rev sp.sp_children

(** Per-span-name totals: [(name, total µs, count)], sorted by name. The
    per-phase breakdown the benchmark harness persists next to its
    Bechamel numbers. *)
let totals t =
  seal t;
  let tbl : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let rec walk = function
    | N_instant _ -> ()
    | N_span sp ->
        (match Hashtbl.find_opt tbl sp.sp_name with
        | Some (d, n) ->
            d := !d +. sp.sp_dur;
            incr n
        | None -> Hashtbl.add tbl sp.sp_name (ref sp.sp_dur, ref 1));
        List.iter walk sp.sp_children
  in
  List.iter walk t.root.sp_children;
  Hashtbl.fold (fun name (d, n) acc -> (name, !d, !n) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun k (key, v) ->
      if k > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (Json.escape key) (Json.escape v)))
    args;
  Buffer.add_string buf "}"

(** Chrome [trace_event] JSON: one complete ("ph":"X") event per span, one
    instant ("ph":"i") event per mark. Timestamps are µs, as the format
    requires. Allocation deltas ride in each span's [args.alloc_words]. *)
let to_chrome_json t =
  seal t;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  let rec walk = function
    | N_instant i ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"eel\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":"
             (Json.escape i.i_name) i.i_ts);
        add_args buf i.i_args;
        Buffer.add_string buf "}"
    | N_span sp ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"eel\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":"
             (Json.escape sp.sp_name) sp.sp_start (max 0. sp.sp_dur));
        add_args buf
          (sp.sp_args
          @ [ ("alloc_words", Printf.sprintf "%.0f" sp.sp_alloc) ]);
        Buffer.add_string buf "}";
        List.iter walk (children_in_order sp)
  in
  List.iter walk (children_in_order t.root);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome_json t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json t))

let pp_tree fmt t =
  seal t;
  let rec walk indent = function
    | N_instant i ->
        Format.fprintf fmt "%s! %s%s@\n" indent i.i_name
          (match i.i_args with
          | [] -> ""
          | args ->
              " ["
              ^ String.concat ", "
                  (List.map (fun (k, v) -> k ^ "=" ^ v) args)
              ^ "]")
    | N_span sp ->
        Format.fprintf fmt "%s%-24s %10.3f ms %10.0f words@\n" indent
          sp.sp_name (sp.sp_dur /. 1e3) sp.sp_alloc;
        List.iter (walk (indent ^ "  ")) (children_in_order sp)
  in
  List.iter (walk "") (children_in_order t.root)
