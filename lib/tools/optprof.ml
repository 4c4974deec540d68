(** Optimal edge profiling — qpt's core algorithm (Ball & Larus [4],
    "Optimally Profiling and Tracing Programs").

    The paper explains why EEL's primary representation is the CFG: "the
    initial application of EEL, qpt, required CFGs to implement efficient
    profiling and tracing by placing instrumentation on CFG edges"
    — specifically, counters go only on edges {e not} in a spanning tree of
    the flow graph; the uninstrumented (tree) edges' counts are
    reconstructed afterwards from flow conservation. With counters kept off
    a maximum-weight spanning tree (weighted by loop depth), hot loop back
    edges typically carry no instrumentation at all.

    This module implements the placement and the post-run reconstruction:

    + build each routine's flow graph plus a virtual super-node closing the
      circulation (entry edges and exits/no-return blocks connect to it);
    + force {e uneditable} edges into the spanning tree (they cannot carry
      code); if uneditable edges alone contain a cycle, fall back to naive
      instrumentation for that routine;
    + grow the tree greedily by descending edge weight (10^loop-depth), so
      deep edges stay uninstrumented;
    + instrument every non-tree editable edge with the Fig. 2 counter
      snippet;
    + after the edited program runs, {!edge_counts} solves for the tree
      edges' counts with a worklist over flow conservation and returns a
      complete edge profile.

    The test suite checks the reconstruction against full (every-edge)
    instrumentation: identical counts from strictly fewer counters. *)

module E = Eel.Executable
module C = Eel.Cfg
module D = Eel.Dataflow

type redge = {
  re_id : int;  (** unique within the routine's reconstruction graph *)
  re_src : int;  (** bid, or -1 for the virtual super-node *)
  re_dst : int;
  re_cfg : C.edge option;  (** None for virtual edges *)
  re_counter : int option;  (** counter address when instrumented *)
}

type routine_prof = {
  rp_name : string;
  rp_cfg : C.t;
  rp_edges : redge list;
  rp_naive : bool;  (** optimal placement was infeasible here *)
}

type t = {
  edited : Eel_sef.Sef.t;
  exec : E.t;
  routines : routine_prof list;
  n_counters : int;
  n_edges : int;  (** total profiled (reconstructable) CFG edges *)
}

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let uf_find parent x =
  let rec go x = if parent.(x) = x then x else go parent.(x) in
  let r = go x in
  let rec compress x =
    if parent.(x) <> r then (
      let nxt = parent.(x) in
      parent.(x) <- r;
      compress nxt)
  in
  compress x;
  r

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra = rb then false
  else (
    parent.(ra) <- rb;
    true)

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let super = -1

(* loop-depth weight: edges inside deeper loops get higher weight so the
   spanning tree prefers them (fewer counters on hot paths) *)
let edge_weights (g : C.t) =
  let loops = D.natural_loops g in
  let depth = Hashtbl.create 32 in
  List.iter
    (fun (l : D.loop) ->
      List.iter
        (fun (b : C.block) ->
          Hashtbl.replace depth b.C.bid
            (1 + Option.value ~default:0 (Hashtbl.find_opt depth b.C.bid)))
        l.D.body)
    loops;
  fun (e : C.edge) ->
    let d b = Option.value ~default:0 (Hashtbl.find_opt depth b) in
    let k = max (d e.C.esrc.C.bid) (d e.C.edst.C.bid) in
    (* 10^k, capped *)
    let rec pow acc n = if n <= 0 then acc else pow (acc * 10) (n - 1) in
    pow 1 (min k 6)

(* the reconstruction graph: reachable CFG edges + virtual edges through
   the super-node *)
let build_edges (g : C.t) =
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let edges = ref [] in
  let add re = edges := re :: !edges in
  List.iter
    (fun (b : C.block) ->
      if b.C.reachable then (
        List.iter
          (fun (e : C.edge) ->
            if e.C.edst.C.reachable then
              add
                {
                  re_id = fresh ();
                  re_src = b.C.bid;
                  re_dst = e.C.edst.C.bid;
                  re_cfg = Some e;
                  re_counter = None;
                })
          b.C.succs;
        (* no-successor reachable blocks flow to the super-node (exit
           system calls, the synthetic exit block) *)
        if b.C.succs = [] then
          add
            {
              re_id = fresh ();
              re_src = b.C.bid;
              re_dst = super;
              re_cfg = None;
              re_counter = None;
            }))
    (C.blocks g);
  (* the super-node feeds each entry block, closing the circulation *)
  List.iter
    (fun (eb : C.block) ->
      add
        {
          re_id = fresh ();
          re_src = super;
          re_dst = eb.C.bid;
          re_cfg = None;
          re_counter = None;
        })
    (C.entry_blocks g);
  List.rev !edges

(* choose the set of edges to instrument; None = uneditable cycle makes
   optimal placement infeasible *)
let choose_instrumented (g : C.t) edges =
  let nb = C.num_blocks g + 1 in
  let node b = if b = super then nb - 1 else b in
  let parent = Array.init nb (fun i -> i) in
  let weight = edge_weights g in
  (* 1: uninstrumentable edges must be tree edges *)
  let feasible = ref true in
  List.iter
    (fun re ->
      match re.re_cfg with
      | Some e when not e.C.e_editable ->
          if not (uf_union parent (node re.re_src) (node re.re_dst)) then
            feasible := false
      | None ->
          (* virtual edges carry no code either *)
          if not (uf_union parent (node re.re_src) (node re.re_dst)) then
            feasible := false
      | Some _ -> ())
    edges;
  if not !feasible then None
  else (
    (* 2: grow a maximum spanning tree over the editable edges *)
    let editable =
      List.filter
        (fun re ->
          match re.re_cfg with Some e -> e.C.e_editable | None -> false)
        edges
    in
    let by_weight =
      List.sort
        (fun a b ->
          compare
            (weight (Option.get b.re_cfg))
            (weight (Option.get a.re_cfg)))
        editable
    in
    let instrumented = ref [] in
    List.iter
      (fun re ->
        if not (uf_union parent (node re.re_src) (node re.re_dst)) then
          instrumented := re :: !instrumented)
      by_weight;
    Some !instrumented)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let instrument mach exe =
  let t = E.read_contents mach exe in
  let routines = ref [] in
  let n_counters = ref 0 in
  let n_edges = ref 0 in
  let count_at = Qpt2.incr_count mach in
  let do_routine (r : E.routine) =
    let g = E.control_flow_graph t r in
    let ed = E.editor t r in
    let edges = build_edges g in
    let naive, to_instrument =
      match choose_instrumented g edges with
      | Some chosen -> (false, chosen)
      | None ->
          ( true,
            List.filter
              (fun re ->
                match re.re_cfg with
                | Some e -> e.C.e_editable
                | None -> false)
              edges )
    in
    let edges =
      List.map
        (fun re ->
          if List.exists (fun c -> c.re_id = re.re_id) to_instrument then (
            let addr = E.reserve_data t 4 in
            incr n_counters;
            Eel.Edit.add_along ed (Option.get re.re_cfg) (count_at addr);
            { re with re_counter = Some addr })
          else re)
        edges
    in
    n_edges := !n_edges + List.length edges;
    E.produce_edited_routine t r;
    (* CFGs are kept: reconstruction needs them *)
    routines := { rp_name = r.E.r_name; rp_cfg = g; rp_edges = edges; rp_naive = naive } :: !routines
  in
  E.iter_routines t do_routine;
  {
    edited = E.to_edited_sef t ();
    exec = t;
    routines = List.rev !routines;
    n_counters = !n_counters;
    n_edges = !n_edges;
  }

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

exception Underdetermined of string

(** [edge_counts p mem] — the complete edge profile, reconstructed from
    the counters in [mem] by flow conservation. Returns, per routine, the
    count of every CFG edge. *)
let edge_counts (p : t) (mem : Bytes.t) =
  List.map
    (fun rp ->
      let counts = Hashtbl.create 64 in
      (* seed with the instrumented edges *)
      List.iter
        (fun re ->
          match re.re_counter with
          | Some addr ->
              Hashtbl.replace counts re.re_id (Eel_util.Bytebuf.get32_be mem addr)
          | None -> ())
        rp.rp_edges;
      if not rp.rp_naive then (
        (* worklist over flow conservation: a node with exactly one
           unknown incident edge determines it *)
        let incident = Hashtbl.create 64 in
        let nodes = ref [] in
        List.iter
          (fun re ->
            List.iter
              (fun n ->
                if not (Hashtbl.mem incident n) then (
                  Hashtbl.add incident n [];
                  nodes := n :: !nodes);
                Hashtbl.replace incident n (re :: Hashtbl.find incident n))
              [ re.re_src; re.re_dst ])
          rp.rp_edges;
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun n ->
              let inc = Hashtbl.find incident n in
              let unknown =
                List.filter (fun re -> not (Hashtbl.mem counts re.re_id)) inc
              in
              match unknown with
              | [ re ] ->
                  (* conservation at n: sum(in) = sum(out); self-loops at n
                     cancel out and stay solvable through other nodes *)
                  if re.re_src <> re.re_dst then (
                    let flow =
                      List.fold_left
                        (fun acc r2 ->
                          if r2.re_id = re.re_id || r2.re_src = r2.re_dst then acc
                          else
                            let v =
                              Option.value ~default:0
                                (Hashtbl.find_opt counts r2.re_id)
                            in
                            if r2.re_dst = n then acc + v else acc - v)
                        0 inc
                    in
                    let v = if re.re_dst = n then -flow else flow in
                    Hashtbl.replace counts re.re_id (max 0 v);
                    changed := true)
              | _ -> ())
            !nodes
        done);
      let profile =
        List.filter_map
          (fun re ->
            match re.re_cfg with
            | Some e -> (
                match Hashtbl.find_opt counts re.re_id with
                | Some v -> Some (e, v)
                | None ->
                    if rp.rp_naive then None
                    else
                      raise
                        (Underdetermined
                           (Printf.sprintf "routine %s edge %d" rp.rp_name
                              e.C.eid)))
            | None -> None)
          rp.rp_edges
      in
      (rp.rp_name, profile))
    p.routines

(* ------------------------------------------------------------------ *)
(* Edit contract                                                       *)
(* ------------------------------------------------------------------ *)

(** The tool's edit contract: counter stores land in the span of reserved
    counter words (plus snippet spill slots in the red zone), and the
    {e reconstructed} edge profile must agree with emulator ground truth —
    for every fully-profiled multi-successor block of a non-naive routine,
    the out-edge counts sum to exactly the execution count of the block's
    terminating branch. This validates the whole spanning-tree pipeline:
    placement, the counters themselves, and flow-conservation
    reconstruction. *)
let contract (p : t) =
  let counter_addrs =
    List.concat_map
      (fun rp -> List.filter_map (fun re -> re.re_counter) rp.rp_edges)
      p.routines
  in
  let regions =
    Option.to_list
      (Eel_equiv.Contract.span ~name:"optprof counters" counter_addrs)
  in
  let check_routine profile rname edges =
    (* group reconstructed counts by source block *)
    let by_src = Hashtbl.create 32 in
    List.iter
      (fun ((e : C.edge), v) ->
        let b = e.C.esrc in
        let n, sum =
          Option.value ~default:(0, 0) (Hashtbl.find_opt by_src b.C.bid)
        in
        Hashtbl.replace by_src b.C.bid (n + 1, sum + v))
      edges;
    List.fold_left
      (fun acc ((e : C.edge), _) ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            let b = e.C.esrc in
            match (Hashtbl.find_opt by_src b.C.bid, C.term_instr b) with
            | Some (n, sum), Some (site_pc, _)
              when List.length b.C.succs > 1 && n = List.length b.C.succs ->
                let truth = Eel_emu.Emu.pc_count profile site_pc in
                if sum = truth then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "%s block %d: reconstructed out-edges sum to %d, \
                        branch at 0x%x executed %d times"
                       rname b.C.bid sum site_pc truth)
            | _ -> Ok ()))
      (Ok ()) edges
  in
  let check =
    {
      Eel_equiv.Contract.ck_name = "reconstruction-matches-profile";
      ck_run =
        (fun ~profile ~mem ->
          match edge_counts p mem with
          | exception Underdetermined what ->
              Error ("reconstruction underdetermined: " ^ what)
          | per_routine ->
              let naive rname =
                List.exists
                  (fun rp -> rp.rp_name = rname && rp.rp_naive)
                  p.routines
              in
              List.fold_left
                (fun acc (rname, edges) ->
                  match acc with
                  | Error _ -> acc
                  | Ok () when naive rname -> Ok ()
                  | Ok () -> check_routine profile rname edges)
                (Ok ()) per_routine);
    }
  in
  Eel_equiv.Contract.make "optprof" ~regions ~red_zone:Eel.Snippet.red_zone
    ~checks:[ check ]

(** Fault-campaign targets: counter words of non-naive routines. A skewed
    counter feeds the flow-conservation reconstruction, and the skew
    surfaces at whichever fully-profiled multi-successor block the solved
    circulation no longer matches ground truth at. Naive-routine counters
    are excluded — naive routines are skipped by the check by design. *)
let fault_targets (p : t) =
  List.concat_map
    (fun rp ->
      if rp.rp_naive then []
      else
        List.filter_map
          (fun re ->
            Option.map
              (fun addr -> (Printf.sprintf "counter@0x%x" addr, addr, 7))
              re.re_counter)
          rp.rp_edges)
    p.routines
