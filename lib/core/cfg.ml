(** Control-flow graphs of routines (paper §3.3).

    The CFG is EEL's primary program representation. Its defining feature is
    that {e instructions' internal control flow is made explicit}: delayed
    branches, annulled branches and calls are normalized so that every
    instruction in the graph appears to be a simple, non-delayed instruction
    (paper Fig. 3). Concretely:

    - the delay-slot instruction of a {e non-annulled conditional branch} is
      duplicated into two single-instruction [Delay] blocks, one on the taken
      edge and one on the fall-through edge;
    - for an {e annulled} conditional branch the delay instruction appears
      only on the taken edge;
    - for [ba,a] (and [bn,a]) the delay instruction appears on no edge;
    - a {e call}'s delay block is followed by a distinguished zero-length
      [Call_surrogate] block standing for the callee's execution;
    - synthetic [Entry] and [Exit] blocks bracket the routine.

    Some blocks and edges are {e uneditable} (paper: "most uneditable blocks
    and edges transfer control out of the current routine, e.g. the delay
    slot after a call"); experiment E3 measures their fraction.

    Construction is conservative in the presence of data: invalid words form
    [is_data] blocks, and unreachable valid code at the end of the region is
    reported as a {e hidden routine} candidate for the executable-level
    analysis (paper §3.1 stage 4). *)

open Eel_arch
module I = Instr
module Diag = Eel_robust.Diag

(** Historical alias: CFG-construction failures are now {!Diag.Error}
    values carrying {!Diag.Exe_error}/{!Diag.Decode_error}; this exception
    is kept only so old match arms keep compiling. *)
exception Eel_error of string

let err fmt =
  Printf.ksprintf (fun s -> raise (Diag.Error (Diag.Exe_error { what = s }))) fmt

type block_kind = Normal | Delay | Call_surrogate | Entry | Exit

type edge_kind =
  | Ek_fall  (** sequential flow *)
  | Ek_taken  (** branch taken *)
  | Ek_call  (** delay block to call surrogate *)
  | Ek_cont  (** call surrogate to the return continuation *)
  | Ek_computed of int option
      (** indirect jump; [Some a] = resolved original target, [None] =
          unanalyzable *)
  | Ek_exit  (** to the synthetic exit block (returns) *)
  | Ek_xfer of int
      (** direct transfer that leaves the routine (interprocedural branch or
          fall-through off the end); payload = original destination *)

(** A jump's dispatch table, discovered by backward slicing (§3.3). *)
type table = {
  t_addr : int;  (** address of the first table entry *)
  t_targets : int array;  (** original code addresses stored in the table *)
}

type term =
  | T_none  (** block falls through *)
  | T_branch of { i : I.t; addr : int }
      (** conditional (or never-taken) pc-relative branch *)
  | T_goto of { i : I.t; addr : int }  (** unconditional branch (ba) *)
  | T_call of { i : I.t; addr : int; target : int }
  | T_icall of { i : I.t; addr : int }  (** indirect call through a register *)
  | T_jump of { i : I.t; addr : int; mutable table : table option }
  | T_return of { i : I.t; addr : int }

type block = {
  bid : int;
  kind : block_kind;
  baddr : int option;  (** original address of the first instruction *)
  mutable instrs : (int * I.t) array;
      (** (original address, instruction); duplicated delay-slot copies
          share their original address *)
  mutable term : term;
  mutable succs : edge list;
  mutable preds : edge list;
  mutable editable : bool;
  mutable reachable : bool;
  mutable is_data : bool;
  mutable edited : bool;  (** set once any edit touches this block *)
}

and edge = {
  eid : int;
  esrc : block;
  edst : block;
  ekind : edge_kind;
  mutable e_editable : bool;
  mutable e_edited : bool;
}

type t = {
  mach : Machine.t;
  lo : int;
  hi : int;
  blocks : block Eel_util.Dyn.t;  (** all blocks, entry/exit included *)
  entries : (int * block) list;  (** entry address -> Entry block *)
  exit_block : block;
  mutable complete : bool;
      (** false when an indirect jump could not be analyzed; the editor then
          falls back on run-time address translation (§3.3) *)
  mutable hidden_candidate : int option;
      (** start of unreachable trailing code: a hidden routine (§3.1) *)
  block_at : (int, block) Hashtbl.t;  (** original address -> Normal block *)
}

(** {1 Inquiries} *)

let blocks g = Eel_util.Dyn.to_list g.blocks

let num_blocks g = Eel_util.Dyn.length g.blocks

let edges g =
  List.concat_map (fun b -> b.succs) (blocks g)

let entry_blocks g = List.map snd g.entries

let block_at g addr = Hashtbl.find_opt g.block_at addr

(** Terminator instruction and its address, if any. *)
let term_instr b =
  match b.term with
  | T_none -> None
  | T_branch { i; addr } | T_goto { i; addr } | T_call { i; addr; _ }
  | T_icall { i; addr } | T_jump { i; addr; _ } | T_return { i; addr } ->
      Some (addr, i)

(** All instructions of a block including the terminator (for analyses). *)
let all_instrs b =
  match term_instr b with
  | None -> Array.to_list b.instrs
  | Some ai -> Array.to_list b.instrs @ [ ai ]

(** Array form of {!all_instrs} — the hot path for slicing and liveness.
    Blocks without a terminator share their body array (tools never mutate
    block bodies: edits accumulate outside the CFG, §3.3.1). *)
let all_instrs_array b =
  match term_instr b with
  | None -> b.instrs
  | Some ai -> Array.append b.instrs [| ai |]

let indirect_jumps g =
  List.filter_map
    (fun b -> match b.term with T_jump j -> Some (b, j.addr) | _ -> None)
    (blocks g)

(** Number of original instruction words covered by a block (delay copies
    count once at their original address — used for statistics only). *)
let pp_block fmt b =
  let kind =
    match b.kind with
    | Normal -> "block"
    | Delay -> "delay"
    | Call_surrogate -> "surrogate"
    | Entry -> "entry"
    | Exit -> "exit"
  in
  Format.fprintf fmt "%s#%d%s%s" kind b.bid
    (match b.baddr with Some a -> Printf.sprintf "@0x%x" a | None -> "")
    (if b.editable then "" else " (uneditable)")

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

type builder = {
  b_blocks : block Eel_util.Dyn.t;
  mutable next_bid : int;
  mutable next_eid : int;
  mutable b_complete : bool;
  n_blocks : Eel_obs.Metrics.counter;  (** [eel.stats.blocks_alloc] *)
  n_edges : Eel_obs.Metrics.counter;  (** [eel.stats.edges_alloc] *)
}

let new_block bld ?(editable = true) ?addr kind instrs =
  let b =
    {
      bid = bld.next_bid;
      kind;
      baddr = addr;
      instrs;
      term = T_none;
      succs = [];
      preds = [];
      editable;
      reachable = false;
      is_data = false;
      edited = false;
    }
  in
  bld.next_bid <- bld.next_bid + 1;
  Eel_obs.Metrics.incr bld.n_blocks;
  Eel_util.Dyn.push bld.b_blocks b;
  b

let connect bld ?(editable = true) src dst ekind =
  let e =
    { eid = bld.next_eid; esrc = src; edst = dst; ekind; e_editable = editable; e_edited = false }
  in
  bld.next_eid <- bld.next_eid + 1;
  Eel_obs.Metrics.incr bld.n_edges;
  src.succs <- src.succs @ [ e ];
  dst.preds <- e :: dst.preds;
  e

(** A stand-in instruction for text-segment words that could not even be
    fetched (e.g. a declared range the section does not back). Classified
    [Invalid], so such bytes degrade to data blocks instead of aborting the
    routine — the paper's [mark_as_impossible] discipline. *)
let unmapped_instr =
  {
    I.word = 0;
    cat = I.Invalid;
    reads = Regset.empty;
    writes = Regset.empty;
    ctl = I.C_none;
    delayed = false;
    width = 0;
    ea = None;
    mnem = "<unmapped>";
  }

(** [build ~mach ~cache ~fetch ~lo ~hi ~entries ~tables ()] constructs the
    normalized CFG of the routine occupying [lo, hi) with the given entry
    addresses. [fetch a] returns the machine word at [a]. [tables] maps
    indirect-jump addresses to previously-discovered dispatch tables (the
    slicing fixpoint: {!Routine} re-builds after {!Slice} finds tables).

    [diag] collects degradation diagnostics: reachable-but-undecodable
    regions, malformed delay slots and DCTI couples are downgraded to
    data-marked blocks with a warning instead of aborting construction.
    [budget] bounds the decode work (anti-non-termination guard). *)
let build ?diag ?budget ~mach ~cache ~fetch ~lo ~hi ~entries ~tables () =
  Eel_obs.Trace.with_span "cfg.build"
    ~args:[ ("lo", Printf.sprintf "0x%x" lo); ("hi", Printf.sprintf "0x%x" hi) ]
  @@ fun () ->
  if lo land 3 <> 0 then err "routine start 0x%x misaligned" lo;
  let n_words = (hi - lo) / 4 in
  Option.iter (fun b -> Diag.spend b (n_words + 1)) budget;
  (* one build runs on one domain: look its counters up once *)
  let bld =
    {
      b_blocks = Eel_util.Dyn.create ();
      next_bid = 0;
      next_eid = 0;
      b_complete = true;
      n_blocks = Eel_obs.Metrics.counter "eel.stats.blocks_alloc";
      n_edges = Eel_obs.Metrics.counter "eel.stats.edges_alloc";
    }
  in
  let exit_block = new_block bld ~editable:false Exit [||] in
  Eel_obs.Metrics.incr (Eel_obs.Metrics.counter "eel.stats.cfgs_built");
  let lift = Instr_cache.lifter cache in
  let instr_at a =
    if a < lo || a + 4 > hi then None else Option.map lift (fetch a)
  in
  let insn = Array.init n_words (fun i -> instr_at (lo + (4 * i))) in
  let get a =
    match insn.((a - lo) / 4) with Some i -> i | None -> unmapped_instr
  in
  let in_range a = a >= lo && a < hi && a land 3 = 0 in
  (* ---- leaders ---- *)
  let leaders = Hashtbl.create 64 in
  let add_leader a = if in_range a then Hashtbl.replace leaders a () in
  List.iter add_leader entries;
  add_leader lo;
  List.iter
    (fun (_, tbl) -> Array.iter add_leader tbl.t_targets)
    tables;
  for i = 0 to n_words - 1 do
    let a = lo + (4 * i) in
    match insn.(i) with
    | None -> ()
    | Some ins -> (
        match ins.I.ctl with
        | I.C_branch _ | I.C_call _ ->
            (match I.abs_target ~pc:a ins with
            | Some t -> add_leader t
            | None -> ());
            add_leader (a + 8)
        | I.C_jump_ind _ -> add_leader (a + 8)
        | _ -> ())
  done;
  (* ---- carve Normal blocks ----
     A block runs from a leader to the next leader, a control-transfer
     instruction (whose delay slot it consumes), or a code/data validity
     boundary. *)
  let block_start = Hashtbl.create 64 in
  (* record where each block begins; instr spans recorded as (start, stop,
     term_at option) then materialized *)
  let raw = ref [] in
  let i = ref 0 in
  while !i < n_words do
    let start = lo + (4 * !i) in
    let j = ref !i in
    let stop = ref None in
    let noret = ref false in
    (* a block is data iff its first word is invalid; group consecutive
       same-validity words *)
    let first_valid =
      match insn.(!i) with Some k -> k.I.cat <> I.Invalid | None -> false
    in
    let continue_ = ref true in
    while !continue_ do
      if !j >= n_words then continue_ := false
      else
        let a = lo + (4 * !j) in
        match insn.(!j) with
      | None ->
          (* unmapped word: it groups with data; when the block started with
             real code this is a validity boundary (never at !i = !j, so the
             carving loop always advances) *)
          if first_valid then continue_ := false
          else (
            incr j;
            if !j < n_words && Hashtbl.mem leaders (lo + (4 * !j)) then
              continue_ := false)
      | Some ins ->
          let valid = ins.I.cat <> I.Invalid in
          if valid <> first_valid then continue_ := false
          else if valid && I.is_cti ins && ins.I.delayed then (
            (* control transfer: consume the delay slot and stop *)
            stop := Some a;
            j := !j + 2;
            continue_ := false)
          else if valid && mach.Machine.noreturn ins then (
            (* e.g. the exit system call: the block ends with no
               fall-through successor *)
            noret := true;
            incr j;
            continue_ := false)
          else (
            incr j;
            if !j < n_words && Hashtbl.mem leaders (lo + (4 * !j)) then
              continue_ := false)
    done;
    let j = min !j n_words in
    raw := (start, lo + (4 * j), !stop, not first_valid, !noret) :: !raw;
    i := j
  done;
  let raw = List.rev !raw in
  List.iter
    (fun (start, bend, term_at, is_data, _noret) ->
      let body_end = match term_at with Some a -> a | None -> bend in
      let instrs =
        Array.init ((body_end - start) / 4) (fun k ->
            (start + (4 * k), get (start + (4 * k))))
      in
      let b = new_block bld ~addr:start Normal instrs in
      b.is_data <- is_data;
      (match term_at with
      | None -> ()
      | Some a ->
          let ins = get a in
          b.term <-
            (match ins.I.cat with
            | I.Branch ->
                (match ins.I.ctl with
                | I.C_branch { always = true; _ } -> T_goto { i = ins; addr = a }
                | _ -> T_branch { i = ins; addr = a })
            | I.Call ->
                T_call
                  { i = ins; addr = a; target = Option.get (I.abs_target ~pc:a ins) }
            | I.Call_indirect -> T_icall { i = ins; addr = a }
            | I.Return -> T_return { i = ins; addr = a }
            | I.Jump_indirect | I.Jump ->
                T_jump { i = ins; addr = a; table = List.assoc_opt a tables }
            | _ -> err "unexpected delayed instruction at 0x%x" a));
      Hashtbl.replace block_start start b)
    raw;
  (* ---- edges with delay-slot normalization ---- *)
  let target_block a kind =
    (* edge destination for a direct transfer to original address [a] *)
    if in_range a then
      match Hashtbl.find_opt block_start a with
      | Some b -> `Local b
      | None -> `Extern a (* e.g. branch into a delay slot consumed elsewhere *)
    else `Extern a
  in
  (* Raised while wiring a block's successors when its terminator turns out
     to be malformed (bit flips, data mis-classified as code). The block is
     then downgraded to data with a diagnostic instead of aborting the whole
     CFG — raised before any edge of the block is connected, so degradation
     leaves no dangling edges. *)
  let exception Degrade of { addr : int; what : string } in
  let delay_instr addr =
    match instr_at (addr + 4) with
    | None ->
        raise
          (Degrade
             {
               addr;
               what = Printf.sprintf "control transfer at 0x%x has no delay slot" addr;
             })
    | Some d ->
        if d.I.cat = I.Invalid then
          raise
            (Degrade
               {
                 addr;
                 what =
                   Printf.sprintf "delay slot at 0x%x holds an invalid word 0x%08x"
                     (addr + 4) d.I.word;
               });
        if I.is_cti d && d.I.delayed then
          raise
            (Degrade
               {
                 addr;
                 what =
                   Printf.sprintf
                     "unsupported DCTI couple: control transfer in the delay slot \
                      at 0x%x"
                     (addr + 4);
               });
        d
  in
  let mk_delay bld ?(editable = true) addr d =
    new_block bld ~editable ~addr:(addr + 4) Delay [| (addr + 4, d) |]
  in
  let goto_dst bld src a ~ekind_local ~editable =
    match target_block a ekind_local with
    | `Local b -> ignore (connect bld ~editable src b ekind_local)
    | `Extern a -> ignore (connect bld ~editable:false src exit_block (Ek_xfer a))
  in
  List.iter
    (fun (start, bend, term_at, _is_data, noret) ->
      let b = Hashtbl.find block_start start in
      if b.is_data then () (* data blocks have no successors *)
      else
        try
          match b.term with
        | T_none when noret -> () (* ends in exit: no successors *)
        | T_none ->
            (* falls through to bend *)
            if bend < hi then goto_dst bld b bend ~ekind_local:Ek_fall ~editable:true
            else ignore (connect bld ~editable:false b exit_block (Ek_xfer bend))
        | T_branch { i; addr } -> (
            let d = delay_instr addr in
            let target = Option.get (I.abs_target ~pc:addr i) in
            let never = match i.I.ctl with I.C_branch { never; _ } -> never | _ -> false in
            let annul = I.is_annulled i in
            let fall_addr = addr + 8 in
            if never then (
              (* bn: no taken path *)
              if annul then goto_dst bld b fall_addr ~ekind_local:Ek_fall ~editable:true
              else (
                let df = mk_delay bld addr d in
                ignore (connect bld b df Ek_fall);
                goto_dst bld df fall_addr ~ekind_local:Ek_fall ~editable:true))
            else (
              (* taken path always runs the delay instruction *)
              let dt = mk_delay bld addr d in
              ignore (connect bld b dt Ek_taken);
              goto_dst bld dt target ~ekind_local:Ek_fall ~editable:true;
              (* fall path *)
              if annul then goto_dst bld b fall_addr ~ekind_local:Ek_fall ~editable:true
              else (
                let df = mk_delay bld addr d in
                ignore (connect bld b df Ek_fall);
                goto_dst bld df fall_addr ~ekind_local:Ek_fall ~editable:true)))
        | T_goto { i; addr } ->
            let target = Option.get (I.abs_target ~pc:addr i) in
            if I.is_annulled i then
              goto_dst bld b target ~ekind_local:Ek_taken ~editable:true
            else (
              let d = delay_instr addr in
              let dt = mk_delay bld addr d in
              ignore (connect bld b dt Ek_taken);
              goto_dst bld dt target ~ekind_local:Ek_fall ~editable:true)
        | T_call { addr; _ } | T_icall { addr; _ } ->
            (* delay slot after a call is uneditable (paper §3.3) *)
            let d = delay_instr addr in
            let dslot = mk_delay bld ~editable:false addr d in
            ignore (connect bld ~editable:false b dslot Ek_fall);
            let s = new_block bld ~editable:false Call_surrogate [||] in
            ignore (connect bld ~editable:false dslot s Ek_call);
            let cont = addr + 8 in
            if cont < hi then goto_dst bld s cont ~ekind_local:Ek_cont ~editable:true
            else ignore (connect bld ~editable:false s exit_block (Ek_xfer cont))
        | T_return { addr; _ } ->
            let d = delay_instr addr in
            let dslot = mk_delay bld ~editable:false addr d in
            ignore (connect bld ~editable:false b dslot Ek_fall);
            ignore (connect bld ~editable:false dslot exit_block Ek_exit)
        | T_jump { addr; table; _ } -> (
            let d = delay_instr addr in
            let dslot = mk_delay bld addr d in
            ignore (connect bld b dslot Ek_fall);
            match table with
            | Some tbl ->
                Array.iter
                  (fun tgt ->
                    match target_block tgt Ek_fall with
                    | `Local tb ->
                        ignore
                          (connect bld ~editable:false dslot tb (Ek_computed (Some tgt)))
                    | `Extern a ->
                        ignore
                          (connect bld ~editable:false dslot exit_block (Ek_xfer a)))
                  tbl.t_targets
            | None ->
                bld.b_complete <- false;
                ignore
                  (connect bld ~editable:false dslot exit_block (Ek_computed None)))
        with Degrade { addr; what } ->
          Diag.report diag Diag.Warn ~source:"cfg" ~loc:(Diag.at_addr addr)
            "%s; block at 0x%x degraded to data" what start;
          b.is_data <- true;
          b.term <- T_none)
    raw;
  (* ---- entry and exit blocks ---- *)
  let entry_list =
    List.filter_map
      (fun a ->
        if not (in_range a) then None
        else
          match Hashtbl.find_opt block_start a with
          | None -> None
          | Some b ->
              let e = new_block bld ~editable:false Entry [||] in
              ignore (connect bld e b Ek_fall);
              Some (a, e))
      (List.sort_uniq compare entries)
  in
  let g =
    {
      mach;
      lo;
      hi;
      blocks = bld.b_blocks;
      entries = entry_list;
      exit_block;
      complete = bld.b_complete;
      hidden_candidate = None;
      block_at = Hashtbl.copy block_start;
    }
  in
  (* ---- reachability (explicit worklist: degenerate mutants can produce
     block chains deep enough to overflow the OCaml stack) ---- *)
  let visit b0 =
    let stack = ref [ b0 ] in
    let continue_ = ref true in
    while !continue_ do
      match !stack with
      | [] -> continue_ := false
      | b :: rest ->
          stack := rest;
          if not b.reachable then (
            b.reachable <- true;
            List.iter (fun e -> stack := e.edst :: !stack) b.succs)
    done
  in
  List.iter (fun (_, e) -> visit e) entry_list;
  (* ---- hidden-routine candidate: unreachable valid code after the last
     reachable instruction (paper §3.1 stage 4) ---- *)
  let last_reachable =
    Eel_util.Dyn.fold
      (fun acc b ->
        if b.reachable && b.kind = Normal then
          match b.baddr with
          | Some a -> max acc (a + (4 * Array.length b.instrs)
                               + (match term_instr b with Some _ -> 8 | None -> 0))
          | None -> acc
        else acc)
      lo g.blocks
  in
  let candidate =
    List.filter_map
      (fun (start, _, _, is_data, _) ->
        let b = Hashtbl.find block_start start in
        if (not b.reachable) && (not is_data) && start >= last_reachable then Some start
        else None)
      raw
  in
  (* an INCOMPLETE CFG (unanalyzable indirect jump) gets no hidden-routine
     carving: the unreachable code may be the jump's targets and must stay
     part of this routine, to be emitted conservatively (§3.3) *)
  g.hidden_candidate <-
    (if not g.complete then None
     else match candidate with [] -> None | a :: _ -> Some a);
  g

(** {1 Statistics (experiments E3 and E4)} *)

type stats = {
  s_blocks : int;
  s_normal : int;
  s_delay : int;
  s_surrogate : int;
  s_entry_exit : int;
  s_edges : int;
  s_uneditable_blocks : int;
  s_uneditable_edges : int;
}

let stats_of g =
  let bs = blocks g in
  let es = edges g in
  let count p l = List.length (List.filter p l) in
  {
    s_blocks = List.length bs;
    s_normal = count (fun b -> b.kind = Normal) bs;
    s_delay = count (fun b -> b.kind = Delay) bs;
    s_surrogate = count (fun b -> b.kind = Call_surrogate) bs;
    s_entry_exit = count (fun b -> b.kind = Entry || b.kind = Exit) bs;
    s_edges = List.length es;
    s_uneditable_blocks = count (fun b -> not b.editable) bs;
    s_uneditable_edges = count (fun e -> not e.e_editable) es;
  }
