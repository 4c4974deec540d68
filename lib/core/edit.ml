(** Editing CFGs and producing edited routines (paper §3.3.1).

    "A tool edits a routine's CFG by deleting instructions, adding new code
    before or after any instruction, or adding code along a control-flow
    graph edge. [...] EEL accumulates edits without changing the CFG. [...]
    Producing an edited routine involves laying out its blocks and snippets
    to minimize unnecessary jumps and adjusting displacements and addresses
    in control-transfer instructions — or occasionally replacing these
    instructions by snippets containing instructions with a longer span."

    The layout engine re-emits each routine:

    - unedited delayed branches are {e refolded}: the original branch word
      and its delay instruction are emitted verbatim (only the displacement
      is adjusted), undoing the CFG's delay-slot duplication;
    - edited branches are rewritten in expanded form (annul bit cleared,
      [nop] in the slot) with out-of-line stubs carrying taken-edge code;
    - indirect jumps through rewritten dispatch tables keep their original
      form; {e unanalyzable} indirect jumps and indirect calls are replaced
      by a run-time address-translation sequence through the executable's
      translation table (§3.3: "run-time code ensures that control passes to
      the correct edited instruction");
    - conditional branches whose displacement no longer fits (or exceeds an
      artificial [max_span], for the ablation experiment) are re-targeted at
      a long-jump thunk appended to the routine (§3.3.1's "instructions with
      a longer span").

    The result ({!edited}) is position independent: words carry symbolic
    patches ([P_orig] for cross-routine targets, [P_reloc] for absolute
    targets such as added handler routines, [P_hi_label]/[P_lo_label] for
    thunk address materialization) that {!Executable} resolves once every
    routine's final address is known. *)

open Eel_arch
module C = Cfg
module Diag = Eel_robust.Diag

(** Historical alias: edit failures are now {!Diag.Error} values carrying
    {!Diag.Edit_error}; kept so old match arms keep compiling. *)
exception Edit_error of string

let err fmt = Diag.edit_error fmt

(* ------------------------------------------------------------------ *)
(* Edit accumulation                                                   *)
(* ------------------------------------------------------------------ *)

type editor = {
  g : C.t;
  mach : Machine.t;
  xlat_delta : int;
      (** translation-table displacement: [xlat_base - old_text_lo] *)
  fold_delay : bool;  (** delay-slot refolding enabled (ablation E-fold) *)
  max_span : int option;  (** artificial branch-span limit (ablation) *)
  gaps : (int * int, Snippet.t list ref) Hashtbl.t;
      (** (bid, gap) -> snippets; gap [i] is the point before instruction
          [i]; gap [length instrs] is the point before the terminator *)
  edge_code : (int, Snippet.t list ref) Hashtbl.t;  (** eid -> snippets *)
  deleted : (int * int, unit) Hashtbl.t;
  live : Dataflow.live Lazy.t;
      (** register liveness over [g], computed once on first use: by a
          tool choosing a snippet, or by {!produce} *)
  mutable n_snippets : int;
  mutable n_spilled : int;
}

let create ?(fold_delay = true) ?max_span ~xlat_delta (g : C.t) =
  {
    g;
    mach = g.C.mach;
    xlat_delta;
    fold_delay;
    max_span;
    gaps = Hashtbl.create 32;
    edge_code = Hashtbl.create 16;
    deleted = Hashtbl.create 8;
    live = lazy (Dataflow.liveness g);
    n_snippets = 0;
    n_spilled = 0;
  }

(** Register liveness over the editor's CFG, shared with {!produce}. Edits
    do not change the CFG it is computed over. *)
let liveness ed = Lazy.force ed.live

let check_block_editable (b : C.block) =
  if not b.C.editable then err "block %d is not editable" b.C.bid;
  if b.C.is_data then err "block %d is data" b.C.bid

let add_at ed (b : C.block) gap s =
  check_block_editable b;
  let n = Array.length b.C.instrs in
  if gap < 0 || gap > n then err "bad insertion point %d in block %d" gap b.C.bid;
  b.C.edited <- true;
  ed.n_snippets <- ed.n_snippets + 1;
  (match Hashtbl.find_opt ed.gaps (b.C.bid, gap) with
  | Some r -> r := !r @ [ s ]
  | None -> Hashtbl.add ed.gaps (b.C.bid, gap) (ref [ s ]))

(** Insert [s] before instruction [idx] of [b]. *)
let add_before ed b idx s = add_at ed b idx s

(** Insert [s] after instruction [idx] of [b]. *)
let add_after ed (b : C.block) idx s = add_at ed b (idx + 1) s

(** Insert [s] at the end of [b]'s straight-line body (before its
    terminator, if any). *)
let add_at_end ed (b : C.block) s = add_at ed b (Array.length b.C.instrs) s

(** Add code along a CFG edge (paper Fig. 1: [e->add_code_along]). *)
let add_along ed (e : C.edge) s =
  if not e.C.e_editable then err "edge %d is not editable" e.C.eid;
  e.C.e_edited <- true;
  e.C.esrc.C.edited <- true;
  ed.n_snippets <- ed.n_snippets + 1;
  match Hashtbl.find_opt ed.edge_code e.C.eid with
  | Some r -> r := !r @ [ s ]
  | None -> Hashtbl.add ed.edge_code e.C.eid (ref [ s ])

(** Delete instruction [idx] of block [b]. Terminators cannot be deleted. *)
let delete ed (b : C.block) idx =
  check_block_editable b;
  if idx < 0 || idx >= Array.length b.C.instrs then
    err "bad deletion point %d in block %d" idx b.C.bid;
  b.C.edited <- true;
  Hashtbl.replace ed.deleted (b.C.bid, idx) ()

let gap_snippets ed (b : C.block) gap =
  match Hashtbl.find_opt ed.gaps (b.C.bid, gap) with Some r -> !r | None -> []

let edge_snippets ed (e : C.edge) =
  match Hashtbl.find_opt ed.edge_code e.C.eid with Some r -> !r | None -> []

let is_deleted ed (b : C.block) idx = Hashtbl.mem ed.deleted (b.C.bid, idx)

(** A block is untouched if no gap code, edge code or deletion refers to
    it — the condition for refolding its delay slot. *)
let block_untouched ed (b : C.block) = not b.C.edited

(* ------------------------------------------------------------------ *)
(* Edited-routine representation                                       *)
(* ------------------------------------------------------------------ *)

type patch =
  | P_none
  | P_label of int  (** pc-relative to a local label (resolved here) *)
  | P_orig of int
      (** pc-relative to the edited location of original address *)
  | P_reloc of int  (** pc-relative to an absolute address *)
  | P_hi_label of int  (** absolute-high of a local label's final address *)
  | P_lo_label of int

type eword = { mutable w : int; mutable patch : patch }

type edited = {
  ed_words : eword array;
  ed_labels : (int, int) Hashtbl.t;  (** label id -> word index *)
  ed_entries : (int * int) list;  (** original entry address -> word index *)
  ed_origin : (int, int) Hashtbl.t;  (** original instr address -> word index *)
  ed_callbacks : (int * Snippet.instance) list;  (** word index, instance *)
  ed_tables : C.table list;  (** dispatch tables to rewrite in place *)
  ed_uses_xlat : bool;
}

let size_bytes ed = 4 * Array.length ed.ed_words

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

type emitter = {
  e : editor;
  words : eword Eel_util.Dyn.t;
  labels : (int, int) Hashtbl.t;  (** label id -> word index *)
  mutable next_label : int;
  origin : (int, int) Hashtbl.t;
  mutable callbacks : (int * Snippet.instance) list;
  mutable pending_stubs : (int * (unit -> unit)) list;  (** label, emit fn *)
  live : Dataflow.live;
  mutable uses_xlat : bool;
}

let here em = Eel_util.Dyn.length em.words

let fresh_label em =
  let l = em.next_label in
  em.next_label <- l + 1;
  l

let place_label em l = Hashtbl.replace em.labels l (here em)

let push em w patch = Eel_util.Dyn.push em.words { w; patch }

let record_origin ?(force = true) em addr =
  if force || not (Hashtbl.mem em.origin addr) then
    Hashtbl.replace em.origin addr (here em)

(* Destination of control flow: a local label or an original address outside
   the routine. *)
type dest = D_label of int | D_orig of int

let block_label em (b : C.block) = 100000 + b.C.bid
(* block labels use a distinct id space; fresh labels start at 0 and stay
   below 100000 because routines are far smaller *)

let dest_of_edge em (e : C.edge) : dest =
  match e.C.ekind with
  | C.Ek_xfer a -> D_orig a
  | _ -> (
      match e.C.edst.C.kind with
      | C.Normal -> D_label (block_label em e.C.edst)
      | _ -> err "unexpected edge destination %d" e.C.edst.C.bid)

let emit_goto em (d : dest) =
  let m = em.e.mach in
  (match d with
  | D_label l -> push em (m.Machine.mk_ba ~disp:0) (P_label l)
  | D_orig a -> push em (m.Machine.mk_ba ~disp:0) (P_orig a));
  push em m.Machine.nop P_none

(* Emit accumulated snippets with scavenged registers from [live]. *)
let emit_snippets em snips ~live =
  List.iter
    (fun s ->
      let inst = Snippet.instantiate em.e.mach s ~live in
      em.e.n_spilled <- em.e.n_spilled + inst.Snippet.in_spilled;
      let start = here em in
      Array.iteri
        (fun i w ->
          let patch =
            match
              List.find_opt
                (fun (r : Template.reloc) -> r.Template.index = i)
                inst.Snippet.in_relocs
            with
            | Some r -> P_reloc r.Template.target
            | None -> P_none
          in
          push em w patch)
        inst.Snippet.in_words;
      if inst.Snippet.in_callback <> None then
        em.callbacks <- (start, inst) :: em.callbacks)
    snips

(* Emit a delay block's body honoring its gap edits and deletions. [force]
   controls origin recording priority (delay copies record weakly). *)
let emit_delay_body em (d : C.block) ~live =
  Array.iteri
    (fun idx (a, (i : Instr.t)) ->
      record_origin ~force:false em a;
      emit_snippets em (gap_snippets em.e d idx) ~live;
      if not (is_deleted em.e d idx) then push em i.Instr.word P_none)
    d.C.instrs;
  emit_snippets em (gap_snippets em.e d (Array.length d.C.instrs)) ~live

(* The single outgoing edge of a delay block (to its final destination). *)
let delay_out (d : C.block) =
  match d.C.succs with
  | [ e ] -> e
  | _ -> err "delay block %d has %d successors" d.C.bid (List.length d.C.succs)

let taken_edge (b : C.block) =
  match
    List.find_opt (fun (e : C.edge) -> e.C.ekind = C.Ek_taken) b.C.succs
  with
  | Some e -> e
  | None -> err "block %d has no taken edge" b.C.bid

let fall_edge (b : C.block) =
  match
    List.find_opt
      (fun (e : C.edge) ->
        match e.C.ekind with C.Ek_fall | C.Ek_xfer _ -> true | _ -> false)
      b.C.succs
  with
  | Some e -> e
  | None -> err "block %d has no fall edge" b.C.bid

(* Is the chain rooted at edge [e] (edge + optional delay block + its out
   edge) free of edits, so the branch can be refolded? *)
let chain_untouched ed (e : C.edge) =
  (not e.C.e_edited)
  &&
  match e.C.edst.C.kind with
  | C.Delay -> block_untouched ed e.C.edst && not (delay_out e.C.edst).C.e_edited
  | _ -> true

(* Final destination reached through edge [e] (skipping a delay block). *)
let chain_dest em (e : C.edge) =
  match e.C.edst.C.kind with
  | C.Delay -> dest_of_edge em (delay_out e.C.edst)
  | _ -> dest_of_edge em e

(* Emit the code carried by edge [e]: edge snippets plus the delay block
   body (if the edge leads through one); returns the final destination. *)
let emit_chain em (e : C.edge) =
  let live = Dataflow.live_on_edge em.live e in
  (match edge_snippets em.e e with
  | [] -> ()
  | snips -> emit_snippets em snips ~live);
  match e.C.edst.C.kind with
  | C.Delay ->
      emit_delay_body em e.C.edst ~live;
      (* code along the delay block's outgoing edge runs after the delay
         instruction, before the final destination *)
      let out = delay_out e.C.edst in
      (match edge_snippets em.e out with
      | [] -> ()
      | snips ->
          emit_snippets em snips ~live:(Dataflow.live_on_edge em.live out));
      dest_of_edge em out
  | _ -> dest_of_edge em e

(* Emit "fall to [d]": nothing if [d] is the next block in layout order,
   otherwise an explicit goto. *)
let emit_fall em d ~next =
  match (d, next) with
  | D_label l, Some (nb : C.block) when l = block_label em nb -> ()
  | _ -> emit_goto em d

(* The run-time translation sequence for an indirect transfer whose target
   is an ORIGINAL code address held in registers (paper §3.3). Clobbers the
   two EEL-reserved scratch registers. *)
let emit_xlat_transfer em ~rs1 ~op2 ~link ~delay_emit =
  let m = em.e.mach in
  em.uses_xlat <- true;
  let g6 = m.Machine.reserved_scratch2 and g7 = m.Machine.reserved_scratch in
  (* old target into %g6 *)
  push em (m.Machine.mk_add ~rs1 ~op2 ~dst:g6) P_none;
  (* the original delay instruction (and its edits) run before the
     transfer, after the target has been captured *)
  delay_emit ();
  (* new target = *(old_target + (xlat_base - old_text_lo)) *)
  List.iter
    (fun w -> push em w P_none)
    (m.Machine.mk_set_const ~reg:g7 em.e.xlat_delta);
  push em
    (m.Machine.mk_ld_word ~addr_rs1:g6 ~addr_op2:(Instr.O_reg g7) ~dst:g7)
    P_none;
  push em (m.Machine.mk_jmp_reg ~rs1:g7 ~op2:(Instr.O_imm 0) ~link) P_none;
  push em m.Machine.nop P_none

(* ------------------------------------------------------------------ *)
(* Block emission                                                      *)
(* ------------------------------------------------------------------ *)

let emit_block em (b : C.block) ~next =
  let ed = em.e in
  let m = ed.mach in
  place_label em (block_label em b);
  if b.C.is_data then
    (* data inside a routine stays in the original image; nothing to emit *)
    ()
  else (
    (* ---- straight-line body ---- *)
    let body_live idx = Dataflow.live_before em.live ed.g b idx in
    let emit_gap idx =
      (* liveness is only needed when there is code to place *)
      match gap_snippets ed b idx with
      | [] -> ()
      | snips -> emit_snippets em snips ~live:(body_live idx)
    in
    Array.iteri
      (fun idx (a, (i : Instr.t)) ->
        (* record BEFORE the gap snippets: a transfer to this instruction
           must execute the code inserted before it *)
        record_origin em a;
        emit_gap idx;
        if not (is_deleted ed b idx) then push em i.Instr.word P_none)
      b.C.instrs;
    let n = Array.length b.C.instrs in
    (match C.term_instr b with
    | Some (taddr, _) -> record_origin em taddr
    | None -> ());
    emit_gap n;
    (* ---- terminator ---- *)
    match b.C.term with
    | C.T_none -> (
        match b.C.succs with
        | [] -> () (* no successors: end of region or dead end *)
        | [ e ] ->
            let d = emit_chain em e in
            emit_fall em d ~next
        | _ -> err "fall-through block %d has multiple successors" b.C.bid)
    | C.T_branch { i; addr } -> (
        let never =
          match i.Instr.ctl with
          | Instr.C_branch { never; _ } -> never
          | _ -> false
        in
        if never then (
          (* bn: no transfer ever happens; emit the delay path inline *)
          let fe = fall_edge b in
          let d = emit_chain em fe in
          emit_fall em d ~next)
        else
          let te = taken_edge b in
          let fe = fall_edge b in
          let foldable =
            ed.fold_delay && chain_untouched ed te && chain_untouched ed fe
          in
          if foldable then (
            (* re-emit the original branch (annul bit preserved) with its
               delay instruction back in the slot *)
            let taken_dest = chain_dest em te in
            (match taken_dest with
            | D_label l -> push em i.Instr.word (P_label l)
            | D_orig a -> push em i.Instr.word (P_orig a));
            (* the delay instruction: taken chain's delay block (always
               present for a conditional branch) *)
            (match te.C.edst.C.kind with
            | C.Delay ->
                let a, di = te.C.edst.C.instrs.(0) in
                record_origin ~force:false em a;
                push em di.Instr.word P_none
            | _ -> err "taken edge of branch at 0x%x lacks a delay block" addr);
            let fall_dest = chain_dest em fe in
            emit_fall em fall_dest ~next)
          else (
            (* expanded form: annul cleared, nop in the slot, taken-edge
               code in an out-of-line stub *)
            let stub = fresh_label em in
            push em (m.Machine.set_annul i.Instr.word false) (P_label stub);
            push em m.Machine.nop P_none;
            (* fall path continues inline *)
            let fall_dest = emit_chain em fe in
            emit_fall em fall_dest ~next;
            em.pending_stubs <-
              ( stub,
                fun () ->
                  place_label em stub;
                  let taken_dest = emit_chain em te in
                  emit_goto em taken_dest )
              :: em.pending_stubs))
    | C.T_goto { i; addr } ->
        let te = taken_edge b in
        if ed.fold_delay && chain_untouched ed te then (
          let d = chain_dest em te in
          (match d with
          | D_label l -> push em i.Instr.word (P_label l)
          | D_orig a -> push em i.Instr.word (P_orig a));
          match te.C.edst.C.kind with
          | C.Delay ->
              let a, di = te.C.edst.C.instrs.(0) in
              record_origin ~force:false em a;
              push em di.Instr.word P_none
          | _ ->
              (* annulled goto: slot never executes *)
              push em m.Machine.nop P_none)
        else (
          let d = emit_chain em te in
          emit_goto em d)
    | C.T_call { addr; _ } | C.T_icall { addr; _ } -> (
        let is_direct = match b.C.term with C.T_call _ -> true | _ -> false in
        (* locate delay slot and surrogate *)
        let dslot =
          match b.C.succs with
          | [ e ] when e.C.edst.C.kind = C.Delay -> e.C.edst
          | _ -> err "call at 0x%x lacks a delay block" addr
        in
        let surrogate = (delay_out dslot).C.edst in
        let cont_edge =
          match surrogate.C.succs with
          | [ e ] -> e
          | _ -> err "call surrogate after 0x%x is malformed" addr
        in
        (if is_direct then (
           let target =
             match b.C.term with C.T_call { target; _ } -> target | _ -> assert false
           in
           push em (m.Machine.mk_call ~disp:0) (P_orig target);
           let a, di = dslot.C.instrs.(0) in
           record_origin ~force:false em a;
           push em di.Instr.word P_none)
         else
           match b.C.term with
           | C.T_icall { i; addr } ->
               let rs1, op2, link =
                 match i.Instr.ctl with
                 | Instr.C_jump_ind { rs1; op2; link } -> (rs1, op2, link)
                 | _ -> assert false
               in
               (* indirect calls go through function pointers holding
                  ORIGINAL addresses: translate at run time *)
               emit_xlat_transfer em ~rs1 ~op2 ~link ~delay_emit:(fun () ->
                   let a, di = dslot.C.instrs.(0) in
                   record_origin ~force:false em a;
                   push em di.Instr.word P_none)
           | _ -> assert false);
        (* continuation: code along the surrogate->continuation edge runs
           "after the call" *)
        let live = Dataflow.live_on_edge em.live cont_edge in
        emit_snippets em (edge_snippets ed cont_edge) ~live;
        match cont_edge.C.ekind with
        | C.Ek_xfer a -> emit_goto em (D_orig a)
        | _ -> emit_fall em (dest_of_edge em cont_edge) ~next)
    | C.T_return { i; addr } ->
        let dslot =
          match b.C.succs with
          | [ e ] when e.C.edst.C.kind = C.Delay -> e.C.edst
          | _ -> err "return at 0x%x lacks a delay block" addr
        in
        (* links hold edited addresses: a return needs no translation *)
        push em i.Instr.word P_none;
        let a, di = dslot.C.instrs.(0) in
        record_origin ~force:false em a;
        push em di.Instr.word P_none
    | C.T_jump { i; addr; table } -> (
        let dslot =
          match b.C.succs with
          | [ e ] when e.C.edst.C.kind = C.Delay -> e.C.edst
          | _ -> err "jump at 0x%x lacks a delay block" addr
        in
        let rs1, op2, link =
          match i.Instr.ctl with
          | Instr.C_jump_ind { rs1; op2; link } -> (rs1, op2, link)
          | _ -> assert false
        in
        (* a table jump's delay block has one computed edge per target *)
        let live = em.live.Dataflow.l_out.(dslot.C.bid) in
        match table with
        | Some tbl when tbl.C.t_addr = -1 ->
            (* literal target: becomes a direct transfer *)
            emit_delay_body em dslot ~live;
            emit_goto em (D_orig tbl.C.t_targets.(0))
        | Some _ ->
            (* dispatch table rewritten in place: the loaded value is
               already an edited address *)
            if block_untouched ed dslot then (
              push em i.Instr.word P_none;
              let a, di = dslot.C.instrs.(0) in
              record_origin ~force:false em a;
              push em di.Instr.word P_none)
            else (
              (* edited delay: capture the (already-new) target first *)
              let g6 = m.Machine.reserved_scratch2 in
              push em (m.Machine.mk_add ~rs1 ~op2 ~dst:g6) P_none;
              emit_delay_body em dslot ~live;
              push em
                (m.Machine.mk_jmp_reg ~rs1:g6 ~op2:(Instr.O_imm 0) ~link)
                P_none;
              push em m.Machine.nop P_none)
        | None ->
            (* unanalyzable: run-time translation *)
            emit_xlat_transfer em ~rs1 ~op2 ~link ~delay_emit:(fun () ->
                emit_delay_body em dslot ~live))
  )

(* ------------------------------------------------------------------ *)
(* produce_edited_routine                                              *)
(* ------------------------------------------------------------------ *)

(** [produce ed] lays out the edited routine (paper §3.3.1). *)
let produce (ed : editor) : edited =
  let g = ed.g in
  let live = liveness ed in
  let em =
    {
      e = ed;
      words = Eel_util.Dyn.create ();
      labels = Hashtbl.create 64;
      next_label = 0;
      origin = Hashtbl.create 256;
      callbacks = [];
      pending_stubs = [];
      live;
      uses_xlat = false;
    }
  in
  (* Layout order: Normal blocks by original address. Reachable blocks
     always; when the CFG is INCOMPLETE (an unanalyzable indirect jump is
     present, §3.3) unreachable code blocks are emitted too — they may be
     targets of the translated jump, so every original instruction needs an
     edited location. *)
  let order =
    List.filter
      (fun (b : C.block) ->
        b.C.kind = C.Normal
        && (b.C.reachable || ((not g.C.complete) && not b.C.is_data)))
      (C.blocks g)
    |> List.sort (fun (a : C.block) b -> compare a.C.baddr b.C.baddr)
  in
  (* entry stubs for entries whose edges carry code *)
  let entry_fixups = ref [] in
  List.iter
    (fun (addr, (eb : C.block)) ->
      match eb.C.succs with
      | [ e ] ->
          let snips = edge_snippets ed e in
          if snips <> [] then (
            let pos = here em in
            emit_snippets em snips ~live:(Dataflow.live_on_edge live e);
            emit_goto em (dest_of_edge em e);
            entry_fixups := (addr, `Idx pos) :: !entry_fixups)
          else entry_fixups := (addr, `Dest (dest_of_edge em e)) :: !entry_fixups
      | _ -> err "entry block %d malformed" eb.C.bid)
    g.C.entries;
  (* blocks *)
  let rec emit_all = function
    | [] -> ()
    | b :: rest ->
        emit_block em b ~next:(match rest with n :: _ -> Some n | [] -> None);
        emit_all rest
  in
  emit_all order;
  (* out-of-line stubs (in creation order) *)
  let rec drain () =
    match List.rev em.pending_stubs with
    | [] -> ()
    | stubs ->
        em.pending_stubs <- [];
        List.iter (fun (_, f) -> f ()) stubs;
        drain ()
  in
  drain ();
  (* ---- resolve local-label branches, expanding span overflows ---- *)
  let words = em.words in
  let span_limit =
    match ed.max_span with
    | Some s -> min s ed.mach.Machine.branch_span
    | None -> ed.mach.Machine.branch_span
  in
  let expansions : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let changed = ref true in
  while !changed do
    changed := false;
    let n = Eel_util.Dyn.length words in
    for idx = 0 to n - 1 do
      let ew = Eel_util.Dyn.get words idx in
      match ew.patch with
      | P_label l -> (
          let target =
            match Hashtbl.find_opt em.labels l with
            | Some t -> t
            | None -> err "unresolved label %d" l
          in
          let disp = 4 * (target - idx) in
          let instr = ed.mach.Machine.lift ew.w in
          let fits =
            abs disp <= span_limit
            &&
            match ed.mach.Machine.retarget instr ~disp with
            | Some w' ->
                ew.w <- w';
                true
            | None -> false
          in
          if not fits then (
            (* §3.3.1: replace by a longer-span sequence — retarget the
               branch at a thunk that materializes the absolute address.
               Thunks live at the end of the routine, so a branch whose
               distance to the END exceeds the span cannot be fixed this
               way; bound the retries and fail loudly instead of looping. *)
            let tries = Option.value ~default:0 (Hashtbl.find_opt expansions idx) in
            if tries >= 2 then
              err
                "branch at word %d cannot reach a long-jump thunk within the \
                 span limit" idx;
            Hashtbl.replace expansions idx (tries + 1);
            let thunk = fresh_label em in
            place_label em thunk;
            let g7 = ed.mach.Machine.reserved_scratch in
            (* sethi %hi(label), %g7 / or %g7, %lo(label), %g7 — the label's
               absolute address is known only to the writer *)
            (match ed.mach.Machine.mk_set_const ~reg:g7 0 with
            | [ hi; lo ] ->
                push em hi (P_hi_label l);
                push em lo (P_lo_label l)
            | ws -> List.iter (fun w -> push em w P_none) ws);
            push em
              (ed.mach.Machine.mk_jmp_reg ~rs1:g7 ~op2:(Instr.O_imm 0) ~link:0)
              P_none;
            push em ed.mach.Machine.nop P_none;
            ew.patch <- P_label thunk;
            changed := true))
      | _ -> ()
    done
  done;
  (* final pass: mark resolved labels as plain words *)
  Eel_util.Dyn.iter
    (fun ew -> match ew.patch with P_label _ -> ew.patch <- P_none | _ -> ())
    words;
  let resolve_dest = function
    | `Idx i -> i
    | `Dest (D_label l) -> Hashtbl.find em.labels l
    | `Dest (D_orig _) -> err "routine entry leads straight out of the routine"
  in
  let tables =
    List.filter_map
      (fun (b : C.block) ->
        match b.C.term with
        | C.T_jump { table = Some t; _ } when t.C.t_addr >= 0 -> Some t
        | _ -> None)
      (C.blocks g)
  in
  {
    ed_words = Eel_util.Dyn.to_array words;
    ed_labels = em.labels;
    ed_entries = List.map (fun (a, d) -> (a, resolve_dest d)) !entry_fixups;
    ed_origin = em.origin;
    ed_callbacks = em.callbacks;
    ed_tables = tables;
    ed_uses_xlat = em.uses_xlat;
  }

(* ------------------------------------------------------------------ *)
(* Post-produce invariant verification                                 *)
(* ------------------------------------------------------------------ *)

(** [verify ed] checks the structural invariants an {!edited} routine must
    satisfy before it may be placed in an output image. Returns the list of
    violations (empty = sound):

    - every word is a representable 32-bit instruction;
    - no unresolved local-label patch survived {!produce};
    - every label, entry stub and origin-map index lies within the emitted
      word array ([= length] is tolerated for degenerate entries that fall
      off the end of a routine whose tail was classified as data). *)
let verify (ed : edited) : string list =
  let n = Array.length ed.ed_words in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun idx (ew : eword) ->
      if ew.w < 0 || ew.w > 0xFFFF_FFFF then
        bad "word %d is not a 32-bit value: 0x%x" idx ew.w;
      match ew.patch with
      | P_label l -> bad "word %d carries an unresolved local label %d" idx l
      | P_none | P_orig _ | P_reloc _ | P_hi_label _ | P_lo_label _ -> ())
    ed.ed_words;
  Hashtbl.iter
    (fun l idx ->
      if idx < 0 || idx > n then bad "label %d resolves outside the routine: %d" l idx)
    ed.ed_labels;
  List.iter
    (fun (orig, idx) ->
      if idx < 0 || idx > n then
        bad "entry 0x%x maps outside the routine: word %d of %d" orig idx n)
    ed.ed_entries;
  Hashtbl.iter
    (fun orig idx ->
      if idx < 0 || idx > n then
        bad "origin 0x%x maps outside the routine: word %d of %d" orig idx n)
    ed.ed_origin;
  List.rev !problems

(** [verify_exn ?name ed] — {!verify}, with violations surfaced as the
    structured {!Diag.Invariant_error} every oracle and driver already
    matches on, instead of an ad-hoc exception. This is the form the
    differential-execution oracle invokes automatically on every routine it
    lays out, so invariant violations degrade into [Result.Error] values
    (via {!Diag.guard}) rather than crashing a verification run. *)
let verify_exn ?(name = "<routine>") (ed : edited) =
  match verify ed with
  | [] -> ()
  | p :: rest ->
      Diag.invariant_error "routine %s: %s%s" name p
        (match rest with
        | [] -> ""
        | _ -> Printf.sprintf " (and %d more)" (List.length rest))
