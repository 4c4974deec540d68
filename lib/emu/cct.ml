(** The calling-context tree of a run: its dynamic instructions, and
    their class mix, by the chain of calls that reached them.

    The tree is a consumer of the machine's per-instruction hook
    ({!Emu.t}'s [hook]): {!hook} turns each [Ev_exec] into one {!step}.
    An armed hook keeps a run on tier-1, so the tree sees every
    instruction in order and asks nothing of the compiled tier or of the
    flat {!Emu.profile}. [eel_report]'s hotspot phase is its reader.

    A call, or a [jmpl] leaving its return address in %o7/%i7, arms a
    push; any other [jmpl] arms a pop. The next instruction reached
    non-sequentially takes what is armed, if it arrives within the
    transfer's DCTI window (the transfer plus its delay slot): a push
    enters the current context's child for the arrival pc, and a pop
    unwinds to the frame expecting the arrival pc. *)

open Eel_sparc

(** One context: a routine entry reached by a call, with the
    instructions attributed to it. *)
type node = {
  entry : int;  (** arrival pc of the call target; -1 at the root *)
  mutable self : int;
  classes : int array;  (** indexed like {!Emu.iclass_names} *)
  children : (int, node) Hashtbl.t;  (** callee entry pc -> context *)
}

(** A shadow-stack frame, pushed when a call arrives: the return address
    the caller expects and the context the call entered. The stack alone
    determines the current context (the top frame's callee, or the root)
    and the depth. *)
type frame = { ret : int; callee : node; depth : int }

type t = {
  root : node;  (** the entry routine's context *)
  mutable stack : frame list;  (** the callers of [cur], innermost first *)
  mutable cur : node;  (** the context executing *)
  mutable insns : int;  (** instructions stepped *)
  mutable last_pc : int;
  mutable pending_call : int;
      (** return address of a just-executed call, [min_int] when none *)
  mutable pending_ret : bool;
  mutable pending_at : int;  (** [insns] when the pending transfer armed *)
}

(** Depth cap of the shadow stack: a call arriving at it enters no new
    context, so runaway recursion stays bounded, and its callee's
    instructions go to the capped context. Returns past the cap still
    unwind by matching return addresses. *)
let max_depth = 512

let node entry =
  {
    entry;
    self = 0;
    classes = Array.make (Array.length Emu.iclass_names) 0;
    children = Hashtbl.create 4;
  }

let create () =
  let root = node (-1) in
  {
    root;
    stack = [];
    cur = root;
    insns = 0;
    last_pc = min_int;
    pending_call = min_int;
    pending_ret = false;
    pending_at = 0;
  }

let depth = function fr :: _ -> fr.depth | [] -> 0

(* The stack below the frame expecting return address [pc], or [stk]
   itself when no frame does: unwinding through intermediate frames
   handles tail-call escapes, and a return to an address no frame expects
   (a computed jump, say) pops nothing. *)
let rec popped pc stk = function
  | fr :: rest -> if fr.ret = pc then rest else popped pc stk rest
  | [] -> stk

(* A non-sequential arrival at [pc] takes the pending transfer, if it is
   still live, and clears it. *)
let arrive t pc =
  let live = t.insns - t.pending_at <= 1 in
  if t.pending_call <> min_int then begin
    if live && depth t.stack < max_depth then begin
      let child =
        match Hashtbl.find_opt t.cur.children pc with
        | Some c -> c
        | None ->
            let c = node pc in
            Hashtbl.add t.cur.children pc c;
            c
      in
      t.stack <-
        { ret = t.pending_call; callee = child; depth = depth t.stack + 1 }
        :: t.stack
    end
  end
  else if t.pending_ret && live then t.stack <- popped pc t.stack t.stack;
  t.cur <- (match t.stack with fr :: _ -> fr.callee | [] -> t.root);
  t.pending_call <- min_int;
  t.pending_ret <- false

(** [step t ~pc insn] records one executed instruction: the arrival when
    [pc] was reached non-sequentially, the instruction in the current
    context, and the call or return it arms. *)
let step t ~pc insn =
  if pc <> t.last_pc + 4 then arrive t pc;
  t.insns <- t.insns + 1;
  t.last_pc <- pc;
  let k = Emu.iclass_of insn in
  t.cur.self <- t.cur.self + 1;
  t.cur.classes.(k) <- t.cur.classes.(k) + 1;
  match insn with
  | Insn.Call _ | Insn.Jmpl { rd = 15 | 31; _ } ->
      t.pending_call <- pc + 8;
      t.pending_at <- t.insns
  | Insn.Jmpl _ ->
      t.pending_ret <- true;
      t.pending_at <- t.insns
  | _ -> ()

(** The machine hook that feeds [t]: install it as {!Emu.t}'s [hook]
    before {!Emu.run}. The word it is handed is the one that executes:
    the predecode table is kept coherent with memory. *)
let hook t = function
  | Emu.Ev_exec { pc; word } -> step t ~pc (Insn.decode word)
  | Emu.Ev_load _ | Emu.Ev_store _ -> ()

(** [hotspot ~name_of ~root t] is the tree as a named
    {!Eel_obs.Hotspot.t}: [root] is the stack of frames the entry
    routine's context is filed under (the program and the routine's name,
    say, so many programs merge into one flamegraph), and [name_of] names
    every called context by its entry pc. *)
let hotspot ~name_of ~root t =
  let h = Eel_obs.Hotspot.create ~classes:Emu.iclass_names () in
  let rec walk rev_stack n =
    if n.self > 0 then
      Eel_obs.Hotspot.add h ~stack:(List.rev rev_stack) ~classes:n.classes
        ~self:n.self ();
    (* iteration order is irrelevant: Hotspot sums commute *)
    Hashtbl.iter (fun entry c -> walk (name_of entry :: rev_stack) c) n.children
  in
  walk (List.rev root) t.root;
  h
