(** A semantics-driven emulator: execute programs directly from the spawn
    description's RTL.

    This is an independent implementation of the SPARC's behaviour — shared
    code with the handwritten emulator ({!Eel_emu.Emu}) is limited to the
    machine-state container (memory, registers, output buffer, system
    calls). Whole-program equivalence between the two emulators is a strong
    check that the 100-line description really captures the instruction
    set's semantics, which is what makes spawn-derived analysis trustworthy
    (paper §4: the machine description "specifies both instruction syntax
    and semantics").

    Parallel statements ([,]) read the pre-phase state: all right-hand
    sides and guards are evaluated before any effect is committed. The
    pc/npc rule is uniform: a [pc := t] in the delay phase redirects [npc];
    [annul] skips the instruction that would otherwise execute next. *)

open Ast
module Emu = Eel_emu.Emu

exception Interp_error of string

let ierr fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

(* branch-test tags over the condition-codes value (N=8, Z=4, V=2, C=1) —
   implemented independently of Eel_sparc.Insn.cond_eval *)
let test_tag tag cc =
  let n = cc land 8 <> 0
  and z = cc land 4 <> 0
  and v = cc land 2 <> 0
  and c = cc land 1 <> 0 in
  let ( <> ) a b = (a || b) && not (a && b) in
  match tag with
  | "a" -> true
  | "n" -> false
  | "e" -> z
  | "ne" -> not z
  | "g" -> not (z || n <> v)
  | "le" -> z || n <> v
  | "ge" -> not (n <> v)
  | "l" -> n <> v
  | "gu" -> not (c || z)
  | "leu" -> c || z
  | "cc" -> not c
  | "cs" -> c
  | "pos" -> not n
  | "neg" -> n
  | "vc" -> not v
  | "vs" -> v
  | t -> ierr "unknown test tag '%s" t

let eval_builtin f args =
  let open Eel_util.Word in
  match (f, args) with
  | "cc_add", [ a; b ] ->
      let r = add a b in
      let n = if r land 0x80000000 <> 0 then 8 else 0 in
      let z = if r = 0 then 4 else 0 in
      let v =
        if lnot (a lxor b) land (a lxor r) land 0x80000000 <> 0 then 2 else 0
      in
      let c = if a + b > 0xFFFFFFFF then 1 else 0 in
      n lor z lor v lor c
  | "cc_sub", [ a; b ] ->
      let r = sub a b in
      let n = if r land 0x80000000 <> 0 then 8 else 0 in
      let z = if r = 0 then 4 else 0 in
      let v = if (a lxor b) land (a lxor r) land 0x80000000 <> 0 then 2 else 0 in
      let c = if a < b then 1 else 0 in
      n lor z lor v lor c
  | "cc_logic", [ r; _ ] | "cc_logic", [ r ] ->
      (if r land 0x80000000 <> 0 then 8 else 0) lor if r = 0 then 4 else 0
  | "ltu", [ a; b ] -> if mask a < mask b then 1 else 0
  | "hmulu", [ a; b ] -> mask ((a * b) lsr 32)
  | "hmuls", [ a; b ] -> mask ((signed a * signed b) asr 32)
  | "divu", [ y; a; b ] ->
      if b = 0 then ierr "division by zero";
      mask (((y lsl 32) lor a) / b)
  | "divs", [ y; a; b ] ->
      if b = 0 then ierr "division by zero";
      of_signed (((signed y * 4294967296) + a) / signed b)
  | f, _ -> ierr "bad builtin %s" f

(* one instruction's effects, gathered before committing *)
type effect =
  | Ef_reg of int * int
  | Ef_store of int * int * int  (** addr, width, value *)
  | Ef_pc of int
  | Ef_annul
  | Ef_syscall of int

let rec eval (t : Emu.t) vars e =
  let ev = eval t vars in
  let open Eel_util.Word in
  match e with
  | E_int v -> mask v
  | E_field _ -> ierr "unsubstituted field"
  | E_sext (a, k) -> mask (sext k (ev a))
  | E_reg (_, i) -> Emu.reg t (ev i)
  | E_pc -> t.Emu.pc
  | E_var x -> (
      match Hashtbl.find_opt vars x with
      | Some v -> v
      | None -> ierr "unbound temporary %s" x)
  | E_bin (op, a, b) -> (
      let a = ev a and b = ev b in
      match op with
      | Add -> add a b
      | Sub -> sub a b
      | And -> a land b
      | Or -> a lor b
      | Xor -> mask (a lxor b)
      | Shl -> sll a b
      | Shr -> srl a b
      | Sra -> sra a b
      | Eq -> if a = b then 1 else 0
      | Ne -> if a <> b then 1 else 0
      | Mulu -> mul a b
      | Muls -> mul a b)
  | E_mem (a, w, signed) -> Emu.load_mem t (ev a) w ~signed
  | E_builtin (f, args) -> eval_builtin f (List.map ev args)
  | E_test (E_tag g, cc) -> if test_tag g (ev cc) then 1 else 0
  | E_test _ -> ierr "test applied to a non-tag"
  | E_tag _ -> ierr "bare tag in expression"
  | E_cond (c, a, b) -> if ev c <> 0 then ev a else ev b
  | E_app _ | E_lam _ | E_rtl _ -> ierr "unreduced term at run time"

(* gather a phase's effects with parallel (pre-state) evaluation *)
let rec gather t vars stmts acc =
  List.fold_left
    (fun acc st ->
      match st with
      | S_assign (L_var x, e) ->
          (* temporaries are sequential bookkeeping, visible immediately *)
          Hashtbl.replace vars x (eval t vars e);
          acc
      | S_assign (L_reg (_, i), e) ->
          Ef_reg (eval t vars i, eval t vars e) :: acc
      | S_assign (L_pc, e) -> Ef_pc (eval t vars e) :: acc
      | S_store (a, w, v) -> Ef_store (eval t vars a, w, eval t vars v) :: acc
      | S_if (c, then_, else_) ->
          let taken = eval t vars c <> 0 in
          List.fold_left
            (fun acc ph -> gather t vars ph acc)
            acc
            (if taken then then_ else else_)
      | S_annul -> Ef_annul :: acc
      | S_syscall e -> Ef_syscall (eval t vars e) :: acc)
    acc stmts

(** Execute one instruction via the description's semantics. *)
let step (el : Elab.t) (t : Emu.t) =
  let pc = t.Emu.pc in
  if pc land 3 <> 0 then raise (Emu.Fault (Printf.sprintf "misaligned pc 0x%x" pc));
  if pc < 0 || pc + 4 > t.Emu.size then
    raise (Emu.Fault (Printf.sprintf "pc out of range 0x%x" pc));
  let word = Eel_util.Bytebuf.get32_be t.Emu.mem pc in
  t.Emu.ninsns <- t.Emu.ninsns + 1;
  match Elab.instance el word with
  | None ->
      raise
        (Emu.Fault (Printf.sprintf "illegal instruction 0x%08x at pc=0x%x" word pc))
  | Some inst ->
      let vars = Hashtbl.create 4 in
      let next_pc = ref t.Emu.npc in
      let next_npc = ref (t.Emu.npc + 4) in
      let annul = ref false in
      let apply = function
        | Ef_reg (r, v) -> Emu.set_reg t r v
        | Ef_store (a, w, v) -> Emu.store_mem t a w v
        | Ef_pc v -> next_npc := v
        | Ef_annul -> annul := true
        | Ef_syscall n -> Emu.syscall t n
      in
      List.iter
        (fun phase -> List.iter apply (List.rev (gather t vars phase [])))
        inst.Elab.i_rtl;
      if !annul then (
        next_pc := !next_npc;
        next_npc := !next_npc + 4);
      t.Emu.pc <- !next_pc;
      t.Emu.npc <- !next_npc

(** Run a whole executable under the RTL interpreter. *)
let run ?(fuel = 200_000_000) (el : Elab.t) exe =
  let t = Emu.load exe in
  while t.Emu.exited = None do
    if t.Emu.ninsns >= fuel then raise Emu.Out_of_fuel;
    step el t
  done;
  ( {
      Emu.exit_code = Option.get t.Emu.exited;
      insns = t.Emu.ninsns;
      loads = t.Emu.nloads;
      stores = t.Emu.nstores;
      out = Buffer.contents t.Emu.output;
    },
    t )
