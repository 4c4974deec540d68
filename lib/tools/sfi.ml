(** Software fault isolation (sandboxing) — paper §1, citing Wahbe et al.
    [27]: "software fault isolation (sandboxing) implements protection
    domains by modifying code to prevent it from referencing or transferring
    control out of its domain."

    Every store's effective address is forced into a power-of-two sandbox
    segment before the store executes: [addr' = (addr & (size-1)) | base].
    The original store is deleted and replaced by a store through the
    sandboxed address (held in a scavenged register). Stores that already
    cannot escape are still rewritten — the transformation is meant to be
    sound without proving anything about the program.

    This demonstrates EEL's {e delete + insert} editing (paper §3.3.1) as
    opposed to the purely additive instrumentation of qpt2/Active Memory. *)

module E = Eel.Executable
module C = Eel.Cfg
module Snippet = Eel.Snippet
module Instr = Eel_arch.Instr
module Template = Eel_arch.Template
open Eel_sparc

type t = {
  edited : Eel_sef.Sef.t;
  exec : E.t;  (** the analyzed executable (address maps, CFG anchors) *)
  seg_base : int;
  seg_size : int;
  guarded : int;  (** stores rewritten *)
  skipped_uneditable : int;
}

(* Sandboxes %v0, the store's effective address computed by the word
   {!Ea.word} puts first: [%v0 := (%v0 & mask) | base]. *)
let guard_body =
  {|
        sethi %hi($mask), %v1
        or %v1, %lo($mask), %v1
        and %v0, %v1, %v0
        sethi %hi($base), %v1
        or %v0, %v1, %v0
|}

(* [rebased_store mach] returns the function that re-emits a site's store
   through the sandboxed address, [op rd, [%v0]]; the [%v0] hole is the
   one the assembler records for [st %g0, [%v0]]. *)
let rebased_store mach =
  let hole = Snippet.template mach "st %g0, [%v0]" in
  fun (i : Instr.t) ->
    match Insn.decode i.Instr.word with
    | Insn.Mem { op; rd; _ } when Insn.mem_is_store op ->
        let word = Insn.encode (Insn.Mem { op; rs1 = 0; op2 = Insn.O_imm 0; rd }) in
        { hole with Template.words = [| word |] }
    | _ -> invalid_arg "sfi: not a store"

(** [instrument mach exe ~seg_base ~seg_size] rewrites every editable store
    to stay within [seg_base, seg_base+seg_size). [seg_size] must be a
    power of two and [seg_base] aligned to it. *)
let instrument mach exe ~seg_base ~seg_size =
  if seg_size land (seg_size - 1) <> 0 then invalid_arg "sfi: size not a power of 2";
  if seg_base land (seg_size - 1) <> 0 then invalid_arg "sfi: base misaligned";
  let t = E.read_contents mach exe in
  let ea = Ea.word mach and store = rebased_store mach in
  let guard =
    Snippet.template mach
      ~params:[ ("mask", seg_size - 1); ("base", seg_base) ]
      guard_body
  in
  let guarded = ref 0 and skipped = ref 0 in
  let do_routine (r : E.routine) =
    let g = E.control_flow_graph t r in
    let ed = E.editor t r in
    List.iter
      (fun (b : C.block) ->
        if b.C.reachable && not b.C.is_data then
          Array.iteri
            (fun idx (_, (i : Instr.t)) ->
              if i.Instr.cat = Instr.Store then
                if not b.C.editable then incr skipped
                else (
                  Eel.Edit.add_before ed b idx
                    (Snippet.of_template
                       Template.(concat (concat (ea i) guard) (store i)));
                  Eel.Edit.delete ed b idx;
                  incr guarded))
            b.C.instrs)
      (C.blocks g);
    E.produce_edited_routine t r
  in
  E.iter_routines t do_routine;
  {
    edited = E.to_edited_sef t ();
    exec = t;
    seg_base;
    seg_size;
    guarded = !guarded;
    skipped_uneditable = !skipped;
  }

(** [clamp t addr] — the sandbox transfer function the rewritten stores
    apply: [addr' = (addr & (size-1)) | base]. *)
let clamp (t : t) addr = addr land (t.seg_size - 1) lor t.seg_base

(** The tool's edit contract: SFI adds no bookkeeping state of its own —
    its observable effect is that {e every} program store address passes
    through {!clamp} (declared as the contract's [addr_norm], applied to
    the original run's stores before comparison), plus possible snippet
    spills in the red zone. With a sandbox segment covering the whole
    image, the clamp is the identity and the edited program must be
    store-for-store identical to the original. *)
let contract (t : t) =
  Eel_equiv.Contract.make "sfi" ~red_zone:Snippet.red_zone
    ~addr_norm:(clamp t)

(** SFI keeps no instrumentation state — there is no word whose corruption
    its contract's checks would notice, so the count-skew fault class does
    not apply. (Its lies live elsewhere: the phantom-transform and masking
    attacks on [addr_norm] and the event filter.) *)
let fault_targets (_ : t) : (string * int * int) list = []
