(** Assembled code templates — the machine-level substance of code snippets.

    A template is a sequence of encoded machine words plus two kinds of
    unresolved references:

    - {!vreg_use}: occurrences of {e virtual registers} (written [%v0]–[%v7]
      in snippet assembly). EEL's snippet machinery assigns them dead
      physical registers at each insertion point (register scavenging,
      paper §3.5) and patches the recorded bit fields.
    - {!reloc}: pc-relative control transfers to {e absolute} targets (e.g.
      a snippet calling a handler routine). They can only be resolved once
      the snippet's final address is known, mirroring the paper's snippet
      call-back mechanism ("adjust instruction displacements when an
      instruction's final location is known"). *)

type vreg_use = {
  index : int;  (** which word of the template *)
  lo : int;
  hi : int;  (** the register bit field to patch *)
  vreg : int;  (** virtual register number (0-based) *)
}

type reloc = {
  index : int;  (** word holding the pc-relative control transfer *)
  target : int;  (** absolute byte address the transfer must reach *)
}

type t = { words : int array; vuses : vreg_use list; relocs : reloc list }

let length t = Array.length t.words

(** [concat a b] is [a]'s words followed by [b]'s, with [b]'s
    virtual-register uses and relocations re-indexed past [a]. Tools join a
    once-assembled body to the words they build for each site this way. *)
let concat a b =
  let n = length a in
  {
    words = Array.append a.words b.words;
    vuses =
      a.vuses @ List.map (fun (u : vreg_use) -> { u with index = u.index + n }) b.vuses;
    relocs =
      a.relocs @ List.map (fun (r : reloc) -> { r with index = r.index + n }) b.relocs;
  }

(** Number of distinct virtual registers used. *)
let num_vregs t =
  List.fold_left (fun acc (u : vreg_use) -> max acc (u.vreg + 1)) 0 t.vuses

(** [subst_vregs t assign] returns the words with every virtual-register use
    replaced by [assign.(vreg)]. Relocations remain to be applied. *)
let subst_vregs t (assign : int array) =
  let words = Array.copy t.words in
  List.iter
    (fun (u : vreg_use) ->
      words.(u.index) <-
        Eel_util.Word.set_bits ~lo:u.lo ~hi:u.hi words.(u.index) assign.(u.vreg))
    t.vuses;
  words
