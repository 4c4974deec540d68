(** Code snippets (paper §3.5, Figs. 2 and 5).

    "A code snippet encapsulates foreign code that is added to an executable.
    [...] EEL finds the live registers at the point at which the snippet is
    inserted and assigns dead (unused) registers to the snippet. If EEL
    cannot find enough dead registers, it wraps the snippet with code to
    spill registers to the stack."

    A snippet's body is written in the target machine's assembly syntax with
    {e virtual registers} ([%v0]–[%v7]) standing for the registers EEL will
    scavenge, and [$name] parameters for tool-supplied constants (counter
    addresses, handler entry points). As in the paper, a tool assembles a
    body once ({!template}) and makes one snippet per site from it
    ({!of_template}), customizing each copy by patching constant fields
    ({!patch_hi}/{!patch_lo} — the paper's [SET_SETHI_HI] idiom) or by
    joining it to words built for the site ({!Template.concat}). A snippet
    may also carry a {e call-back} that runs after register allocation and
    placement, receiving the final instruction words and address (used for
    displacement fix-ups and address recording). *)

open Eel_arch

(** Context passed to a snippet call-back after register allocation and
    placement (paper §3.5). The call-back may modify [cb_words] in place
    but must not change the snippet's length. *)
type cb_ctx = {
  cb_words : int array;  (** final, register-allocated instruction words *)
  cb_addr : int;  (** address of the snippet's first instruction *)
  cb_assigned : int array;  (** virtual register -> physical register *)
}

type t = {
  sn_template : Template.t;
  sn_forbid : Regset.t;
      (** registers the allocator must not use even if dead (paper: "a
          snippet must use a particular register ... EEL should not spill or
          assign it") *)
  sn_callback : (cb_ctx -> unit) option;
}

exception Snippet_error of string

(* the paper's object census (§5) counts snippets too *)
let count_alloc () =
  Eel_obs.Metrics.incr (Eel_obs.Metrics.counter "eel.stats.snippets_alloc")

(** [template mach ?params body] assembles a snippet body once, with its
    [$name] parameters bound from [params]. Raises {!Snippet_error} when the
    body does not assemble. *)
let template (mach : Machine.t) ?(params = []) body =
  match mach.Machine.asm ~params body with
  | Error m -> raise (Snippet_error m)
  | Ok t -> t

(** [of_template ?forbid ?callback t] makes one site's snippet from an
    assembled template; the template itself is shared, never modified. *)
let of_template ?(forbid = Regset.empty) ?callback sn_template =
  count_alloc ();
  { sn_template; sn_forbid = forbid; sn_callback = callback }

(** [of_asm mach ?params ?forbid ?callback body] is [of_template] of
    [template mach ?params body]: a one-off snippet. A tool placing the same
    body at many sites assembles it once with {!template} instead. *)
let of_asm mach ?params ?forbid ?callback body =
  of_template ?forbid ?callback (template mach ?params body)

let length s = Template.length s.sn_template

(** [patch s index f] rewrites template word [index] with [f] — the
    low-level customization hook of paper Fig. 5 ([find_inst] +
    [SET_SETHI_HI]). Returns a new snippet; [s] and its template are left
    as they were. *)
let patch s index f =
  let words = Array.copy s.sn_template.Template.words in
  words.(index) <- f words.(index);
  { s with sn_template = { s.sn_template with Template.words } }

(** [patch_hi mach s index ~value] sets the high-part constant field of
    word [index] (a SPARC [sethi]) to [value]'s, through
    [Machine.set_const_hi]. *)
let patch_hi (mach : Machine.t) s index ~value =
  patch s index (fun w -> mach.Machine.set_const_hi w ~value)

(** [patch_lo mach s index ~value] sets the low-part constant field of word
    [index] (the [%lo] immediate of an [or], [ld] or [st]) to [value]'s,
    through [Machine.set_const_lo]. *)
let patch_lo (mach : Machine.t) s index ~value =
  patch s index (fun w -> mach.Machine.set_const_lo w ~value)

(** Result of instantiating a snippet at a program point. *)
type instance = {
  in_words : int array;  (** body with registers assigned, spills wrapped *)
  in_relocs : Template.reloc list;  (** indices adjusted for the prologue *)
  in_callback : (cb_ctx -> unit) option;
  in_assigned : int array;
  in_body_off : int;  (** index of the first body word (after spill code) *)
  in_spilled : int;  (** number of spilled registers (for statistics) *)
}

(** EEL's red zone: snippet spill slots live below the stack pointer. The
    ABI in this repository reserves 64 bytes of red zone for the editor. *)
let red_zone = 64

(** [instantiate mach s ~live] performs context-dependent register
    allocation (scavenging): virtual registers receive registers that are
    dead at the insertion point; when too few are dead, victims are spilled
    around the body. *)
let instantiate (mach : Machine.t) s ~live =
  let nv = Template.num_vregs s.sn_template in
  let avail =
    Regset.diff
      (Regset.diff mach.Machine.allocatable live)
      s.sn_forbid
  in
  let assigned = Array.make (max nv 1) (-1) in
  let pool = ref avail in
  let spills = ref [] in
  for v = 0 to nv - 1 do
    match Regset.choose !pool with
    | Some r ->
        assigned.(v) <- r;
        pool := Regset.remove r !pool
    | None ->
        (* scavenging failed: spill a live allocatable register *)
        let victims =
          Regset.diff
            (Regset.diff mach.Machine.allocatable s.sn_forbid)
            (Regset.of_list
               (List.filter (fun r -> r >= 0) (Array.to_list assigned)))
        in
        let victims =
          Regset.diff victims (Regset.of_list (List.map fst !spills))
        in
        (match Regset.choose victims with
        | None -> raise (Snippet_error "no spillable register for snippet")
        | Some r ->
            let slot = -8 * (List.length !spills + 1) in
            if -slot > red_zone then
              raise (Snippet_error "snippet needs too many registers");
            spills := (r, slot) :: !spills;
            assigned.(v) <- r)
  done;
  let body = Template.subst_vregs s.sn_template assigned in
  let spills = List.rev !spills in
  let pro =
    List.map (fun (r, slot) -> mach.Machine.mk_spill ~reg:r ~sp_off:slot) spills
  in
  let epi =
    List.map (fun (r, slot) -> mach.Machine.mk_unspill ~reg:r ~sp_off:slot) spills
  in
  let npro = List.length pro in
  let in_words = Array.of_list (pro @ Array.to_list body @ epi) in
  let in_relocs =
    List.map
      (fun (r : Template.reloc) -> { r with Template.index = r.Template.index + npro })
      s.sn_template.Template.relocs
  in
  {
    in_words;
    in_relocs;
    in_callback = s.sn_callback;
    in_assigned = Array.sub assigned 0 nv;
    in_body_off = npro;
    in_spilled = List.length spills;
  }
