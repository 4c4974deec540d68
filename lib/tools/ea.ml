(** The first word of each tracer, Active Memory and SFI snippet: the site's
    effective address, recomputed into [%v0] before the memory instruction
    runs, while its address registers still hold their values. *)

(** [word mach] assembles [add %g0, 0, %v0] once, for its [%v0] hole, and
    returns the function that builds one instruction's
    [add rs1, op2, %v0] through [Machine.mk_add]. *)
let word (mach : Eel_arch.Machine.t) =
  let hole = Eel.Snippet.template mach "add %g0, 0, %v0" in
  fun (i : Eel_arch.Instr.t) ->
    match i.Eel_arch.Instr.ea with
    | Some (rs1, op2) ->
        { hole with Eel_arch.Template.words = [| mach.mk_add ~rs1 ~op2 ~dst:0 |] }
    | None -> invalid_arg "Ea.word: not a memory instruction"
