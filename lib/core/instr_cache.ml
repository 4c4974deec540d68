(** Instruction sharing (paper §3.4).

    "To improve efficiency, EEL allocates only one instruction to represent
    all instances of a particular machine instruction. Typically, this
    optimization reduces the number of allocated EEL instructions by a
    factor of four."

    EEL instructions ({!Eel_arch.Instr.t}) are position independent — control
    transfer targets are displacements — so all occurrences of one encoding
    word can share a single value. The cache can be disabled to measure the
    effect (experiment E5), which the [eel.stats.instrs_lifted] (words
    lifted) and [eel.stats.instrs_alloc] (objects allocated) metrics
    counters show. *)

type t = {
  mach : Eel_arch.Machine.t;
  table : (int, Eel_arch.Instr.t) Hashtbl.t;
  enabled : bool;
}

let create ?(enabled = true) mach = { mach; table = Hashtbl.create 1024; enabled }

(** [lifter c] is [c]'s lifting function for one text scan or CFG build:
    [lifter c word] returns the (possibly shared) EEL instruction for a
    machine word and bumps the [eel.stats.instrs_lifted] and
    [eel.stats.instrs_alloc] {!Eel_obs.Metrics} counters. The counters are
    looked up once, when the lifter is made, in the calling domain's
    registry: make one lifter per scan, not per word, and lift on the
    domain that made it. The hit path uses [Hashtbl.find] with an
    exception handler rather than [find_opt], so a shared lookup allocates
    nothing. *)
let lifter c =
  let lifted = Eel_obs.Metrics.counter "eel.stats.instrs_lifted"
  and allocated = Eel_obs.Metrics.counter "eel.stats.instrs_alloc" in
  fun word ->
    Eel_obs.Metrics.incr lifted;
    if not c.enabled then (
      Eel_obs.Metrics.incr allocated;
      c.mach.Eel_arch.Machine.lift word)
    else
      match Hashtbl.find c.table word with
      | i -> i
      | exception Not_found ->
          let i = c.mach.Eel_arch.Machine.lift word in
          Eel_obs.Metrics.incr allocated;
          Hashtbl.add c.table word i;
          i

(** Number of distinct instruction objects allocated through this cache. *)
let unique c = Hashtbl.length c.table
