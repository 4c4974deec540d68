(** Tier-2 execution: hot basic blocks compiled to OCaml closures.

    The tier-1 interpreter ({!Emu.run}) dispatches one predecoded [Insn.t]
    at a time and re-materializes the full pc/npc machine after every
    instruction. This module adds a second tier in the style of a
    baseline JIT: straight-line basic blocks that the program enters often
    enough (a hotness threshold over non-sequential arrivals, the same
    notion of "block entry" as the ground-truth profile) are compiled once
    into a chain of OCaml closures, and compiled blocks link directly to
    their compiled successors, so steady-state execution never consults
    the decoder, the dispatch [match], or the pc/npc registers at all —
    those are materialized only at block boundaries.

    {2 Exactness and OSR deopt}

    The emulator is the repository's ground truth, so tier-2 must be
    {e indistinguishable} from tier-1: same registers, same memory, same
    observable events in the same order, same fault messages at the same
    instruction counts. Anything the straight-line code cannot reproduce
    exactly triggers an on-stack-replacement transfer back to the
    interpreter ("On-Stack Replacement à la Carte" is the playbook): the
    closure materializes pc/npc/ninsns at the current instruction
    boundary, raises {!Deopt}, and the interpreter replays from there.
    Deopt triggers:

    - {b faults} — a compiled memory access or division pre-checks its
      operands and deopts {e before} any side effect, so the interpreter
      replays the instruction and produces the exact fault message,
      [Ob_store]-before-[Ob_fault] event order, and counter values;
    - {b traps} — [Ticc] (syscalls, OS layer) is never compiled; the
      scanner cuts the block before it;
    - {b fuel} — a block is only entered when the remaining budget covers
      its worst-case length, so {!Emu.Out_of_fuel} always fires from the
      interpreter at the exact instruction, mid-block cutoffs included;
    - {b self-modifying code} — a store into the predecoded text range
      flows through {!Emu.invalidate_code} (keeping the tier-1 table
      coherent); when the word was decoded, the {!Emu.t}'s
      [on_invalidate] hook kills every compiled block covering it and
      unlinks it from its chain predecessors. A block that invalidates
      {e itself} completes the store — its effects are exactly tier-1's —
      and deopts at the next instruction boundary;
    - {b armed instrumentation} — per-instruction hooks and poke plans
      need the interpreter; {!Emu.run} never dispatches to tier-2 while
      one is armed. Observable-event sinks ({!Emu.set_obs}) {e are}
      supported in compiled code: stores emit [Ob_store] from the closure
      with their static pc, after the fault pre-check, so the
      differential oracle can diff a tier-2 run against a tier-1 run
      event-for-event (and does, corpus-wide, in the tests). So are
      ground-truth profiles (see below).

    {2 Profiling compiled code}

    An armed {!Emu.profile} stays exact without per-instruction work. A
    block's instructions are sequential, so only its first can be a block
    entry, and each exit path runs a prefix of its words. {!compile}
    summarizes every path once (its length, last pc and class mix from
    {!Emu.iclass_of}). A profiled run chains blocks through its own
    driver, which carries the pc last retired instead of storing it at
    every exit, and hands it back ({!settle}) whenever control leaves:
    before an OSR replay and when the chain ends. A block exit bumps two
    counters: the block's arrivals, when it was entered non-sequentially,
    and the runs of the path it took. The per-pc, per-leader and class
    tables are derived from them when the profile is folded: when {!run}
    returns or raises and when a block is killed. An OSR deopt replays
    {!Emu.profile_step} over the prefix of the block that ran.

    {2 Code cache}

    Compiled blocks are indexed by entry pc; a word-address cover map
    supports invalidation. Chaining installs direct [cblock] references in
    the taken/fall-through slots and records the back-edge, so a kill can
    sever every inbound chain in O(preds). Blocks never survive a store
    into their range — re-arrival recompiles from the fresh bytes. *)

open Eel_sparc
module W = Eel_util.Word

(** Raised (and caught inside {!run}) by compiled code after an OSR state
    transfer: pc/npc/ninsns are materialized and the interpreter takes
    over at that boundary. Never escapes this module. *)
exception Deopt

(** A compiled basic block: up to {!max_body} straight-line instructions
    plus an optional control-transfer terminator with its delay slot
    folded in at compile time. *)
type cblock = {
  cb_pc : int;  (** entry address *)
  cb_len : int;  (** worst-case dynamic instructions per execution *)
  cb_entry : unit -> int;
      (** run the block; returns the successor pc with pc/npc/ninsns
          already materialized (or raises {!Deopt} / never returns) *)
  mutable cb_taken : cblock option;  (** chained taken successor *)
  mutable cb_fall : cblock option;  (** chained fall-through successor *)
  mutable cb_preds : cblock list;  (** blocks chaining {e to} this one *)
  mutable cb_dead : bool;
  cb_insns : Insn.t array;
      (** the words covered (body + terminator + delay), as compiled *)
  cb_paths : path array;
      (** exit paths by [cb_len - length]: the full path, then (after an
          annulling branch) the one that skips the delay slot *)
  mutable cb_arrivals : int;
      (** profiled non-sequential entries not yet folded *)
}

(** One exit path of a compiled block, summarized for the profile: the
    path runs the block's first [pa_len] words. *)
and path = {
  pa_len : int;
  pa_last : int;  (** pc of the path's last instruction *)
  pa_mix : int array;  (** [class; count] pairs, flattened *)
  mutable pa_runs : int;
      (** profiled runs not yet folded into the pc and class tables *)
}

(** Per-entry-pc compilation state. [Cold] counts non-sequential arrivals
    toward the hotness threshold; [Uncompilable] pins addresses whose
    leading instruction can never head a compiled block (e.g. a trap). *)
type cstate = Cold of int ref | Compiled of cblock | Uncompilable

type t = {
  t2_emu : Emu.t;
  t2_threshold : int;
  t2_entries : (int, cstate) Hashtbl.t;
  t2_cover : (int, cblock list ref) Hashtbl.t;
      (** word address -> compiled blocks whose range covers it *)
  t2_code_lo : int;
  t2_code_hi : int;  (** predecoded text range, hoisted from the machine *)
  mutable t2_next : int;
      (** successor pc resolved by a block terminator, read by a delay
          slot's OSR materializer (its npc is dynamic) *)
  mutable t2_exit : int;  (** 0 fall / 1 taken / 2 dynamic / 3 cut *)
  mutable t2_cur_pc : int;
      (** entry pc of the block currently executing, or [-1]; live blocks
          have unique entry pcs, so this identifies the block *)
  mutable t2_pending : bool;
      (** the current block invalidated itself; deopt at next boundary *)
  mutable t2_prof : Emu.profile option;  (** the profile {!run} keeps *)
  mutable t2_prof_off : int;
      (** [ninsns - p_insns] for [t2_prof], constant while it is exact *)
  (* stats *)
  mutable t2_compiled : int;
  mutable t2_invalidated : int;
  mutable t2_links : int;
  mutable t2_unlinked : int;
  mutable t2_fault_deopts : int;
  mutable t2_store_deopts : int;
  mutable t2_fuel_exits : int;
  mutable t2_block_runs : int;
  mutable t2_interp_steps : int;
  mutable t2_prof_exits : int;  (** block exits the profile counted *)
}

(** Longest compiled block body (straight-line instructions before the
    terminator). Generous: corpus blocks are far shorter. *)
let max_body = 64

(** Default hotness threshold: non-sequential arrivals at an entry pc
    before it is compiled. A compiled block repays its compile cost (its
    closures, path summaries and cover entries, and the garbage they
    become) only after several runs, so 8 leaves code entered a few
    times (startup, a routine called twice) to the interpreter while
    catching every loop on its eighth iteration. On the oracle's short
    profiled runs, where most blocks are entered two or three times, and
    on a 200-routine generated program, thresholds of 2 and 4 made a
    profiled [Emu.run] slower than tier-1. *)
let default_threshold = 8

(* ------------------------------------------------------------------ *)
(* Block discovery                                                     *)
(* ------------------------------------------------------------------ *)

(* Instructions compilable in a block body (and in a delay slot): pure
   register/memory traffic. Control transfers are terminators; Ticc
   (traps/syscalls), Invalid and Unimp always run in the interpreter. *)
let body_ok = function
  | Insn.Sethi _ | Insn.Rdy _ | Insn.Wry _ | Insn.Alu _ -> true
  | Insn.Mem { op = Insn.Ldd | Insn.Std; rd; _ } -> rd land 1 = 0
  | Insn.Mem _ -> true
  | _ -> false

(* A block terminator with everything the compiler needs precomputed.
   [T_cut pc] ends the block before an uncompilable instruction (trap,
   invalid word, text-range end, length cap): the block falls back into
   the interpreter at [pc] with no control transfer of its own. *)
type term =
  | T_cut of int
  | T_bicc of { cond : Insn.cond; annul : bool; target : int; bpc : int; delay : Insn.t }
  | T_call of { target : int; bpc : int; delay : Insn.t }
  | T_jmpl of { rs1 : int; op2 : Insn.operand; rd : int; bpc : int; delay : Insn.t }

(* Scan a straight-line block starting at [pc] (word-aligned, inside the
   predecoded range). Returns every word the block covers (body, then any
   terminator and its delay slot) and the terminator, or [None] when the
   very first instruction is uncompilable. Every word is read through
   {!Emu.code_insn}, so every word a block covers is decoded in the
   table, which is what lets {!Emu.invalidate_code} skip stores to words
   never decoded. *)
let scan (m : Emu.t) pc =
  let code_lo = m.Emu.code_lo in
  let len = m.Emu.code_slots in
  let at i = Emu.code_insn m i in
  let idx0 = (pc - code_lo) asr 2 in
  let words = ref [] in
  let rec go i =
    if i >= len || i - idx0 >= max_body then T_cut (code_lo + (i lsl 2))
    else
      let bpc = code_lo + (i lsl 2) in
      let insn = at i in
      let dcti term =
        words := at (i + 1) :: insn :: !words;
        term
      in
      match insn with
      | Insn.Bicc { cond; annul; disp22 } when i + 1 < len && body_ok (at (i + 1))
        ->
          dcti
            (T_bicc
               { cond; annul; target = W.add bpc (disp22 * 4); bpc; delay = at (i + 1) })
      | Insn.Call { disp30 } when i + 1 < len && body_ok (at (i + 1)) ->
          dcti (T_call { target = W.add bpc (disp30 * 4); bpc; delay = at (i + 1) })
      | Insn.Jmpl { rs1; op2; rd } when i + 1 < len && body_ok (at (i + 1)) ->
          dcti (T_jmpl { rs1; op2; rd; bpc; delay = at (i + 1) })
      | _ when body_ok insn ->
          words := insn :: !words;
          go (i + 1)
      | _ -> T_cut bpc
  in
  let term = go idx0 in
  match !words with
  | [] -> None
  | ws -> Some (Array.of_list (List.rev ws), term)

(* ------------------------------------------------------------------ *)
(* OSR state transfer                                                  *)
(* ------------------------------------------------------------------ *)

(* Materialize the interpreter state at an instruction boundary and bail.
   [n] is the count of dynamic instructions the block has fully executed
   (they are the only effects applied so far). *)
let osr st ~pc ~npc ~n : 'a =
  let m = st.t2_emu in
  m.Emu.pc <- pc;
  m.Emu.npc <- npc;
  m.Emu.ninsns <- m.Emu.ninsns + n;
  raise Deopt

(* Terminator epilogue: materialize the block-boundary machine state and
   hand the successor pc to the chain driver. *)
let finish (m : Emu.t) n next =
  m.Emu.pc <- next;
  m.Emu.npc <- next + 4;
  m.Emu.ninsns <- m.Emu.ninsns + n;
  next

(* ------------------------------------------------------------------ *)
(* The instruction compiler                                            *)
(* ------------------------------------------------------------------ *)

(* Compile one straight-line instruction into a closure that applies its
   effects and tail-calls [k]. [pci] is the instruction's address, [n]
   how many dynamic instructions the block has consumed before it;
   [dslot] marks the folded delay slot, whose OSR npc is the resolved
   branch successor ([st.t2_next]) rather than [pci + 4].

   Exactness contract: a closure either applies ALL of the instruction's
   architectural effects and continues, or applies NONE and performs an
   OSR transfer at this instruction's boundary so the interpreter replays
   it — faults, event emission and counters then come out of tier-1 in
   tier-1's order. The one exception is a store that invalidates its own
   block: the store completes (its effects are exactly tier-1's, which
   does not deopt at all here) and the transfer happens at the NEXT
   boundary. *)
let compile_insn st ~pci ~n ~dslot insn k =
  let m = st.t2_emu in
  let regs = m.Emu.regs and mem = m.Emu.mem and marks = m.Emu.marks in
  let mem_len = m.Emu.size in
  (* a store marks its page ({!Emu.field:marks}) with an unsafe write: it
     has passed the [mem_len] check, and the marks cover all of [mem] *)
  let code_lo = st.t2_code_lo and code_hi = st.t2_code_hi in
  (* register reads skip the %g0 special case: regs.(0) is invariantly 0
     (writes to rd=0 are compiled out below, and [Emu.set_reg] guards the
     interpreter's). Indices are 5-bit fields from the decoder, in range
     for the unsafe accessors. *)
  let deopt_before () =
    st.t2_fault_deopts <- st.t2_fault_deopts + 1;
    if dslot then osr st ~pc:pci ~npc:st.t2_next ~n
    else osr st ~pc:pci ~npc:(pci + 4) ~n
  in
  let deopt_after_store () =
    st.t2_store_deopts <- st.t2_store_deopts + 1;
    if dslot then
      let nx = st.t2_next in
      osr st ~pc:nx ~npc:(nx + 4) ~n:(n + 1)
    else osr st ~pc:(pci + 4) ~npc:(pci + 8) ~n:(n + 1)
  in
  (* a store that just landed in text: [Emu.invalidate_code] resets the
     tier-1 slot and kills covering blocks; if one of them is the block
     being executed, deopt at the next boundary *)
  let text_store a =
    Emu.invalidate_code m a;
    if st.t2_pending then begin
      st.t2_pending <- false;
      deopt_after_store ()
    end
  in
  match insn with
  | Insn.Sethi { rd = 0; _ } -> k (* the canonical nop *)
  | Insn.Sethi { rd; imm22 } ->
      let v = imm22 lsl 10 in
      fun () ->
        Array.unsafe_set regs rd v;
        k ()
  | Insn.Rdy { rd } ->
      if rd = 0 then k
      else
        fun () ->
          Array.unsafe_set regs rd (Array.unsafe_get regs Regs.y);
          k ()
  | Insn.Wry { rs1; op2 } -> (
      match op2 with
      | Insn.O_imm i ->
          let b = W.mask i in
          fun () ->
            Array.unsafe_set regs Regs.y (Array.unsafe_get regs rs1 lxor b);
            k ()
      | Insn.O_reg r ->
          fun () ->
            Array.unsafe_set regs Regs.y
              (Array.unsafe_get regs rs1 lxor Array.unsafe_get regs r);
            k ())
  | Insn.Alu { op; rs1; op2; rd } -> (
      (* generic builders for the colder ops; the hot ones below get
         fully specialized closures (no indirect call per instruction) *)
      let pure f =
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            if rd = 0 then k
            else
              fun () ->
                Array.unsafe_set regs rd (f (Array.unsafe_get regs rs1) b);
                k ()
        | Insn.O_reg r ->
            if rd = 0 then k
            else
              fun () ->
                Array.unsafe_set regs rd
                  (f (Array.unsafe_get regs rs1) (Array.unsafe_get regs r));
                k ()
      in
      let ccop f =
        (* f a b computes the result; icc derives from (a, b, result) *)
        let fin =
          match op with
          | Insn.Andcc | Insn.Orcc | Insn.Xorcc ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_logic r)
          | Insn.Addcc ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_add a b r)
          | _ ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r)
        in
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            fun () ->
              fin (Array.unsafe_get regs rs1) b;
              k ()
        | Insn.O_reg r ->
            fun () ->
              fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
              k ()
      in
      match op with
      | Insn.Add | Insn.Save | Insn.Restore -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                    land 0xFFFF_FFFF);
                  k ())
      | Insn.Sub -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 - b) land 0xFFFF_FFFF);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 - Array.unsafe_get regs r)
                    land 0xFFFF_FFFF);
                  k ())
      | Insn.Or -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 lor b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 lor Array.unsafe_get regs r);
                  k ())
      | Insn.And -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 land b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 land Array.unsafe_get regs r);
                  k ())
      | Insn.Xor -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 lxor b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 lxor Array.unsafe_get regs r);
                  k ())
      | Insn.Subcc -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_sub a b ((a - b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  let r = (a - b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r);
                  k ()
          | Insn.O_reg rr ->
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_sub a b ((a - b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  let r = (a - b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r);
                  k ())
      | Insn.Addcc -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_add a b ((a + b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  let r = (a + b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_add a b r);
                  k ()
          | Insn.O_reg rr ->
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_add a b ((a + b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  let r = (a + b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_add a b r);
                  k ())
      | Insn.Sll -> pure (fun a b -> W.sll a b)
      | Insn.Srl -> pure (fun a b -> W.srl a b)
      | Insn.Sra -> pure (fun a b -> W.sra a b)
      | Insn.Andn -> pure (fun a b -> a land W.mask (lnot b))
      | Insn.Orn -> pure (fun a b -> a lor W.mask (lnot b))
      | Insn.Xnor -> pure (fun a b -> W.mask (lnot (a lxor b)))
      | Insn.Andcc -> ccop (fun a b -> a land b)
      | Insn.Orcc -> ccop (fun a b -> a lor b)
      | Insn.Xorcc -> ccop (fun a b -> a lxor b)
      | Insn.Umul ->
          (* replicate the interpreter's expressions verbatim (including
             its 63-bit overflow behaviour on huge products) *)
          let fin a b =
            let p = a * b in
            Array.unsafe_set regs Regs.y (W.mask (p lsr 32));
            if rd <> 0 then Array.unsafe_set regs rd (W.mask p)
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Smul ->
          let fin a b =
            let p = W.signed a * W.signed b in
            Array.unsafe_set regs Regs.y ((p asr 32) land W.mask32);
            if rd <> 0 then Array.unsafe_set regs rd (W.mask p)
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Udiv ->
          let fin a b =
            if b = 0 then deopt_before ();
            let dividend = (Array.unsafe_get regs Regs.y lsl 32) lor a in
            if rd <> 0 then Array.unsafe_set regs rd (W.mask (dividend / b))
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Sdiv ->
          let fin a b =
            if b = 0 then deopt_before ();
            let hi = W.signed (Array.unsafe_get regs Regs.y) in
            let dividend = (hi * 4294967296) + a in
            if rd <> 0 then
              Array.unsafe_set regs rd (W.of_signed (dividend / W.signed b))
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ()))
  | Insn.Mem { op; rs1; op2; rd } -> (
      (* one Ob_store per store, before the memory write, value read with
         the %g0 convention — matching [Emu.exec_insn] exactly. Loads
         emit nothing (and hooks are never armed while tier-2 runs). *)
      let emit_store a width =
        match m.Emu.obs with
        | None -> ()
        | Some _ ->
            Emu.obs_emit m
              (Emu.Ob_store
                 { pc = pci; addr = a; width; value = Array.unsafe_get regs rd })
      in
      let addr_of =
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            fun () -> (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF
        | Insn.O_reg r ->
            fun () ->
              (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
              land 0xFFFF_FFFF
      in
      match op with
      | Insn.Ld -> (
          (* the hot one: specialize on the operand kind so the address
             computation is a single closure body with no inner call *)
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                let a = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nloads <- m.Emu.nloads + 1;
                if rd <> 0 then
                  Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
                k ()
          | Insn.O_reg r ->
              fun () ->
                let a =
                  (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                  land 0xFFFF_FFFF
                in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nloads <- m.Emu.nloads + 1;
                if rd <> 0 then
                  Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
                k ())
      | Insn.Ldub ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd (Char.code (Bytes.unsafe_get mem a));
            k ()
      | Insn.Ldsb ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (W.mask (W.sext 8 (Char.code (Bytes.unsafe_get mem a))));
            k ()
      | Insn.Lduh ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                ((Char.code (Bytes.unsafe_get mem a) lsl 8)
                lor Char.code (Bytes.unsafe_get mem (a + 1)));
            k ()
      | Insn.Ldsh ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (W.mask
                   (W.sext 16
                      ((Char.code (Bytes.unsafe_get mem a) lsl 8)
                      lor Char.code (Bytes.unsafe_get mem (a + 1)))));
            k ()
      | Insn.Ldd ->
          (* both word accesses pre-checked: tier-1 faults on the second
             word only after writing rd, so a partial pair must replay *)
          fun () ->
            let a = addr_of () in
            if a + 8 > mem_len || a land 3 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
            Array.unsafe_set regs (rd + 1)
              (Eel_util.Bytebuf.get32_be mem (a + 4));
            k ()
      | Insn.St -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                let a = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nstores <- m.Emu.nstores + 1;
                emit_store a 4;
                Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
                Bytes.unsafe_set marks (a lsr Emu.mark_bits) '\001';
                if a >= code_lo && a < code_hi then text_store a;
                k ()
          | Insn.O_reg r ->
              fun () ->
                let a =
                  (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                  land 0xFFFF_FFFF
                in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nstores <- m.Emu.nstores + 1;
                emit_store a 4;
                Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
                Bytes.unsafe_set marks (a lsr Emu.mark_bits) '\001';
                if a >= code_lo && a < code_hi then text_store a;
                k ())
      | Insn.Stb ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 1;
            Bytes.unsafe_set mem a
              (Char.unsafe_chr (Array.unsafe_get regs rd land 0xFF));
            Bytes.unsafe_set marks (a lsr Emu.mark_bits) '\001';
            if a >= code_lo && a < code_hi then text_store a;
            k ()
      | Insn.Sth ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 2;
            let v = Array.unsafe_get regs rd in
            Bytes.unsafe_set mem a (Char.unsafe_chr ((v lsr 8) land 0xFF));
            Bytes.unsafe_set mem (a + 1) (Char.unsafe_chr (v land 0xFF));
            Bytes.unsafe_set marks (a lsr Emu.mark_bits) '\001';
            if a >= code_lo && a < code_hi then text_store a;
            k ()
      | Insn.Std ->
          (* one event (width 8, value = the even register), both word
             writes, then a single pending-deopt check: the second write
             must land even when the first word invalidated this block *)
          fun () ->
            let a = addr_of () in
            if a + 8 > mem_len || a land 3 <> 0 then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 8;
            Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
            Eel_util.Bytebuf.set32_be mem (a + 4) (Array.unsafe_get regs (rd + 1));
            (* the pair spans two pages when [a] is 4 bytes below a page
               boundary *)
            Bytes.unsafe_set marks (a lsr Emu.mark_bits) '\001';
            Bytes.unsafe_set marks ((a + 4) lsr Emu.mark_bits) '\001';
            if a + 8 > code_lo && a < code_hi then begin
              if a >= code_lo && a < code_hi then Emu.invalidate_code m a;
              (let a4 = a + 4 in
               if a4 >= code_lo && a4 < code_hi then Emu.invalidate_code m a4);
              if st.t2_pending then begin
                st.t2_pending <- false;
                deopt_after_store ()
              end
            end;
            k ())
  | _ ->
      (* the scanner admits nothing else into a body or delay slot *)
      assert false

(* ------------------------------------------------------------------ *)
(* The block compiler                                                  *)
(* ------------------------------------------------------------------ *)

(* Compile the terminator (+ folded delay slot) into the block's tail
   closure. The terminator resolves the successor FIRST (so a deopting
   delay slot knows its npc via [st.t2_next]), then runs the delay
   closure, then materializes the boundary state via [finish]. *)
let compile_term st ~nb term =
  let m = st.t2_emu in
  let regs = m.Emu.regs in
  let delay_of d bpc = compile_insn st ~pci:(bpc + 4) ~n:(nb + 1) ~dslot:true d (fun () -> ()) in
  match term with
  | T_cut cut_pc ->
      fun () ->
        st.t2_exit <- 3;
        finish m nb cut_pc
  | T_bicc { cond; annul; target; bpc; delay } -> (
      let delay_k = delay_of delay bpc in
      let fall = bpc + 8 in
      match cond with
      | Insn.CA ->
          if annul then
            fun () ->
              st.t2_exit <- 1;
              finish m (nb + 1) target
          else
            fun () ->
              st.t2_exit <- 1;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
      | Insn.CN ->
          if annul then
            fun () ->
              st.t2_exit <- 0;
              finish m (nb + 1) fall
          else
            fun () ->
              st.t2_exit <- 0;
              st.t2_next <- fall;
              delay_k ();
              finish m (nb + 2) fall
      | _ ->
          if annul then
            fun () ->
              if Insn.cond_eval cond (Array.unsafe_get regs Regs.icc) then begin
                st.t2_exit <- 1;
                st.t2_next <- target;
                delay_k ();
                finish m (nb + 2) target
              end
              else begin
                st.t2_exit <- 0;
                finish m (nb + 1) fall
              end
          else
            fun () ->
              if Insn.cond_eval cond (Array.unsafe_get regs Regs.icc) then begin
                st.t2_exit <- 1;
                st.t2_next <- target;
                delay_k ();
                finish m (nb + 2) target
              end
              else begin
                st.t2_exit <- 0;
                st.t2_next <- fall;
                delay_k ();
                finish m (nb + 2) fall
              end)
  | T_call { target; bpc; delay } ->
      let delay_k = delay_of delay bpc in
      fun () ->
        Array.unsafe_set regs Regs.o7 bpc;
        st.t2_exit <- 1;
        st.t2_next <- target;
        delay_k ();
        finish m (nb + 2) target
  | T_jmpl { rs1; op2; rd; bpc; delay } -> (
      let delay_k = delay_of delay bpc in
      (* target latched from register values BEFORE the rd write and the
         delay slot, as in tier-1 (where next_npc is latched) *)
      match op2 with
      | Insn.O_imm i ->
          let b = W.mask i in
          if rd = 0 then
            fun () ->
              let target = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
          else
            fun () ->
              let target = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
              Array.unsafe_set regs rd bpc;
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
      | Insn.O_reg r ->
          if rd = 0 then
            fun () ->
              let target =
                (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                land 0xFFFF_FFFF
              in
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
          else
            fun () ->
              let target =
                (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                land 0xFFFF_FFFF
              in
              Array.unsafe_set regs rd bpc;
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target)

let cover_add st wa cb =
  match Hashtbl.find_opt st.t2_cover wa with
  | Some l -> l := cb :: !l
  | None -> Hashtbl.add st.t2_cover wa (ref [ cb ])

(* The profile summary of the path through the first [len] of [words],
   a block entered at [pc]. *)
let path_of pc (words : Insn.t array) len =
  let counts = Array.make (Array.length Emu.iclass_names) 0 in
  for i = 0 to len - 1 do
    let k = Emu.iclass_of words.(i) in
    counts.(k) <- counts.(k) + 1
  done;
  let mix = ref [] in
  Array.iteri (fun k n -> if n > 0 then mix := k :: n :: !mix) counts;
  {
    pa_len = len;
    pa_last = pc + ((len - 1) lsl 2);
    pa_mix = Array.of_list !mix;
    pa_runs = 0;
  }

(* Compile the block at [pc] and register it in the cache. [None] when
   the leading instruction cannot head a block. *)
let compile st pc =
  match scan st.t2_emu pc with
  | None -> None
  | Some (words, term) ->
      let len = Array.length words in
      let nb, paths =
        match term with
        | T_cut _ -> (len, [ len ])
        | T_bicc { annul = true; _ } -> (len - 2, [ len; len - 1 ])
        | _ -> (len - 2, [ len ])
      in
      let tail = compile_term st ~nb term in
      let entry = ref tail in
      for i = nb - 1 downto 0 do
        entry := compile_insn st ~pci:(pc + (i lsl 2)) ~n:i ~dslot:false words.(i) !entry
      done;
      let cb =
        {
          cb_pc = pc;
          cb_len = len;
          cb_insns = words;
          cb_paths = Array.of_list (List.map (path_of pc words) paths);
          cb_arrivals = 0;
          cb_entry = !entry;
          cb_taken = None;
          cb_fall = None;
          cb_preds = [];
          cb_dead = false;
        }
      in
      for w = 0 to len - 1 do
        cover_add st (pc + (w lsl 2)) cb
      done;
      st.t2_compiled <- st.t2_compiled + 1;
      Hashtbl.replace st.t2_entries pc (Compiled cb);
      Some cb

(* ------------------------------------------------------------------ *)
(* Profile accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Add [times] runs of a path's class mix to [classes]. *)
let add_mix classes mix times =
  for j = 0 to (Array.length mix / 2) - 1 do
    let k = mix.(2 * j) in
    classes.(k) <- classes.(k) + (times * mix.((2 * j) + 1))
  done

(* Leave the profile as tier-1 would have it after [insns] instructions,
   the last of them at [last]. *)
let settle (p : Emu.profile) ~insns last =
  p.Emu.p_insns <- insns;
  p.Emu.p_last_pc <- last

(* An OSR transfer left [cb] part-way: replay tier-1's profile step over
   the prefix it retired. *)
let replay st (p : Emu.profile) cb =
  let n = st.t2_emu.Emu.ninsns - st.t2_prof_off - p.Emu.p_insns in
  for i = 0 to n - 1 do
    Emu.profile_step p ~pc:(cb.cb_pc + (i lsl 2)) cb.cb_insns.(i)
  done

(* Fold [cb]'s unfolded counters into the profile: its arrivals into the
   leader table, its paths' runs into the pc and class tables. *)
let fold (p : Emu.profile) cb =
  if cb.cb_arrivals > 0 then begin
    p.Emu.p_block_entries <- p.Emu.p_block_entries + cb.cb_arrivals;
    Emu.bump_by p.Emu.p_block_counts cb.cb_pc cb.cb_arrivals;
    cb.cb_arrivals <- 0
  end;
  Array.iter
    (fun pa ->
      let runs = pa.pa_runs in
      if runs > 0 then begin
        pa.pa_runs <- 0;
        for i = 0 to pa.pa_len - 1 do
          Emu.bump_by p.Emu.p_pc_counts (cb.cb_pc + (i lsl 2)) runs
        done;
        add_mix p.Emu.p_class_counts pa.pa_mix runs
      end)
    cb.cb_paths

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let kill st cb =
  if not cb.cb_dead then begin
    cb.cb_dead <- true;
    Option.iter (fun p -> fold p cb) st.t2_prof;
    st.t2_invalidated <- st.t2_invalidated + 1;
    (match Hashtbl.find_opt st.t2_entries cb.cb_pc with
    | Some (Compiled cb') when cb' == cb -> Hashtbl.remove st.t2_entries cb.cb_pc
    | _ -> ());
    for w = 0 to cb.cb_len - 1 do
      match Hashtbl.find_opt st.t2_cover (cb.cb_pc + (w lsl 2)) with
      | Some l -> l := List.filter (fun b -> b != cb) !l
      | None -> ()
    done;
    (* sever every inbound chain: a predecessor must re-resolve (and
       recompile) instead of jumping into stale code *)
    List.iter
      (fun p ->
        (match p.cb_taken with
        | Some b when b == cb ->
            p.cb_taken <- None;
            st.t2_unlinked <- st.t2_unlinked + 1
        | _ -> ());
        match p.cb_fall with
        | Some b when b == cb ->
            p.cb_fall <- None;
            st.t2_unlinked <- st.t2_unlinked + 1
        | _ -> ())
      cb.cb_preds;
    cb.cb_preds <- [];
    cb.cb_taken <- None;
    cb.cb_fall <- None;
    if cb.cb_pc = st.t2_cur_pc then st.t2_pending <- true
  end

(* [on_invalidate] hook: a store or poke reset the decoded word at [wa];
   every compiled block covering it is now stale. *)
let invalidate st wa =
  match Hashtbl.find_opt st.t2_cover wa with
  | None -> ()
  | Some l -> ( match !l with [] -> () | bs -> List.iter (kill st) bs)

(* ------------------------------------------------------------------ *)
(* Arrival resolution and the chain driver                             *)
(* ------------------------------------------------------------------ *)

type res = R_run of cblock | R_cold | R_uncomp | R_skip

(* A block entry is an arrival at a word-aligned, sequential-state pc
   inside the predecoded range. Bumps the hotness counter; compiles at
   the threshold. *)
let resolve st pc =
  let m = st.t2_emu in
  if pc land 3 <> 0 || m.Emu.npc <> pc + 4 || pc < st.t2_code_lo
     || pc >= st.t2_code_hi
  then R_skip
  else
    match Hashtbl.find_opt st.t2_entries pc with
    | Some (Compiled cb) -> R_run cb
    | Some Uncompilable -> R_uncomp
    | Some (Cold r) ->
        incr r;
        if !r >= st.t2_threshold then
          match compile st pc with
          | Some cb -> R_run cb
          | None ->
              Hashtbl.replace st.t2_entries pc Uncompilable;
              R_uncomp
        else R_cold
    | None ->
        if st.t2_threshold <= 1 then
          match compile st pc with
          | Some cb -> R_run cb
          | None ->
              Hashtbl.add st.t2_entries pc Uncompilable;
              R_uncomp
        else begin
          Hashtbl.add st.t2_entries pc (Cold (ref 1));
          R_cold
        end

(* The end of a chain: the successor slot when no compiled block may
   run next. *)
let rec no_block =
  {
    cb_pc = min_int;
    cb_len = 0;
    cb_entry = (fun () -> assert false);
    cb_taken = None;
    cb_fall = None;
    cb_preds = [];
    cb_dead = true;
    cb_insns = [||];
    cb_paths = [||];
    cb_arrivals = 0;
  }

(* [nxt] if the fuel budget covers its worst case, else {!no_block} *)
let[@inline] gate st fuel nxt =
  if fuel - st.t2_emu.Emu.ninsns >= nxt.cb_len then nxt
  else begin
    st.t2_fuel_exits <- st.t2_fuel_exits + 1;
    no_block
  end

(* The block to chain to after [cb] exited to [next], or {!no_block}.
   Chain slots are installed on the static taken/fall-through edges
   only; a dynamic (jmpl) successor is re-resolved every time. *)
let[@inline] successor st fuel cb next =
  match st.t2_exit with
  | 0 | 1 -> (
      let taken = st.t2_exit = 1 in
      match if taken then cb.cb_taken else cb.cb_fall with
      | Some nxt -> gate st fuel nxt
      | None -> (
          match resolve st next with
          | R_run nxt ->
              if taken then cb.cb_taken <- Some nxt else cb.cb_fall <- Some nxt;
              nxt.cb_preds <- cb :: nxt.cb_preds;
              st.t2_links <- st.t2_links + 1;
              gate st fuel nxt
          | _ -> no_block))
  | 2 -> ( match resolve st next with R_run nxt -> gate st fuel nxt | _ -> no_block)
  | _ -> no_block

(* Run [cb] and keep chaining while successors are compiled and the fuel
   budget covers their worst case. All recursive calls are tail calls. *)
let rec chain st fuel cb =
  st.t2_block_runs <- st.t2_block_runs + 1;
  st.t2_cur_pc <- cb.cb_pc;
  match cb.cb_entry () with
  | exception Deopt -> st.t2_cur_pc <- -1
  | next ->
      st.t2_cur_pc <- -1;
      let nxt = successor st fuel cb next in
      if nxt != no_block then chain st fuel nxt

(* {!chain} keeping the profile [p]; [last] is the pc of the instruction
   retired before [cb]. Each exit names its path by the instructions
   retired and counts its run, and the block's arrival when [cb] did not
   follow [last] in sequence. *)
let rec chain_p st fuel (p : Emu.profile) cb last =
  let m = st.t2_emu in
  st.t2_block_runs <- st.t2_block_runs + 1;
  st.t2_cur_pc <- cb.cb_pc;
  let n0 = m.Emu.ninsns in
  match cb.cb_entry () with
  | exception Deopt ->
      st.t2_cur_pc <- -1;
      settle p ~insns:(n0 - st.t2_prof_off) last;
      replay st p cb
  | next ->
      st.t2_cur_pc <- -1;
      let pa = Array.unsafe_get cb.cb_paths (cb.cb_len - (m.Emu.ninsns - n0)) in
      if cb.cb_pc <> last + 4 then cb.cb_arrivals <- cb.cb_arrivals + 1;
      pa.pa_runs <- pa.pa_runs + 1;
      let nxt = successor st fuel cb next in
      if nxt != no_block then chain_p st fuel p nxt pa.pa_last
      else settle p ~insns:(m.Emu.ninsns - st.t2_prof_off) pa.pa_last

let deopts st = st.t2_fault_deopts + st.t2_store_deopts

(* One tier-1 step; {!Emu.step} records it in an armed profile. *)
let interp st m =
  (match st.t2_prof with None -> Emu.step_plain m | Some _ -> Emu.step m);
  st.t2_interp_steps <- st.t2_interp_steps + 1

(* The engine's outer loop: interpret one instruction at a time, watching
   for block-entry arrivals; once an arrival is hot its compiled block
   (and everything chained behind it) runs without touching pc/npc. Fuel
   is enforced here and by the chain driver's worst-case entry gate, so
   {!Emu.Out_of_fuel} always fires from the interpreter loop at the exact
   cutoff. *)
let loop st fuel =
  let m = st.t2_emu in
  (* the entry point is an arrival; thereafter any non-sequential pc is *)
  let arrival = ref true in
  while m.Emu.exited = None do
    if m.Emu.ninsns >= fuel then raise Emu.Out_of_fuel;
    let pc0 = m.Emu.pc in
    if !arrival then begin
      match resolve st pc0 with
      | R_run cb when fuel - m.Emu.ninsns >= cb.cb_len ->
          let d0 = deopts st in
          (match st.t2_prof with
          | None -> chain st fuel cb
          | Some p -> chain_p st fuel p cb p.Emu.p_last_pc);
          (* chain exits at a block boundary: still an arrival. After an
             OSR transfer, though, the resumed pc must take at least one
             tier-1 step: a deopt-before cause (div-by-zero, a faulting
             access) would recur identically if the pc were re-resolved
             into a block whose leader is the deopting instruction. *)
          if deopts st > d0 && m.Emu.exited = None && m.Emu.ninsns < fuel
          then begin
            let p = m.Emu.pc in
            interp st m;
            arrival := m.Emu.pc <> p + 4
          end
      | r ->
          (match r with
          | R_run _ -> st.t2_fuel_exits <- st.t2_fuel_exits + 1
          | _ -> ());
          interp st m;
          (* after an uncompilable leader (a trap, say), the sequential
             successor is a fresh leader too — without this, the tail
             after every syscall would never tier up *)
          arrival :=
            m.Emu.pc <> pc0 + 4 || (match r with R_uncomp -> true | _ -> false)
    end
    else begin
      interp st m;
      arrival := m.Emu.pc <> pc0 + 4
    end
  done

(* The per-run deltas {!run} adds to the [emu.tier2.*] counters. *)
let counters st =
  [
    ("compiled", st.t2_compiled);
    ("block_runs", st.t2_block_runs);
    ("interp_steps", st.t2_interp_steps);
    ("links", st.t2_links);
    ("invalidated", st.t2_invalidated);
    ("fuel_exits", st.t2_fuel_exits);
    ("deopts.fault", st.t2_fault_deopts);
    ("deopts.self_store", st.t2_store_deopts);
    ("profiled_exits", st.t2_prof_exits);
  ]

(* The engine's entry ({!Emu.t}'s [alt_run]). However the loop ends, the
   profile gets every live block's counters and the metrics registry the
   run's share of the stats. *)
let run st fuel =
  let m = st.t2_emu in
  st.t2_prof <- m.Emu.profile;
  Option.iter (fun p -> st.t2_prof_off <- m.Emu.ninsns - p.Emu.p_insns) st.t2_prof;
  let before = counters st in
  let runs0 = st.t2_block_runs and deopts0 = deopts st in
  let finish () =
    Option.iter
      (fun p ->
        Hashtbl.iter
          (fun _ s -> match s with Compiled cb -> fold p cb | _ -> ())
          st.t2_entries;
        (* every block run that did not deopt exited through the profile *)
        st.t2_prof_exits <-
          st.t2_prof_exits + (st.t2_block_runs - runs0) - (deopts st - deopts0))
      st.t2_prof;
    st.t2_prof <- None;
    List.iter2
      (fun (name, n0) (_, n) ->
        Eel_obs.Metrics.incr ~by:(n - n0)
          (Eel_obs.Metrics.counter ("emu.tier2." ^ name)))
      before (counters st)
  in
  match loop st fuel with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e

(* ------------------------------------------------------------------ *)
(* Attachment and inquiry                                              *)
(* ------------------------------------------------------------------ *)

(** [attach ?threshold m] installs the tier-2 engine on a loaded machine:
    {!Emu.run} will dispatch whole-run execution to it whenever no
    per-instruction hook or poke plan is armed (it keeps an armed
    profile itself), and every text invalidation
    is forwarded to the code cache. Returns [None] when the machine has
    no predecoded text (tier-2 rides on the predecode table). *)
let attach ?(threshold = default_threshold) (m : Emu.t) =
  if m.Emu.code_slots = 0 then None
  else begin
    let st =
      {
        t2_emu = m;
        t2_threshold = max 1 threshold;
        t2_entries = Hashtbl.create 256;
        t2_cover = Hashtbl.create 1024;
        t2_code_lo = m.Emu.code_lo;
        t2_code_hi = m.Emu.code_lo + (m.Emu.code_slots lsl 2);
        t2_next = 0;
        t2_exit = 0;
        t2_cur_pc = -1;
        t2_pending = false;
        t2_prof = None;
        t2_prof_off = 0;
        t2_compiled = 0;
        t2_invalidated = 0;
        t2_links = 0;
        t2_unlinked = 0;
        t2_fault_deopts = 0;
        t2_store_deopts = 0;
        t2_fuel_exits = 0;
        t2_block_runs = 0;
        t2_interp_steps = 0;
        t2_prof_exits = 0;
      }
    in
    m.Emu.on_invalidate <- Some (invalidate st);
    m.Emu.alt_run <- Some (run st);
    Some st
  end

(** [detach m] removes any attached engine (the machine reverts to pure
    tier-1 interpretation). *)
let detach (m : Emu.t) =
  m.Emu.alt_run <- None;
  m.Emu.on_invalidate <- None

type stats = {
  st_compiled : int;  (** blocks compiled (lifetime) *)
  st_live : int;  (** compiled blocks currently in the cache *)
  st_invalidated : int;  (** blocks killed by stores/pokes into text *)
  st_links : int;  (** direct block-to-block chains installed *)
  st_unlinked : int;  (** chain slots severed by invalidation *)
  st_deopts : int;  (** OSR transfers back to the interpreter *)
  st_deopts_fault : int;
      (** of which a fault pre-check (bad access, division by zero) *)
  st_deopts_store : int;  (** of which a store into the running block *)
  st_fuel_exits : int;
      (** compiled blocks not entered: fuel short of their worst case *)
  st_block_runs : int;  (** compiled block executions *)
  st_interp_steps : int;  (** instructions run in the tier-1 loop *)
}

let stats st =
  let live =
    Hashtbl.fold
      (fun _ s acc -> match s with Compiled _ -> acc + 1 | _ -> acc)
      st.t2_entries 0
  in
  {
    st_compiled = st.t2_compiled;
    st_live = live;
    st_invalidated = st.t2_invalidated;
    st_links = st.t2_links;
    st_unlinked = st.t2_unlinked;
    st_deopts = deopts st;
    st_deopts_fault = st.t2_fault_deopts;
    st_deopts_store = st.t2_store_deopts;
    st_fuel_exits = st.t2_fuel_exits;
    st_block_runs = st.t2_block_runs;
    st_interp_steps = st.t2_interp_steps;
  }

let summary st =
  let s = stats st in
  Printf.sprintf
    "blocks=%d live=%d execs=%d links=%d deopts=%d invalidated=%d unlinked=%d interp-insns=%d"
    s.st_compiled s.st_live s.st_block_runs s.st_links s.st_deopts
    s.st_invalidated s.st_unlinked s.st_interp_steps

(* ------------------------------------------------------------------ *)
(* Tier selection (shared by the CLIs, the oracle and the bench)       *)
(* ------------------------------------------------------------------ *)

(** The three execution tiers. [Interp] decodes every step, [Predecode]
    dispatches the predecode table one instruction at a time,
    [Block] adds this module's compiled blocks on top of predecode. *)
type tier = Interp | Predecode | Block

let tier_name = function
  | Interp -> "interp"
  | Predecode -> "predecode"
  | Block -> "block"

let tier_of_string = function
  | "interp" -> Some Interp
  | "predecode" -> Some Predecode
  | "block" -> Some Block
  | _ -> None

let all_tiers = [ Interp; Predecode; Block ]
