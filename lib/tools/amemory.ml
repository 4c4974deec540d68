(** Active Memory — fast in-line cache simulation (paper §5, [16]).

    "Alvin Lebeck and David Wood built Active Memory, which is a platform
    for efficiently simulating memory systems. It inserts a quick test
    before load and store instructions to check the state of the accessed
    location. Different states invoke handlers to perform tasks such as
    cache simulation. Active Memory exploits EEL's ability to insert foreign
    code efficiently and to add many routines (another program) to an
    executable."

    The simulated cache is a presence-bitmap over 16-byte lines covering the
    whole address space the emulator can reach: each memory reference's line
    is tested in line; on a miss, a handler routine (added to the
    executable, as in the paper) marks the line present and counts the miss.
    Experiment E6 measures the edited program's dynamic-instruction slowdown
    — the paper reports 2–7×.

    The tool also reproduces the Blizzard-S optimization the paper calls
    out: "one optimization exploits EEL's live register analysis to insert a
    faster test sequence when condition codes are not live." When the
    condition codes are dead at the insertion point, the fast test uses an
    ordinary compare-and-branch; when they are {e live}, a branch-free
    sequence computes the join point's address arithmetically (a pc-relative
    jump indexed by the state byte) so the program's condition codes survive
    the test. *)

module E = Eel.Executable
module C = Eel.Cfg
module Snippet = Eel.Snippet
module Regset = Eel_arch.Regset
module Instr = Eel_arch.Instr
module Template = Eel_arch.Template

type t = {
  edited : Eel_sef.Sef.t;
  exec : E.t;  (** the analyzed executable (address maps, CFG anchors) *)
  miss_counter : int;  (** address of the miss-count word *)
  ref_counter : int;  (** address of the tested-reference count word *)
  state_table : int;
  mbox : int;  (** handler argument mailbox *)
  instrumented : int;
  skipped_uneditable : int;
  cc_live_sites : int;  (** sites that needed the cc-preserving sequence *)
}

let line_bytes = 16

(** Address-space coverage of the state table: 16 MiB, enough for any
    executable this repository's emulator can load (checked at run time by
    the emulator's own bounds). One byte per 16-byte line = 1 MiB table. *)
let cover = 16 * 1024 * 1024

let table_size = cover / line_bytes

(* The miss handler: marks the line present and counts the miss. It uses
   only EEL's reserved scratch registers and executes no cc-setting
   instruction, so it is transparent to program state (other than the
   simulated cache itself). *)
let handler_asm =
  {|
        sethi %hi($mbox), %g6
        ld [%g6 + %lo($mbox)], %g6      ! line index
        sethi %hi($table), %g7
        or %g7, %lo($table), %g7
        add %g7, %g6, %g6               ! state byte address
        mov 1, %g7
        stb %g7, [%g6]
        sethi %hi($miss), %g6
        ld [%g6 + %lo($miss)], %g7
        add %g7, 1, %g7
        retl
        st %g7, [%g6 + %lo($miss)]
|}

(* Fast-path test when the condition codes are DEAD at the site: ordinary
   compare and branch. It follows the site's {!Ea.word}, so %v0 enters as
   the effective address and becomes the line index; %v1/%v2 scratch, %v3
   saves %o7. *)
let test_cc_dead =
  {|
        srl %v0, 4, %v0
        sethi %hi($table), %v1
        or %v1, %lo($table), %v1
        ldub [%v1 + %v0], %v2
        subcc %v2, 0, %g0
        bne Lhit
        nop
        mov %o7, %v3
        sethi %hi($mbox), %v2
        st %v0, [%v2 + %lo($mbox)]
        call $handler
        nop
        mov %v3, %o7
Lhit:   sethi %hi($refs), %v1
        ld [%v1 + %lo($refs)], %v2
        add %v2, 1, %v2
        st %v2, [%v1 + %lo($refs)]
|}

(* Branch-free variant when the condition codes are LIVE: select the join
   point arithmetically. The state byte (0 or 1) scales a pc-relative
   offset; no cc-setting instruction executes, and the handler is also
   cc-transparent. *)
let test_cc_live =
  {|
        srl %v0, 4, %v0
        sethi %hi($table), %v1
        or %v1, %lo($table), %v1
        ldub [%v1 + %v0], %v2
        mov %o7, %v3
        call Lbase                      ! %o7 := pc, no cc effects
        sll %v2, 4, %v2                 ! delay: state*16 (miss path is 16 bytes)
Lbase:  add %v2, 20, %v2                ! Lmiss is 20 bytes past the call
        jmp %o7 + %v2
        nop
Lmiss:  sethi %hi($mbox), %v2           ! state=0: record and call handler
        st %v0, [%v2 + %lo($mbox)]
        call $handler
        nop
Lhit:   mov %v3, %o7
        sethi %hi($refs), %v1
        ld [%v1 + %lo($refs)], %v2
        add %v2, 1, %v2
        st %v2, [%v1 + %lo($refs)]
|}

let icc_reg = Eel_sparc.Regs.icc

(** [instrument mach exe] inserts a cache test before every editable memory
    reference. *)
let instrument ?(cc_optimization = true) mach exe =
  let t = E.read_contents mach exe in
  let state_table = E.reserve_data t table_size in
  let miss_counter = E.reserve_data t 4 in
  let ref_counter = E.reserve_data t 4 in
  let mbox = E.reserve_data t 4 in
  let handler =
    E.add_routine t ~name:"__am_handler"
      ~params:
        [ ("mbox", mbox); ("table", state_table); ("miss", miss_counter) ]
      handler_asm
  in
  let params =
    [
      ("table", state_table);
      ("mbox", mbox);
      ("handler", handler);
      ("refs", ref_counter);
    ]
  in
  let ea = Ea.word mach in
  let cc_dead = Snippet.template mach ~params test_cc_dead in
  let cc_live = Snippet.template mach ~params test_cc_live in
  let instrumented = ref 0 and skipped = ref 0 and cc_live_sites = ref 0 in
  let do_routine (r : E.routine) =
    let g = E.control_flow_graph t r in
    let ed = E.editor t r in
    let live = Eel.Edit.liveness ed in
    List.iter
      (fun (b : C.block) ->
        if b.C.reachable && (not b.C.is_data) && b.C.kind <> C.Entry
           && b.C.kind <> C.Exit
        then
          Array.iteri
            (fun idx (_, (i : Instr.t)) ->
              if Instr.is_memory i then
                if not b.C.editable then incr skipped
                else (
                  let live_here = Eel.Dataflow.live_before live g b idx in
                  let body =
                    if Regset.mem icc_reg live_here && cc_optimization then (
                      incr cc_live_sites;
                      cc_live)
                    else cc_dead
                  in
                  Eel.Edit.add_before ed b idx
                    (Snippet.of_template (Template.concat (ea i) body));
                  incr instrumented))
            b.C.instrs)
      (C.blocks g);
    E.produce_edited_routine t r
  in
  E.iter_routines t do_routine;
  {
    edited = E.to_edited_sef t ();
    exec = t;
    miss_counter;
    ref_counter;
    state_table;
    mbox;
    instrumented = !instrumented;
    skipped_uneditable = !skipped;
    cc_live_sites = !cc_live_sites;
  }

let misses t mem = Eel_util.Bytebuf.get32_be mem t.miss_counter

let refs t mem = Eel_util.Bytebuf.get32_be mem t.ref_counter

(** The tool's edit contract: the simulated cache's whole state (presence
    bitmap, miss/reference counters, handler mailbox) lives in declared
    added-data regions; test snippets may spill into the red zone. The
    post-run promise is bounded rather than exact — entry/exit-kind blocks
    and uneditable sites are skipped by design, so the reference counter is
    at most (and with zero skips, exactly) the original run's dynamic
    memory-instruction count, and misses can never exceed references. *)
let contract (p : t) =
  let regions =
    [
      Eel_equiv.Contract.region ~name:"am state table" ~lo:p.state_table
        ~size:table_size;
      Eel_equiv.Contract.region ~name:"am miss counter" ~lo:p.miss_counter
        ~size:4;
      Eel_equiv.Contract.region ~name:"am ref counter" ~lo:p.ref_counter
        ~size:4;
      Eel_equiv.Contract.region ~name:"am mailbox" ~lo:p.mbox ~size:4;
    ]
  in
  let check =
    {
      Eel_equiv.Contract.ck_name = "refs-bounded-by-profile";
      ck_run =
        (fun ~profile ~mem ->
          let r = refs p mem and m = misses p mem in
          let truth = Eel_emu.Emu.mem_ops profile in
          if r > truth then
            Error
              (Printf.sprintf
                 "counted %d references but only %d memory instructions ran"
                 r truth)
          else if m > r then
            Error (Printf.sprintf "%d misses exceed %d references" m r)
          else Ok ());
    }
  in
  Eel_equiv.Contract.make "amemory" ~regions
    ~red_zone:Eel.Snippet.red_zone ~checks:[ check ]

(** Fault-campaign target: the reference counter, started far above any
    possible dynamic memory-op count, breaks the refs-bounded-by-profile
    promise. (The promise is bounded, not exact, so a small skew could hide
    under the skip allowance — the written value is chosen to clear the
    bound by construction.) *)
let fault_targets (p : t) = [ ("ref counter", p.ref_counter, 1 lsl 20) ]
