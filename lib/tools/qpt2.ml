(** qpt2 — the EEL-based profiler (paper Fig. 1 and Table 1).

    Follows the paper's branch-counting tool structure exactly: for every
    routine (and every hidden routine discovered along the way), place a
    counter snippet along each editable outgoing edge of every basic block
    with more than one successor, then produce the edited routine. Counter
    memory is reserved in the executable's added-data region, so the edited
    program counts its own edge executions as it runs; {!counts} reads the
    values back out of an emulator that ran it.

    {!contract} states the tool's side effects for the equivalence oracle
    (lib/equiv): stores land only in the counter span (plus snippet spill
    slots in the stack red zone), and — the tool's headline promise — the
    out-edge counters of every fully instrumented block sum to exactly the
    number of times that block's branch executed, per the emulator's
    ground-truth profile. *)

module E = Eel.Executable
module C = Eel.Cfg
module Snippet = Eel.Snippet
module Contract = Eel_equiv.Contract
module Emu = Eel_emu.Emu

type counter = {
  c_addr : int;  (** counter word's address in the edited program *)
  c_routine : string;
  c_block : int;  (** source block id *)
  c_edge : int;  (** edge id within the routine's CFG *)
  c_site_pc : int;
      (** original address of the block's terminating branch; -1 when the
          block has no terminator instruction *)
}

type t = {
  edited : Eel_sef.Sef.t;
  counters : counter list;
  exec : E.t;
  skipped_uneditable : int;  (** edges that could not carry code (§3.3) *)
  skipped_blocks : (string * int) list;
      (** blocks with at least one uninstrumented out-edge: their counter
          sums are lower bounds, not exact — excluded from cross-validation *)
}

(* paper Fig. 2, assembled once: [incr_count mach addr] increments the
   counter word at [addr], patched into the sethi (word 0) and the %lo
   fields of the ld and st (words 1 and 3) as paper Fig. 5 does *)
let incr_count mach =
  let body =
    Snippet.template mach ~params:[ ("counter", 0) ]
      {|
        sethi %hi($counter), %v0
        ld [%v0 + %lo($counter)], %v1
        add %v1, 1, %v1
        st %v1, [%v0 + %lo($counter)]
|}
  in
  fun addr ->
    let s = Snippet.patch_hi mach (Snippet.of_template body) 0 ~value:addr in
    let s = Snippet.patch_lo mach s 1 ~value:addr in
    Snippet.patch_lo mach s 3 ~value:addr

(* paper Fig. 1: instrument one routine *)
let instrument_routine t count_at (r : E.routine) counters skipped skipped_blocks =
  let g = E.control_flow_graph t r in
  let ed = E.editor t r in
  List.iter
    (fun (b : C.block) ->
      if b.C.reachable && List.length b.C.succs > 1 then (
        let site_pc =
          match C.term_instr b with Some (ta, _) -> ta | None -> -1
        in
        let block_skipped = ref false in
        List.iter
          (fun (e : C.edge) ->
            if e.C.e_editable then (
              let addr = E.reserve_data t 4 in
              counters :=
                {
                  c_addr = addr;
                  c_routine = r.E.r_name;
                  c_block = b.C.bid;
                  c_edge = e.C.eid;
                  c_site_pc = site_pc;
                }
                :: !counters;
              Eel.Edit.add_along ed e (count_at addr))
            else (
              incr skipped;
              block_skipped := true))
          b.C.succs;
        if !block_skipped then
          skipped_blocks := (r.E.r_name, b.C.bid) :: !skipped_blocks))
    (C.blocks g);
  E.produce_edited_routine t r;
  E.delete_control_flow_graph r

(** [instrument mach exe] — the whole tool (paper Fig. 1's [main]). *)
let instrument ?(cache_instrs = true) ?(fold_delay = true) mach exe =
  let t = E.read_contents ~cache_instrs mach exe in
  t.E.fold_delay <- fold_delay;
  let counters = ref [] in
  let skipped = ref 0 in
  let skipped_blocks = ref [] in
  let count_at = incr_count mach in
  List.iter
    (fun r -> instrument_routine t count_at r counters skipped skipped_blocks)
    (E.routines t);
  (* "while (!exec->hidden_routines()->is_empty()) ..." *)
  let rec drain () =
    match E.take_hidden t with
    | Some r ->
        instrument_routine t count_at r counters skipped skipped_blocks;
        drain ()
    | None -> ()
  in
  drain ();
  let edited = E.to_edited_sef t () in
  {
    edited;
    counters = List.rev !counters;
    exec = t;
    skipped_uneditable = !skipped;
    skipped_blocks = !skipped_blocks;
  }

(** Read counter values from the memory of an emulator that ran the edited
    program. *)
let counts (prof : t) (mem : Bytes.t) =
  List.map
    (fun c -> (c, Eel_util.Bytebuf.get32_be mem c.c_addr))
    prof.counters

(** [validate_counts p ~profile ~mem] — the cross-validation promise: for
    every fully instrumented multi-successor block, the sum of its out-edge
    counters (read from the edited run's memory) must equal the number of
    times its terminating branch executed in the {e original} run
    (equivalent programs execute the same path). Exact equality — this is
    what catches off-by-one edge-instrumentation bugs around delay slots
    and annulled branches. *)
let validate_counts (p : t) ~profile ~(mem : Bytes.t) =
  (* group counters by instrumentation site *)
  let sums = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let key = (c.c_routine, c.c_block) in
      let sum, pc =
        Option.value ~default:(0, c.c_site_pc) (Hashtbl.find_opt sums key)
      in
      Hashtbl.replace sums key
        (sum + Eel_util.Bytebuf.get32_be mem c.c_addr, pc))
    p.counters;
  let skipped = p.skipped_blocks in
  Hashtbl.fold
    (fun (rname, bid) (sum, site_pc) acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          if site_pc < 0 || List.mem (rname, bid) skipped then Ok ()
          else
            let truth = Emu.pc_count profile site_pc in
            if sum = truth then Ok ()
            else
              Error
                (Printf.sprintf
                   "%s block %d: counters sum to %d, branch at 0x%x executed \
                    %d times"
                   rname bid sum site_pc truth))
    sums (Ok ())

(** The tool's edit contract (see {!Eel_equiv.Contract}): counter stores
    live in the span of reserved counter words, snippets may spill into the
    stack red zone, and the counters must reproduce the ground-truth
    profile. *)
let contract (p : t) =
  let regions =
    Option.to_list
      (Contract.span ~name:"qpt2 counters"
         (List.map (fun c -> c.c_addr) p.counters))
  in
  let check =
    {
      Contract.ck_name = "counters-match-profile";
      ck_run = (fun ~profile ~mem -> validate_counts p ~profile ~mem);
    }
  in
  Contract.make "qpt2" ~regions ~red_zone:Snippet.red_zone ~checks:[ check ]

(** Words the fault-injection campaign may corrupt with the guarantee that
    {!contract}'s post-run check notices: counter words whose block is
    fully instrumented (skewing a lower-bound counter of a skipped block
    would be absorbed by design). The value is the skew written before the
    run — any nonzero start breaks the exact-sum promise. *)
let fault_targets (p : t) =
  List.filter_map
    (fun c ->
      if c.c_site_pc >= 0 && not (List.mem (c.c_routine, c.c_block) p.skipped_blocks)
      then Some (Printf.sprintf "counter@0x%x" c.c_addr, c.c_addr, 7)
      else None)
    p.counters
