(* eel_objdump — inspect a SEF executable through EEL's eyes.

   Shows sections and symbols, the refined routine list (after the paper's
   §3.1 symbol-table analysis: hidden routines, data tables, multiple entry
   points), per-routine disassembly, and CFG statistics. *)

module Sef = Eel_sef.Sef
module E = Eel.Executable
module C = Eel.Cfg
module Trace = Eel_obs.Trace

let mach = Eel_sparc.Mach.mach

(* OS ABI annotation: a [ta] whose immediate lands in the syscall window
   gets its resolved mnemonic as a trailing comment; anything else (other
   conditions, computed trap numbers, out-of-window immediates) is left
   alone. *)
let syscall_note word =
  match Eel_sparc.Insn.decode word with
  | Eel_sparc.Insn.Ticc
      { cond = Eel_sparc.Insn.CA; rs1 = 0; op2 = Eel_sparc.Insn.O_imm imm } -> (
      match Eel_os.Abi.name_of_trap_imm imm with
      | Some name -> Printf.sprintf "  ! sys_%s" name
      | None -> "")
  | _ -> ""

let disas_line a word =
  Format.printf "      %08x: %s%s\n" a
    (mach.Eel_arch.Machine.disas ~pc:a word)
    (syscall_note word)

let () =
  let path = ref None and disas = ref false and cfg = ref false in
  Cli.main "eel_objdump" ~usage:"eel_objdump [options] FILE  -- inspect a SEF executable"
    ~anon:(Cli.one_arg path) ~trace:true ~metrics:Cli.Stderr
    [
      ("-d", Arg.Set disas, " disassemble every reachable block");
      ("--disassemble", Arg.Set disas, " same as -d");
      ("--cfg", Arg.Set cfg, " dump CFG edges");
    ]
  @@ fun _ ->
  let path = Cli.the_arg "FILE" path in
  let exe = Trace.with_span "load" (fun () -> Sef.read_file path) in
  Format.printf "%a" Sef.pp exe;
  let t = Trace.with_span "analyze" (fun () -> E.read_contents mach exe) in
  (* force full analysis including hidden-routine discovery *)
  let stats = E.jump_stats t in
  Format.printf "\nroutines (%d) — %d instructions, %d indirect jumps (%d unanalyzable):\n"
    stats.E.js_routines stats.E.js_instructions stats.E.js_indirect_jumps
    stats.E.js_unanalyzable;
  List.iter
    (fun (r : E.routine) ->
      let g = E.control_flow_graph t r in
      let s = C.stats_of g in
      Format.printf "  %-20s 0x%x..0x%x%s%s  blocks=%d (delay=%d) edges=%d%s\n"
        r.E.r_name r.E.r_lo r.E.r_hi
        (if r.E.r_hidden then " [hidden]" else "")
        (if List.length r.E.r_entries > 1 then
           Printf.sprintf " [%d entries]" (List.length r.E.r_entries)
         else "")
        s.C.s_blocks s.C.s_delay s.C.s_edges
        (if E.is_data_table t r then " [data table]" else "");
      if !disas then
        List.iter
          (fun (b : C.block) ->
            if b.C.kind = C.Normal && b.C.reachable then (
              Array.iter
                (fun (a, (i : Eel_arch.Instr.t)) ->
                  disas_line a i.Eel_arch.Instr.word)
                b.C.instrs;
              match C.term_instr b with
              | Some (a, i) -> disas_line a i.Eel_arch.Instr.word
              | None -> ()))
          (C.blocks g);
      if !cfg then
        List.iter
          (fun (b : C.block) ->
            Format.printf "      %a ->" C.pp_block b;
            List.iter (fun (e : C.edge) -> Format.printf " %a" C.pp_block e.C.edst) b.C.succs;
            Format.printf "\n")
          (C.blocks g))
    (E.routines t);
  0
