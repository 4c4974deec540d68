(* Quickstart: the paper's branch-counting tool (Figs. 1, 2 and 5).

   This example is a line-for-line OCaml rendition of the paper's Figure 1:
   open an executable, and for every basic block with more than one
   successor, add a counter-increment snippet along each outgoing edge.
   Process hidden routines as they are discovered, write the edited
   executable, run both versions in the emulator, and print the counters.

   Run with:  dune exec examples/quickstart.exe *)

module E = Eel.Executable
module C = Eel.Cfg
module Emu = Eel_emu.Emu
module Snippet = Eel.Snippet

let mach = Eel_sparc.Mach.mach

(* the program we instrument: a small loop nest with an if/else *)
let program =
  {|
        .text
        .global main
main:   mov 0, %l2              ! checksum
        mov 6, %l0              ! outer counter
Louter: andcc %l0, 1, %g0
        be Leven
        nop
        add %l2, 10, %l2        ! odd iteration
        ba Lnext
        nop
Leven:  add %l2, 1, %l2         ! even iteration
Lnext:  subcc %l0, 1, %l0
        bne Louter
        nop
        mov %l2, %o0
        ta 2                    ! print checksum
        mov 0, %o0
        ta 1                    ! exit
|}

(* Fig. 2: the low-level snippet that increments counter COUNTER_NUM.
   %v0/%v1 are virtual registers that EEL replaces with scavenged dead
   registers at each insertion point. *)
let incr_count exec counter_addr =
  ignore exec;
  Snippet.of_asm mach
    ~params:[ ("counter", counter_addr) ]
    {|
        sethi %hi($counter), %v0
        ld [%v0 + %lo($counter)], %v1
        add %v1, 1, %v1
        st %v1, [%v0 + %lo($counter)]
|}

(* Fig. 1: instrument(r) *)
let counters = ref []

let instrument exec r =
  let g = E.control_flow_graph exec r in
  let ed = E.editor exec r in
  List.iter
    (fun (b : C.block) ->
      if List.length b.C.succs > 1 then
        List.iter
          (fun (e : C.edge) ->
            if e.C.e_editable then (
              let addr = E.reserve_data exec 4 in
              counters := (addr, Format.asprintf "%a" C.pp_block b) :: !counters;
              Eel.Edit.add_along ed e (incr_count exec addr)))
          b.C.succs)
    (C.blocks g);
  E.produce_edited_routine exec r;
  E.delete_control_flow_graph r

(* Fig. 1: main *)
let () =
  let exe =
    match Eel_sparc.Asm.assemble program with
    | Ok e -> e
    | Error m -> failwith m
  in
  let exec = E.read_contents mach exe in
  List.iter (instrument exec) (E.routines exec);
  (* while (!exec->hidden_routines()->is_empty()) ... *)
  let rec drain () =
    match E.take_hidden exec with
    | Some r ->
        instrument exec r;
        drain ()
    | None -> ()
  in
  drain ();
  let x = E.edited_addr exec (E.start_address exec) in
  Printf.printf "entry 0x%x is edited to 0x%x\n" (E.start_address exec)
    (Option.get x);
  let edited = E.to_edited_sef exec () in
  (* run both versions; their observable behaviour must match *)
  let orig, _ = Emu.run_exe exe in
  let res, st = Emu.run_exe edited in
  Printf.printf "original output:  %s" orig.Emu.out;
  Printf.printf "edited output:    %s" res.Emu.out;
  Printf.printf "outputs match:    %b\n" (orig.Emu.out = res.Emu.out);
  Printf.printf "dynamic instructions: %d -> %d\n" orig.Emu.insns res.Emu.insns;
  Printf.printf "\nedge execution counts:\n";
  List.iter
    (fun (addr, what) ->
      Printf.printf "  %-24s %d\n" what (Eel_util.Bytebuf.get32_be st.Emu.mem addr))
    (List.rev !counters)
