(* End-to-end tests for the paper's §5 tools: qpt2 (edge profiling),
   oldqpt (the ad-hoc baseline), Active Memory (in-line cache simulation),
   SFI (sandboxing), and the address tracer. Each tool's edited executable
   is run in the emulator and validated against ground truth. *)

module Emu = Eel_emu.Emu
module E = Eel.Executable
module Qpt2 = Eel_tools.Qpt2
module Oldqpt = Eel_tools.Oldqpt
module Amemory = Eel_tools.Amemory
module Sfi = Eel_tools.Sfi
module Tracer = Eel_tools.Tracer
open Eel_sparc

let mach = Mach.mach

let assemble src =
  match Asm.assemble src with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "assembly failed: %s" m

let workload ?(style = Eel_workload.Gen.Gcc) ?(routines = 15) ?(seed = 3) () =
  match
    Asm.assemble
      (Eel_workload.Gen.program
         { Eel_workload.Gen.default with style; routines; seed })
  with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "workload assembly failed: %s" m

(* ------------------------------------------------------------------ *)
(* qpt2                                                                *)
(* ------------------------------------------------------------------ *)

let test_qpt2_loop () =
  let exe =
    assemble
      {|
main:   mov 5, %l0
Lloop:  subcc %l0, 1, %l0
        bne Lloop
        nop
        mov 0, %o0
        ta 1
|}
  in
  let orig, _ = Emu.run_exe exe in
  let prof = Qpt2.instrument mach exe in
  let res, st = Emu.run_exe prof.Qpt2.edited in
  Alcotest.(check string) "output" orig.Emu.out res.Emu.out;
  let counts = List.map snd (Qpt2.counts prof st.Emu.mem) in
  (* loop branch: 4 back-edge executions + 1 exit *)
  Alcotest.(check int) "two counters" 2 (List.length counts);
  Alcotest.(check bool) "back edge 4 + exit 1" true
    (List.sort compare counts = [ 1; 4 ])

let test_qpt2_workload () =
  List.iter
    (fun style ->
      let exe = workload ~style () in
      let orig, _ = Emu.run_exe exe in
      let prof = Qpt2.instrument mach exe in
      let res, st = Emu.run_exe prof.Qpt2.edited in
      Alcotest.(check string) "output preserved" orig.Emu.out res.Emu.out;
      Alcotest.(check bool) "has counters" true (List.length prof.Qpt2.counters > 10);
      (* edge counters must be consistent: every counter is bounded by the
         dynamic instruction count *)
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "counter sane" true (v >= 0 && v <= res.Emu.insns))
        (Qpt2.counts prof st.Emu.mem))
    [ Eel_workload.Gen.Gcc; Eel_workload.Gen.Sunpro ]

let test_qpt2_sums_match_ground_truth () =
  (* the sum of a conditional branch's out-edge counters equals the number
     of times the branch executed (ground truth from the original run) *)
  let exe = workload ~routines:8 ~seed:5 () in
  let branch_execs = Hashtbl.create 64 in
  let hook = function
    | Emu.Ev_exec { pc; word } -> (
        match Insn.decode word with
        | Insn.Bicc _ ->
            Hashtbl.replace branch_execs pc
              (1 + Option.value ~default:0 (Hashtbl.find_opt branch_execs pc))
        | _ -> ())
    | _ -> ()
  in
  let _, _ = Emu.run_exe ~hook exe in
  let total_branch_execs = Hashtbl.fold (fun _ v acc -> acc + v) branch_execs 0 in
  let prof = Qpt2.instrument mach exe in
  let _, st = Emu.run_exe prof.Qpt2.edited in
  let counted =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Qpt2.counts prof st.Emu.mem)
  in
  (* every counted edge execution corresponds to a branch execution; some
     branches' edges are uneditable (skipped), so counted <= executed, and
     with few skips they should be close *)
  Alcotest.(check bool) "counted <= branch execs" true (counted <= total_branch_execs);
  (* some branches' edges are uneditable (e.g. taken edges leaving the
     routine) and are skipped, so counted < executed; the gap must be
     modest and explained by skipped edges *)
  Alcotest.(check bool) "skips explain the gap" true
    (prof.Qpt2.skipped_uneditable > 0 || counted = total_branch_execs);
  Alcotest.(check bool) "counted within 30% of ground truth" true
    (float_of_int counted >= 0.7 *. float_of_int total_branch_execs)

(* ------------------------------------------------------------------ *)
(* oldqpt                                                              *)
(* ------------------------------------------------------------------ *)

let test_oldqpt_correctness () =
  let exe = workload ~routines:12 ~seed:9 () in
  let orig, _ = Emu.run_exe exe in
  let res = Oldqpt.instrument exe in
  let out, _ = Emu.run_exe res.Oldqpt.edited in
  Alcotest.(check string) "output preserved" orig.Emu.out out.Emu.out

let test_oldqpt_counts () =
  let exe = workload ~routines:10 ~seed:2 () in
  (* ground truth: per-branch execution counts from the original run *)
  let branch_execs = Hashtbl.create 64 in
  let hook = function
    | Emu.Ev_exec { pc; word } -> (
        match Insn.decode word with
        | Insn.Bicc _ ->
            Hashtbl.replace branch_execs pc
              (1 + Option.value ~default:0 (Hashtbl.find_opt branch_execs pc))
        | _ -> ())
    | _ -> ()
  in
  ignore (Emu.run_exe ~hook exe);
  let res = Oldqpt.instrument exe in
  let _, st = Emu.run_exe res.Oldqpt.edited in
  List.iter
    (fun (caddr, branch_pc) ->
      let counted = Eel_util.Bytebuf.get32_be st.Emu.mem caddr in
      let truth = Option.value ~default:0 (Hashtbl.find_opt branch_execs branch_pc) in
      Alcotest.(check int)
        (Printf.sprintf "branch at 0x%x" branch_pc)
        truth counted)
    res.Oldqpt.counters

let test_oldqpt_vs_qpt2_blocks () =
  (* E4: EEL CFGs contain more blocks than old-style flat blocks *)
  let exe = workload ~routines:12 ~seed:4 () in
  let old = Oldqpt.instrument exe in
  let t = E.read_contents mach exe in
  let stats = E.cfg_stats t in
  Alcotest.(check bool) "EEL blocks > old blocks" true
    (stats.Eel.Cfg.s_blocks > old.Oldqpt.blocks_seen)

(* ------------------------------------------------------------------ *)
(* Active Memory                                                       *)
(* ------------------------------------------------------------------ *)

let test_amemory_counts () =
  let exe = assemble (Eel_workload.Gen.memory_bound ~iters:4 ~size_words:32 ()) in
  let orig, _ = Emu.run_exe exe in
  let am = Amemory.instrument mach exe in
  let res, st = Emu.run_exe am.Amemory.edited in
  Alcotest.(check string) "output preserved" orig.Emu.out res.Emu.out;
  let refs = Amemory.refs am st.Emu.mem in
  let misses = Amemory.misses am st.Emu.mem in
  (* the program does 2 refs per word per pass: 4 * 32 * 2 = 256 *)
  Alcotest.(check int) "all references tested" 256 refs;
  (* 32 contiguous words = 8 lines of 16 bytes: cold misses only *)
  Alcotest.(check int) "cold misses" 8 misses;
  (* slowdown through instrumentation is real but bounded *)
  Alcotest.(check bool) "instrumented sites" true (am.Amemory.instrumented > 0);
  Alcotest.(check bool) "edited is slower" true (res.Emu.insns > orig.Emu.insns)

let test_amemory_cc_live () =
  (* a load between the compare and the branch: condition codes are live,
     forcing the branch-free test sequence *)
  let exe =
    assemble
      {|
main:   set v, %l1
        mov 3, %l0
Lloop:  subcc %l0, 1, %l0
        ld [%l1], %l2
        bne Lloop
        nop
        mov %l2, %o0
        ta 2
        mov 0, %o0
        ta 1
        .data
        .align 4
v:      .word 17
|}
  in
  let orig, _ = Emu.run_exe exe in
  let am = Amemory.instrument mach exe in
  Alcotest.(check bool) "cc-live site detected" true (am.Amemory.cc_live_sites > 0);
  let res, st = Emu.run_exe am.Amemory.edited in
  Alcotest.(check string) "cc-preserving sequence is correct" orig.Emu.out
    res.Emu.out;
  Alcotest.(check int) "3 refs" 3 (Amemory.refs am st.Emu.mem);
  Alcotest.(check int) "1 miss" 1 (Amemory.misses am st.Emu.mem)

let test_amemory_workload () =
  let exe = workload ~routines:10 ~seed:6 () in
  let orig, _ = Emu.run_exe exe in
  let am = Amemory.instrument mach exe in
  let res, st = Emu.run_exe am.Amemory.edited in
  Alcotest.(check string) "output preserved" orig.Emu.out res.Emu.out;
  let refs = Amemory.refs am st.Emu.mem in
  let misses = Amemory.misses am st.Emu.mem in
  Alcotest.(check bool) "misses <= refs" true (misses <= refs);
  Alcotest.(check bool) "some refs" true (refs > 0)

(* ------------------------------------------------------------------ *)
(* SFI                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sfi_transparent () =
  (* a program whose stores already sit inside the sandbox behaves
     identically *)
  let exe =
    assemble
      {|
main:   set buf, %l0
        mov 77, %l1
        st %l1, [%l0]
        ld [%l0], %o0
        ta 2
        mov 0, %o0
        ta 1
        .data
        .align 4
buf:    .word 0
|}
  in
  let orig, _ = Emu.run_exe exe in
  (* sandbox = [0x10000, 0x20000): covers .data *)
  let sb = Sfi.instrument mach exe ~seg_base:0x10000 ~seg_size:0x10000 in
  Alcotest.(check bool) "guarded a store" true (sb.Sfi.guarded > 0);
  let res, _ = Emu.run_exe sb.Sfi.edited in
  Alcotest.(check string) "in-segment stores unchanged" orig.Emu.out res.Emu.out

let test_sfi_contains_wild_store () =
  (* a store far outside the sandbox is clamped into it *)
  let exe =
    assemble
      {|
main:   set 0x300000, %l0       ! wild address
        mov 99, %l1
        st %l1, [%l0]
        mov 0, %o0
        ta 1
|}
  in
  let sb = Sfi.instrument mach exe ~seg_base:0x10000 ~seg_size:0x10000 in
  let _, st = Emu.run_exe sb.Sfi.edited in
  (* 0x300000 & 0xFFFF | 0x10000 = 0x10000 *)
  Alcotest.(check int) "value landed inside the sandbox" 99
    (Eel_util.Bytebuf.get32_be st.Emu.mem 0x10000);
  Alcotest.(check int) "wild address untouched" 0
    (Eel_util.Bytebuf.get32_be st.Emu.mem 0x300000)

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_tracer_exact () =
  let exe =
    assemble
      {|
main:   set buf, %l0
        mov 1, %l1
        st %l1, [%l0]
        st %l1, [%l0 + 8]
        ld [%l0 + 4], %l2
        mov 0, %o0
        ta 1
        .data
        .align 4
buf:    .word 0, 0, 0
|}
  in
  (* ground truth: the emulator's memory events on the original program *)
  let truth = ref [] in
  let hook = function
    | Emu.Ev_load { addr; _ } | Emu.Ev_store { addr; _ } -> truth := addr :: !truth
    | _ -> ()
  in
  ignore (Emu.run_exe ~hook exe);
  let truth = List.rev !truth in
  let tr = Tracer.instrument mach exe in
  let _, st = Emu.run_exe tr.Tracer.edited in
  let recorded = Tracer.trace tr st.Emu.mem in
  (* the trace also contains the tracer's own bookkeeping loads? no: the
     snippet traces only the program's effective addresses *)
  Alcotest.(check (list int)) "exact address trace" truth recorded

let test_tracer_workload () =
  let exe = workload ~routines:8 ~seed:8 () in
  let orig, _ = Emu.run_exe exe in
  let truth = ref 0 in
  let hook = function
    | Emu.Ev_load _ | Emu.Ev_store _ -> incr truth
    | _ -> ()
  in
  ignore (Emu.run_exe ~hook exe);
  let tr = Tracer.instrument mach exe in
  let res, st = Emu.run_exe tr.Tracer.edited in
  Alcotest.(check string) "output preserved" orig.Emu.out res.Emu.out;
  let recorded = List.length (Tracer.trace tr st.Emu.mem) in
  (* uneditable sites (loads in call delay slots) are skipped, so the trace
     can undercount slightly; the edited program also performs its own
     bookkeeping references which must NOT appear *)
  Alcotest.(check bool) "trace close to ground truth" true
    (recorded <= !truth && float_of_int recorded >= 0.85 *. float_of_int !truth)

let main_suites =
    [
      ( "qpt2",
        [
          Alcotest.test_case "loop edges" `Quick test_qpt2_loop;
          Alcotest.test_case "workload" `Quick test_qpt2_workload;
          Alcotest.test_case "ground truth" `Quick test_qpt2_sums_match_ground_truth;
        ] );
      ( "oldqpt",
        [
          Alcotest.test_case "correctness" `Quick test_oldqpt_correctness;
          Alcotest.test_case "branch counts" `Quick test_oldqpt_counts;
          Alcotest.test_case "block counts vs EEL" `Quick test_oldqpt_vs_qpt2_blocks;
        ] );
      ( "amemory",
        [
          Alcotest.test_case "counts" `Quick test_amemory_counts;
          Alcotest.test_case "cc-live sequence" `Quick test_amemory_cc_live;
          Alcotest.test_case "workload" `Quick test_amemory_workload;
        ] );
      ( "sfi",
        [
          Alcotest.test_case "transparent" `Quick test_sfi_transparent;
          Alcotest.test_case "contains wild store" `Quick test_sfi_contains_wild_store;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "exact trace" `Quick test_tracer_exact;
          Alcotest.test_case "workload" `Quick test_tracer_workload;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Optimal edge profiling (Ball-Larus spanning-tree placement)         *)
(* ------------------------------------------------------------------ *)

module Optprof = Eel_tools.Optprof
module C = Eel.Cfg

(* full instrumentation as ground truth: optimal must reconstruct the same
   count for every editable edge, from strictly fewer counters *)
let check_optimal_against_full exe =
  let orig, _ = Emu.run_exe exe in
  (* ground truth: one counter per editable edge (plain qpt2) *)
  let full = Qpt2.instrument mach exe in
  let _, st_full = Emu.run_exe full.Qpt2.edited in
  let full_counts = Hashtbl.create 64 in
  List.iter
    (fun ((c : Qpt2.counter), v) ->
      Hashtbl.replace full_counts (c.Qpt2.c_routine, c.Qpt2.c_edge) v)
    (Qpt2.counts full st_full.Emu.mem);
  (* optimal placement *)
  let opt = Optprof.instrument mach exe in
  let res, st = Emu.run_exe opt.Optprof.edited in
  Alcotest.(check string) "output preserved" orig.Emu.out res.Emu.out;
  (* optimal placement profiles EVERY edge while instrumenting well under
     half of the editable ones (tree edges are reconstructed) *)
  let editable_edges =
    List.fold_left
      (fun acc (rp : Optprof.routine_prof) ->
        acc
        + List.length
            (List.filter
               (fun (re : Optprof.redge) ->
                 match re.Optprof.re_cfg with
                 | Some e -> e.C.e_editable
                 | None -> false)
               rp.Optprof.rp_edges))
      0 opt.Optprof.routines
  in
  Alcotest.(check bool)
    (Printf.sprintf "counters well below editable edges (%d vs %d)"
       opt.Optprof.n_counters editable_edges)
    true
    (2 * opt.Optprof.n_counters < editable_edges);
  (* reconstructed profile matches ground truth on every edge qpt2
     counted (edges out of multi-successor blocks) *)
  let compared = ref 0 in
  List.iter
    (fun (rname, edges) ->
      List.iter
        (fun ((e : C.edge), v) ->
          match Hashtbl.find_opt full_counts (rname, e.C.eid) with
          | Some truth ->
              incr compared;
              Alcotest.(check int)
                (Printf.sprintf "%s edge %d" rname e.C.eid)
                truth v
          | None -> ())
        edges)
    (Optprof.edge_counts opt st.Emu.mem);
  Alcotest.(check bool) "compared many edges" true (!compared > 10)

let test_optprof_loop () =
  (* a loop: the hot back edge must carry no counter *)
  let exe =
    assemble
      {|
main:   mov 50, %l0
Lloop:  subcc %l0, 1, %l0
        bne Lloop
        nop
        mov 0, %o0
        ta 1
|}
  in
  let opt = Optprof.instrument mach exe in
  let _, st = Emu.run_exe opt.Optprof.edited in
  let profile = List.assoc "main" (Optprof.edge_counts opt st.Emu.mem) in
  (* the taken (back) edge executed 49 times, the exit edge once *)
  let counts = List.map snd profile in
  Alcotest.(check bool) "back edge count recovered" true (List.mem 49 counts);
  Alcotest.(check bool) "exit edge count recovered" true (List.mem 1 counts);
  (* fewer counters than a full edge profile would use *)
  Alcotest.(check bool) "at most 2 counters" true (opt.Optprof.n_counters <= 2)

let test_optprof_workloads () =
  check_optimal_against_full (workload ~routines:10 ~seed:14 ());
  check_optimal_against_full (workload ~style:Eel_workload.Gen.Sunpro ~routines:10 ~seed:15 ())

let test_optprof_under_contract_oracle () =
  (* the sparse Ball-Larus edit holds up under the equivalence oracle: the
     edited image is event-equivalent modulo the declared counter span, and
     the reconstruction check validates against the ground-truth profile *)
  let exe = workload ~routines:8 ~seed:21 () in
  let ap =
    match Eel_tools.Toolbox.apply "optprof" mach exe with
    | Ok ap -> ap
    | Error m -> Alcotest.failf "toolbox: %s" m
  in
  match
    Eel_diffexec.Diffexec.verify_edit ~norm_b:ap.Eel_tools.Toolbox.ap_norm_b
      ~block_of:ap.Eel_tools.Toolbox.ap_block_of
      ~contract:ap.Eel_tools.Toolbox.ap_contract exe
      ap.Eel_tools.Toolbox.ap_edited
  with
  | Error e ->
      Alcotest.failf "oracle: %s" (Eel_robust.Diag.error_message e)
  | Ok er ->
      Alcotest.(check string)
        "verdict" "equivalent"
        (Eel_diffexec.Diffexec.verdict_name
           er.Eel_diffexec.Diffexec.er_report.Eel_diffexec.Diffexec.rp_verdict);
      Alcotest.(check bool) "counter traffic masked" true
        (er.Eel_diffexec.Diffexec.er_masked > 0)

(* ------------------------------------------------------------------ *)
(* Once-assembled templates, filled per site, equal the assembler      *)
(* ------------------------------------------------------------------ *)

(* Each tool assembles its snippet body once and fills per-site holes. The
   per-site assembly text the tools used to build lives on here only, as
   the reference: both forms are instantiated under the same live sets
   (nothing live; every allocatable register live, so the allocator
   spills) and must give the same words and relocations. *)
module Snippet = Eel.Snippet
module Template = Eel_arch.Template
module Regset = Eel_arch.Regset

let reg = mach.Eel_arch.Machine.reg_name

let ea_text = function
  | Some (rs1, Insn.O_imm k) -> Printf.sprintf "        add %s, %d, %%v0\n" (reg rs1) k
  | Some (rs1, Insn.O_reg r2) ->
      Printf.sprintf "        add %s, %s, %%v0\n" (reg rs1) (reg r2)
  | None -> Alcotest.fail "not a memory instruction"

let load rs1 op2 =
  mach.Eel_arch.Machine.lift (Insn.encode (Insn.Mem { op = Insn.Ld; rs1; op2; rd = 8 }))

(* the cases where [filled] and [text] instantiate differently *)
let differing cases =
  List.concat_map
    (fun (what, filled, text) ->
      List.filter_map
        (fun live ->
          let a = Snippet.instantiate mach filled ~live
          and b = Snippet.instantiate mach text ~live in
          if a.Snippet.in_words = b.Snippet.in_words
             && a.Snippet.in_relocs = b.Snippet.in_relocs
          then None
          else Some what)
        [ Regset.empty; mach.Eel_arch.Machine.allocatable ])
    cases

let test_template_ea () =
  let ea = Eel_tools.Ea.word mach in
  let op2s =
    List.map (fun k -> Insn.O_imm k) [ -4096; -1; 0; 1; 4095 ]
    @ List.init 32 (fun r -> Insn.O_reg r)
  in
  let cases =
    List.concat_map
      (fun rs1 ->
        List.map
          (fun op2 ->
            let i = load rs1 op2 in
            let text = ea_text i.Eel_arch.Instr.ea in
            (text, Snippet.of_template (ea i), Snippet.of_asm mach text))
          op2s)
      (List.init 32 Fun.id)
  in
  Alcotest.(check int) "cases" (32 * 37) (List.length cases);
  Alcotest.(check (list string)) "ea words differ" [] (differing cases)

let test_template_counter () =
  let count_at = Qpt2.incr_count mach in
  let st = Random.State.make [| 19 |] in
  let cases =
    List.init 1000 (fun _ ->
        let addr = Random.State.full_int st (1 lsl 32) in
        ( Printf.sprintf "counter 0x%x" addr,
          count_at addr,
          Snippet.of_asm mach
            ~params:[ ("counter", addr) ]
            {|
        sethi %hi($counter), %v0
        ld [%v0 + %lo($counter)], %v1
        add %v1, 1, %v1
        st %v1, [%v0 + %lo($counter)]
|} ))
  in
  Alcotest.(check (list string)) "counter words differ" [] (differing cases)

let test_template_store () =
  let store = Sfi.rebased_store mach in
  let cases =
    List.concat_map
      (fun op ->
        (* std names an even register pair; an odd rd does not decode *)
        List.filter_map
          (fun rd ->
            if op = Insn.Std && rd land 1 = 1 then None
            else
              let i =
                mach.Eel_arch.Machine.lift
                  (Insn.encode (Insn.Mem { op; rs1 = 9; op2 = Insn.O_imm 4; rd }))
              in
              let text =
                Printf.sprintf "        %s %s, [%%v0]\n" (Insn.mem_name op) (reg rd)
              in
              Some (text, Snippet.of_template (store i), Snippet.of_asm mach text))
          (List.init 32 Fun.id))
      [ Insn.St; Insn.Stb; Insn.Sth; Insn.Std ]
  in
  Alcotest.(check int) "cases" ((3 * 32) + 16) (List.length cases);
  Alcotest.(check (list string)) "re-based stores differ" [] (differing cases)

let test_template_bodies () =
  let ea = Eel_tools.Ea.word mach in
  let params =
    [ ("table", 0x12340); ("mbox", 0x56780); ("handler", 0x2000); ("refs", 0x9abc0) ]
  in
  let sites =
    [ load 14 (Insn.O_imm (-8)); load 1 (Insn.O_reg 2); load 30 (Insn.O_imm 4095) ]
  in
  let cases =
    List.concat_map
      (fun (name, body) ->
        List.map
          (fun i ->
            let filled =
              Snippet.of_template
                (Template.concat (ea i) (Snippet.template mach ~params body))
            and text =
              Snippet.of_asm mach ~params (ea_text i.Eel_arch.Instr.ea ^ body)
            in
            Alcotest.(check (list int))
              (name ^ ": calls the handler")
              [ 0x2000 ]
              (List.map
                 (fun (r : Template.reloc) -> r.Template.target)
                 filled.Snippet.sn_template.Template.relocs);
            (name ^ " " ^ ea_text i.Eel_arch.Instr.ea, filled, text))
          sites)
      [ ("cc-dead", Amemory.test_cc_dead); ("cc-live", Amemory.test_cc_live) ]
  in
  Alcotest.(check (list string)) "amemory tests differ" [] (differing cases)

(* ------------------------------------------------------------------ *)
(* Edited-image golden digests                                         *)
(* ------------------------------------------------------------------ *)

(* The MD5 of [Sef.to_string] of every tool's edited image, over the 22
   corpus programs and one 40-routine gcc and sunpro generated program,
   pinned in edited-digests.txt (one "tool program md5" line each). The
   editor's output changes only on purpose; when it does, the failure
   message carries the whole replacement file. *)
let golden_file = "edited-digests.txt"

let golden_lines () =
  let progs =
    Eel_diffexec.Corpus.all ()
    @ List.map (fun (n, e, _) -> (n, e)) (Eel_diffexec.Corpus.all_os ())
    @ [
        ("gcc-s11-r40", workload ~routines:40 ~seed:11 ());
        ( "sunpro-s12-r40",
          workload ~style:Eel_workload.Gen.Sunpro ~routines:40 ~seed:12 () );
      ]
  in
  List.concat_map
    (fun tool ->
      List.map
        (fun (prog, exe) ->
          match Eel_tools.Toolbox.apply tool mach exe with
          | Ok ap ->
              Printf.sprintf "%s %s %s" tool prog
                (Digest.to_hex
                   (Digest.string
                      (Eel_sef.Sef.to_string ap.Eel_tools.Toolbox.ap_edited)))
          | Error m -> Alcotest.failf "%s: %s" tool m)
        progs)
    Eel_tools.Toolbox.names

let test_golden_digests () =
  let got = golden_lines () in
  let want =
    In_channel.with_open_text golden_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if got <> want then
    Alcotest.failf "%d of %d edited-image digests differ; replacement %s:\n%s"
      (List.length (List.filter (fun l -> not (List.mem l want)) got))
      (List.length got) golden_file (String.concat "\n" got)

let () =
  Alcotest.run "tools"
    (main_suites
    @ [
        ( "templates",
          [
            Alcotest.test_case "ea word" `Quick test_template_ea;
            Alcotest.test_case "qpt2 counter" `Quick test_template_counter;
            Alcotest.test_case "sfi re-based store" `Quick test_template_store;
            Alcotest.test_case "amemory tests" `Quick test_template_bodies;
          ] );
        ( "golden",
          [ Alcotest.test_case "edited-image digests" `Quick test_golden_digests ]
        );
        ( "optprof",
          [
            Alcotest.test_case "loop placement" `Quick test_optprof_loop;
            Alcotest.test_case "matches full profile" `Quick
              test_optprof_workloads;
            Alcotest.test_case "holds under the contract oracle" `Quick
              test_optprof_under_contract_oracle;
          ] );
      ])
