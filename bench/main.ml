(* The experiment harness: regenerates every quantitative claim of the
   paper's evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md
   for paper-vs-measured numbers).

     E1 (Table 1)  qpt vs qpt2 tool cost
     E2 (§3.3)     indirect-jump analyzability, gcc vs sunpro styles
     E3 (§3.3)     uneditable blocks and edges (paper: 15-20%)
     E4 (§5)       CFG block counts vs old-style blocks
     E5 (§3.4)     instruction sharing (paper: ~4x fewer objects)
     E6 (§5)       Active Memory slowdown (paper: 2-7x)
     E7 (§4)       spawn description vs generated vs handwritten lines
     E8 (§5)       allocated objects, EEL tool vs ad-hoc tool
     ablations     delay-slot refolding, slicing, span limits, scavenging

   Wall-clock timings use Bechamel (one Test per timed table); counts come
   from the emulator and EEL's allocation statistics.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- e2 *)

module Sef = Eel_sef.Sef
module E = Eel.Executable
module C = Eel.Cfg
module Emu = Eel_emu.Emu
module Gen = Eel_workload.Gen
module Qpt2 = Eel_tools.Qpt2
module Oldqpt = Eel_tools.Oldqpt
module Amemory = Eel_tools.Amemory
module Metrics = Eel_obs.Metrics

let mach = Eel_sparc.Mach.mach

let assemble src =
  match Eel_sparc.Asm.assemble src with
  | Ok e -> e
  | Error m -> failwith ("bench: assembly failed: " ^ m)

let spim_like = lazy (assemble (Gen.spim_like ~seed:7 ~routines:120 ()))

let check_same_output exe edited =
  let a, _ = Emu.run_exe exe in
  let b, _ = Emu.run_exe edited in
  if a.Emu.out <> b.Emu.out then failwith "bench: edited output diverged";
  (a, b)

(* EEL's allocation statistics are the eel.stats.* Metrics counters:
   [stats_delta f] runs [f] and returns how much it bumped each one *)
let stats_delta f =
  let before = Metrics.snapshot () in
  ignore (f ());
  let after = Metrics.snapshot () in
  fun name ->
    let read snap =
      match List.assoc_opt ("eel.stats." ^ name) snap with
      | Some (Metrics.Int n) -> n
      | _ -> 0
    in
    read after - read before

(* the paper's object census (§5): the four allocation counters; lifted
   words and CFG builds count work, not objects *)
let objects d =
  d "instrs_alloc" + d "blocks_alloc" + d "edges_alloc" + d "snippets_alloc"

(* ---------------------------------------------------------------- *)
(* Bechamel glue: estimated ns/run for a thunk                       *)
(* ---------------------------------------------------------------- *)

let ols =
  Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
    ~predictors:[| Bechamel.Measure.run |]

let measure_ns ?(quota = 1.0) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
    res nan

let ms ns = ns /. 1e6

(* ---------------------------------------------------------------- *)
(* E1 — Table 1: qpt vs qpt2                                          *)
(* ---------------------------------------------------------------- *)

let e1 () =
  print_endline "=== E1 (Table 1): qpt vs qpt2 on the spim-like program ===";
  let exe = Lazy.force spim_like in
  Printf.printf "input: %d bytes of text+data, %d symbols\n"
    (Sef.image_size exe)
    (List.length exe.Sef.symbols);
  (* correctness of each tool first *)
  let old = Oldqpt.instrument exe in
  ignore (check_same_output exe old.Oldqpt.edited);
  let q2_base = Qpt2.instrument ~cache_instrs:false ~fold_delay:false mach exe in
  ignore (check_same_output exe q2_base.Qpt2.edited);
  let q2_opt = Qpt2.instrument ~cache_instrs:true ~fold_delay:true mach exe in
  ignore (check_same_output exe q2_opt.Qpt2.edited);
  (* timings *)
  let t_old = measure_ns "qpt(oldqpt)" (fun () -> ignore (Oldqpt.instrument exe)) in
  let t_q2_base =
    measure_ns "qpt2(base)" (fun () ->
        ignore (Qpt2.instrument ~cache_instrs:false ~fold_delay:false mach exe))
  in
  let t_q2_opt =
    measure_ns "qpt2(-O2)" (fun () ->
        ignore (Qpt2.instrument ~cache_instrs:true ~fold_delay:true mach exe))
  in
  (* allocation counts *)
  let objs_opt =
    objects
      (stats_delta (fun () ->
           Qpt2.instrument ~cache_instrs:true ~fold_delay:true mach exe))
  in
  let objs_base =
    objects
      (stats_delta (fun () ->
           Qpt2.instrument ~cache_instrs:false ~fold_delay:false mach exe))
  in
  Printf.printf "%-14s %12s %9s %10s %12s\n" "tool version" "run time" "ratio"
    "objects" "output size";
  let row name t objs size =
    Printf.printf "%-14s %9.1f ms %8.2fx %10d %11dB\n" name (ms t) (t /. t_old)
      objs size
  in
  row "qpt" t_old old.Oldqpt.objects (Sef.image_size old.Oldqpt.edited);
  row "qpt2" t_q2_base objs_base (Sef.image_size q2_base.Qpt2.edited);
  row "qpt2 -O2" t_q2_opt objs_opt (Sef.image_size q2_opt.Qpt2.edited);
  Printf.printf
    "(paper Table 1: qpt2 4.3x slower than qpt unoptimized, 2.4x at -O2)\n\n"

(* ---------------------------------------------------------------- *)
(* E2 — indirect-jump analyzability                                  *)
(* ---------------------------------------------------------------- *)

let suite style =
  List.map
    (fun seed ->
      assemble (Gen.program { Gen.default with style; seed; routines = 40 }))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let e2 () =
  print_endline "=== E2 (§3.3): indirect-jump analyzability ===";
  Printf.printf "%-22s %9s %12s %8s %14s\n" "suite" "routines" "instructions"
    "ijumps" "unanalyzable";
  List.iter
    (fun (name, style) ->
      let totals = ref (0, 0, 0, 0) in
      List.iter
        (fun exe ->
          let t = E.read_contents mach exe in
          let s = E.jump_stats t in
          let a, b, c, d = !totals in
          totals :=
            ( a + s.E.js_routines,
              b + s.E.js_instructions,
              c + s.E.js_indirect_jumps,
              d + s.E.js_unanalyzable ))
        (suite style);
      let a, b, c, d = !totals in
      Printf.printf "%-22s %9d %12d %8d %14d\n" name a b c d)
    [ ("gcc-style (SunOS)", Gen.Gcc); ("sunpro-style (Solaris)", Gen.Sunpro) ];
  Printf.printf
    "(paper: gcc 0 of 1,325 unanalyzable; sunpro 138 of 1,244, all from the\n\
    \ pop-frame-and-jump tail-call idiom -- the same idiom drives ours)\n\n"

(* ---------------------------------------------------------------- *)
(* E3 — uneditable blocks and edges                                  *)
(* ---------------------------------------------------------------- *)

let e3 () =
  print_endline "=== E3 (§3.3): uneditable blocks and edges ===";
  let stats =
    List.map
      (fun exe ->
        let t = E.read_contents mach exe in
        ignore (E.jump_stats t);
        E.cfg_stats t)
      (suite Gen.Gcc)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let blocks = sum (fun s -> s.C.s_blocks) in
  let ub = sum (fun s -> s.C.s_uneditable_blocks) in
  let edges = sum (fun s -> s.C.s_edges) in
  let ue = sum (fun s -> s.C.s_uneditable_edges) in
  Printf.printf "blocks: %d of %d uneditable (%.1f%%)\n" ub blocks
    (100. *. float_of_int ub /. float_of_int blocks);
  Printf.printf "edges:  %d of %d uneditable (%.1f%%)\n" ue edges
    (100. *. float_of_int ue /. float_of_int edges);
  Printf.printf "(paper: \"although 15-20%% of edges and blocks are uneditable...\")\n\n"

(* ---------------------------------------------------------------- *)
(* E4 — CFG block counts                                             *)
(* ---------------------------------------------------------------- *)

let e4 () =
  print_endline "=== E4 (§5): EEL CFG blocks vs old-style blocks ===";
  let exe = Lazy.force spim_like in
  let old = Oldqpt.instrument exe in
  let t = E.read_contents mach exe in
  ignore (E.jump_stats t);
  let s = E.cfg_stats t in
  Printf.printf "old-style blocks (linear scan):    %d\n" old.Oldqpt.blocks_seen;
  Printf.printf "EEL CFG blocks:                    %d\n" s.C.s_blocks;
  Printf.printf "  of which delay-slot blocks:      %d\n" s.C.s_delay;
  Printf.printf "  of which entry/exit blocks:      %d\n" s.C.s_entry_exit;
  Printf.printf "  of which call-surrogate blocks:  %d\n" s.C.s_surrogate;
  Printf.printf
    "(paper: 26,912 EEL blocks vs 15,441 -- 12,774 delay, 920 entry/exit,\n\
    \ 1,942 call surrogates; EEL CFGs are larger by design)\n\n"

(* ---------------------------------------------------------------- *)
(* E5 — instruction sharing                                          *)
(* ---------------------------------------------------------------- *)

let e5 () =
  print_endline "=== E5 (§3.4): instruction sharing ===";
  let exe = Lazy.force spim_like in
  let count cache_instrs =
    let d =
      stats_delta (fun () ->
          E.jump_stats (E.read_contents ~cache_instrs mach exe))
    in
    (d "instrs_lifted", d "instrs_alloc")
  in
  let lifted, alloc_shared = count true in
  let _, alloc_unshared = count false in
  Printf.printf "machine words lifted:              %d\n" lifted;
  Printf.printf "instruction objects, sharing OFF:  %d\n" alloc_unshared;
  Printf.printf "instruction objects, sharing ON:   %d\n" alloc_shared;
  Printf.printf "reduction factor:                  %.1fx\n"
    (float_of_int alloc_unshared /. float_of_int alloc_shared);
  Printf.printf
    "(paper: \"typically ... reduces the number of allocated EEL\n\
    \ instructions by a factor of four\")\n\n"

(* ---------------------------------------------------------------- *)
(* E6 — Active Memory slowdown                                       *)
(* ---------------------------------------------------------------- *)

let e6 () =
  print_endline "=== E6 (§5): Active Memory cache-simulation slowdown ===";
  Printf.printf "%-24s %10s %10s %9s %8s %8s\n" "workload" "orig-insn"
    "edited" "slowdown" "refs" "misses";
  List.iter
    (fun (name, src) ->
      let exe = assemble src in
      let orig, _ = Emu.run_exe exe in
      let am = Amemory.instrument mach exe in
      let res, st = Emu.run_exe am.Amemory.edited in
      assert (orig.Emu.out = res.Emu.out);
      Printf.printf "%-24s %10d %10d %8.2fx %8d %8d\n" name orig.Emu.insns
        res.Emu.insns
        (float_of_int res.Emu.insns /. float_of_int orig.Emu.insns)
        (Amemory.refs am st.Emu.mem)
        (Amemory.misses am st.Emu.mem))
    [
      ("dense-walk", Gen.memory_bound ~iters:30 ~size_words:1024 ());
      ("hot-set", Gen.memory_bound ~iters:200 ~size_words:16 ());
      ( "mixed-mem",
        Gen.program { Gen.default with routines = 25; seed = 9; mem_frac = 0.9 } );
      ( "mixed-light",
        Gen.program { Gen.default with routines = 25; seed = 10; mem_frac = 0.2 } );
    ];
  Printf.printf "(paper: Active Memory lowered cache simulation to a 2-7x slowdown)\n\n"

(* ---------------------------------------------------------------- *)
(* E7 — spawn conciseness                                            *)
(* ---------------------------------------------------------------- *)

let loc_of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  (s, Eel_spawn.Codegen.loc_of_string s)

let find_path p = if Sys.file_exists p then p else Filename.concat ".." p

let e7 () =
  print_endline "=== E7 (§4): machine-description conciseness ===";
  let desc_path = find_path "descriptions/sparc.spawn" in
  let _, desc_loc = loc_of_file desc_path in
  let el = Eel_spawn.Smach.load_description desc_path in
  let gen_loc = Eel_spawn.Codegen.loc_of_string (Eel_spawn.Codegen.generate el) in
  let handwritten =
    List.filter_map
      (fun f ->
        let p = find_path ("lib/sparc/" ^ f) in
        if Sys.file_exists p then Some (snd (loc_of_file p)) else None)
      [ "insn.ml"; "lift.ml"; "mach.ml" ]
  in
  let hand_loc = List.fold_left ( + ) 0 handwritten in
  Printf.printf "spawn description:            %4d lines\n" desc_loc;
  Printf.printf "spawn-generated OCaml:        %4d lines\n" gen_loc;
  Printf.printf "handwritten machine layer:    %4d lines (insn+lift+mach)\n" hand_loc;
  Printf.printf
    "(paper: description 145 lines, handwritten 2,268, generated 6,178)\n\n"

(* ---------------------------------------------------------------- *)
(* E8 — allocated objects                                            *)
(* ---------------------------------------------------------------- *)

let e8 () =
  print_endline "=== E8 (§5): allocated objects, EEL tool vs ad-hoc tool ===";
  let exe = Lazy.force spim_like in
  let d = stats_delta (fun () -> Qpt2.instrument mach exe) in
  let eel_objects = objects d in
  let old = Oldqpt.instrument exe in
  Printf.printf
    "qpt2 (EEL) objects:   %d  (instrs lifted=%d allocated=%d blocks=%d \
     edges=%d snippets=%d cfgs=%d)\n"
    eel_objects (d "instrs_lifted") (d "instrs_alloc") (d "blocks_alloc")
    (d "edges_alloc") (d "snippets_alloc") (d "cfgs_built");
  Printf.printf "qpt (ad-hoc) objects: %d\n" old.Oldqpt.objects;
  Printf.printf "ratio:                %.1fx\n"
    (float_of_int eel_objects /. float_of_int old.Oldqpt.objects);
  Printf.printf "(paper: 317,494 vs 84,655 -- about 3.8x)\n\n"

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

let edited_with t = E.to_edited_sef t ()

let new_text_size (ed : Sef.t) =
  (List.find (fun (s : Sef.section) -> s.Sef.sec_name = ".eel.text") ed.Sef.sections)
    .Sef.size

let ablation_folding () =
  print_endline "--- ablation: delay-slot refolding (§3.3) ---";
  let exe = assemble (Gen.program { Gen.default with routines = 30; seed = 17 }) in
  let orig, _ = Emu.run_exe exe in
  let run fold =
    let t = E.read_contents mach exe in
    t.E.fold_delay <- fold;
    let ed = edited_with t in
    let res, _ = Emu.run_exe ed in
    assert (res.Emu.out = orig.Emu.out);
    (new_text_size ed, res.Emu.insns)
  in
  let size_f, insns_f = run true in
  let size_n, insns_n = run false in
  Printf.printf "refolding ON:  edited text %6d bytes, %7d dynamic instructions\n"
    size_f insns_f;
  Printf.printf "refolding OFF: edited text %6d bytes, %7d dynamic instructions\n"
    size_n insns_n;
  Printf.printf
    "(paper: \"duplicated delay slot instructions increase a program's\n\
    \ size and execution time, so EEL folds instructions back\")\n\n"

let ablation_slicing () =
  print_endline
    "--- ablation: dispatch-table slicing vs run-time translation (§3.3) ---";
  let exe =
    assemble (Gen.program { Gen.default with routines = 30; seed = 19; case_frac = 0.9 })
  in
  let orig, _ = Emu.run_exe exe in
  let run slicing =
    let t = E.read_contents mach exe in
    t.E.slicing <- slicing;
    let s = E.jump_stats t in
    let ed = edited_with t in
    let res, _ = Emu.run_exe ed in
    assert (res.Emu.out = orig.Emu.out);
    (s.E.js_unanalyzable, s.E.js_indirect_jumps, res.Emu.insns)
  in
  let un_on, j_on, insns_on = run true in
  let un_off, j_off, insns_off = run false in
  Printf.printf "slicing ON:  %d/%d jumps unanalyzable, %7d dynamic instructions\n"
    un_on j_on insns_on;
  Printf.printf "slicing OFF: %d/%d jumps unanalyzable, %7d dynamic instructions\n"
    un_off j_off insns_off;
  Printf.printf
    "(paper: \"EEL's slicing makes run-time translation a rare occurrence\")\n\n"

let ablation_span () =
  print_endline "--- ablation: branch-span limits force long-jump thunks (§3.3.1) ---";
  (* a routine with a far backward loop branch near its end: under an
     artificially small span the branch cannot reach the loop head and is
     re-targeted at a long-jump thunk *)
  let pad = String.concat "" (List.init 700 (fun _ -> "        add %l1, 1, %l1\n")) in
  let exe =
    assemble
      ("main:   mov 3, %l0\n        mov 0, %l1\nLtop:\n" ^ pad
     ^ "        subcc %l0, 1, %l0\n        bne Ltop\n        nop\n\
        \        mov %l1, %o0\n        ta 2\n        mov 0, %o0\n        ta 1\n")
  in
  let orig, _ = Emu.run_exe exe in
  let run max_span =
    let t = E.read_contents mach exe in
    t.E.max_span <- max_span;
    let ed = edited_with t in
    let res, _ = Emu.run_exe ed in
    assert (res.Emu.out = orig.Emu.out);
    new_text_size ed
  in
  let normal = run None in
  let tight = run (Some 2048) in
  Printf.printf "native span (+-8MB): edited text %6d bytes\n" normal;
  Printf.printf "forced 2KB span:     edited text %6d bytes (thunks added)\n" tight;
  Printf.printf
    "(paper: \"occasionally replacing these instructions by snippets\n\
    \ containing instructions with a longer span\")\n\n"

let ablation_scavenging () =
  print_endline "--- ablation: register scavenging vs forced spills (§3.5) ---";
  let exe = assemble (Gen.program { Gen.default with routines = 20; seed = 29 }) in
  let orig, _ = Emu.run_exe exe in
  let counter_snippet forbid addr =
    Eel.Snippet.of_asm mach ~forbid
      ~params:[ ("counter", addr) ]
      "sethi %hi($counter), %v0\n\
       ld [%v0 + %lo($counter)], %v1\n\
       add %v1, 1, %v1\n\
       st %v1, [%v0 + %lo($counter)]\n"
  in
  let run forbid =
    let t = E.read_contents mach exe in
    let do_routine r =
      let g = E.control_flow_graph t r in
      let ed = E.editor t r in
      List.iter
        (fun (b : C.block) ->
          if
            b.C.kind = C.Normal && b.C.reachable && b.C.editable
            && (not b.C.is_data)
            && Array.length b.C.instrs > 0
          then Eel.Edit.add_before ed b 0 (counter_snippet forbid (E.reserve_data t 4)))
        (C.blocks g);
      E.produce_edited_routine t r
    in
    E.iter_routines t do_routine;
    let ed = edited_with t in
    let res, _ = Emu.run_exe ed in
    assert (res.Emu.out = orig.Emu.out);
    res.Emu.insns
  in
  let scavenged = run Eel_arch.Regset.empty in
  let forced =
    run
      (Eel_arch.Regset.diff mach.Eel_arch.Machine.allocatable
         (Eel_arch.Regset.of_list [ 16; 17 ]))
  in
  Printf.printf "scavenged registers: %7d dynamic instructions\n" scavenged;
  Printf.printf "forced spills:       %7d dynamic instructions\n" forced;
  Printf.printf
    "(paper: \"EEL finds the live registers ... and assigns dead\n\
    \ registers to the snippet\"; spills are the fallback)\n\n"

(* ---------------------------------------------------------------- *)
(* Optimal profiling (Ball-Larus placement)                          *)
(* ---------------------------------------------------------------- *)

let optprof () =
  print_endline "--- qpt's optimal edge profiling (Ball-Larus placement) ---";
  let exe = assemble (Gen.program { Gen.default with routines = 30; seed = 41 }) in
  let orig, _ = Emu.run_exe exe in
  let opt = Eel_tools.Optprof.instrument mach exe in
  let ores, st = Emu.run_exe opt.Eel_tools.Optprof.edited in
  assert (ores.Emu.out = orig.Emu.out);
  ignore (Eel_tools.Optprof.edge_counts opt st.Emu.mem);
  let editable =
    List.fold_left
      (fun acc (rp : Eel_tools.Optprof.routine_prof) ->
        acc
        + List.length
            (List.filter
               (fun (re : Eel_tools.Optprof.redge) ->
                 match re.Eel_tools.Optprof.re_cfg with
                 | Some e -> e.C.e_editable
                 | None -> false)
               rp.Eel_tools.Optprof.rp_edges))
      0 opt.Eel_tools.Optprof.routines
  in
  Printf.printf "flow-graph edges profiled:        %4d\n" opt.Eel_tools.Optprof.n_edges;
  Printf.printf "editable (instrumentable) edges:  %4d\n" editable;
  Printf.printf "counters actually placed:         %4d (%.0f%% of editable)\n"
    opt.Eel_tools.Optprof.n_counters
    (100. *. float_of_int opt.Eel_tools.Optprof.n_counters /. float_of_int editable);
  Printf.printf "instrumented run: %d dynamic instructions (original %d)\n"
    ores.Emu.insns orig.Emu.insns;
  Printf.printf
    "(qpt's approach [4]: counters only off a maximum spanning tree, hot\n\
    \ loop back edges uninstrumented; the rest reconstructed by flow\n\
    \ conservation — validated against full instrumentation in the tests)\n\n"

(* ---------------------------------------------------------------- *)
(* Contract oracle: masked equivalence of real instrumented edits    *)
(* ---------------------------------------------------------------- *)

let equiv () =
  print_endline "--- contract oracle: real edits over the example corpus ---";
  Printf.printf "%-10s %10s %12s %12s %10s\n" "tool" "programs" "equivalent"
    "violations" "masked";
  (* one pool job per tool; each job assembles its own corpus so no SEF
     value is shared across domains, and rows come back (and print) in
     Toolbox.names order — identical to the serial sweep *)
  let rows =
    Eel_util.Pool.map_list
      (fun tool ->
        let corpus = Eel_diffexec.Corpus.all () in
        let total = ref 0
        and ok = ref 0
        and bad = ref 0
        and masked = ref 0 in
        List.iter
          (fun (prog, exe) ->
            incr total;
            (* measure (not bare verify) so the eel.ledger.* overhead
               accounting lands in bench-metrics.json alongside eel.equiv.* *)
            match Eel_tools.Toolbox.measure ~prog tool mach exe with
            | Error e -> failwith ("bench: " ^ Eel_robust.Diag.error_message e)
            | Ok ms ->
                let er = ms.Eel_tools.Toolbox.ms_report in
                masked := !masked + er.Eel_diffexec.Diffexec.er_masked;
                if
                  er.Eel_diffexec.Diffexec.er_report
                    .Eel_diffexec.Diffexec.rp_verdict
                  = Eel_diffexec.Diffexec.Equivalent
                then incr ok
                else incr bad)
          corpus;
        (tool, !total, !ok, !bad, !masked))
      Eel_tools.Toolbox.names
  in
  List.iter
    (fun (tool, total, ok, bad, masked) ->
      Printf.printf "%-10s %10d %12d %12d %10d\n" tool total ok bad masked)
    rows;
  Printf.printf
    "(every tool must verify masked-equivalent on every program; the\n\
    \ eel.equiv.* registry slice lands in bench-metrics.json)\n\n"

(* ---------------------------------------------------------------- *)
(* Experiment I: seeded-fault detection rate (ISSUE 6)               *)
(* ---------------------------------------------------------------- *)

(* The adversarial campaign as an experiment: per (tool x fault class),
   how many known-bad edits/contracts were injected and how many the
   oracle flagged. The paper never had to defend its tools against a
   lying edit; our oracle does, and this is the measurement. *)
let inject () =
  let module Fault = Eel_mutate.Fault in
  print_endline "=== Experiment I: seeded-fault detection rate ===";
  let o = Fault.campaign ~seed:42 ~budget:48 () in
  let tools = Eel_tools.Toolbox.names in
  Printf.printf "%-14s" "fault class";
  List.iter (fun t -> Printf.printf " %8s" t) tools;
  print_newline ();
  List.iter
    (fun cls ->
      Printf.printf "%-14s" (Fault.class_name cls);
      List.iter
        (fun tool ->
          match
            List.find_opt
              (fun (c : Fault.cell) ->
                c.Fault.cl_tool = tool && c.Fault.cl_class = cls)
              o.Fault.o_cells
          with
          | None -> Printf.printf " %8s" "n/a"
          | Some c ->
              Printf.printf " %8s" (if c.Fault.cl_flagged then "caught" else "MISS"))
        tools;
      print_newline ())
    Fault.all_classes;
  Printf.printf
    "detection %d/%d, %d reproducers, %d distinct hunt signatures, %d \
     crashes, clean sweep %d/%d\n\n"
    o.Fault.o_caught o.Fault.o_injected
    (List.length o.Fault.o_repros)
    o.Fault.o_hunt_distinct o.Fault.o_crashes
    (o.Fault.o_clean_total - o.Fault.o_clean_bad)
    o.Fault.o_clean_total;
  if not (Fault.passed o) then (
    print_endline "FAIL: campaign below the 100%-detection bar";
    exit 1)

(* ---------------------------------------------------------------- *)
(* Micro-benchmarks                                                  *)
(* ---------------------------------------------------------------- *)

let micro () =
  print_endline "=== micro-benchmarks (Bechamel) ===";
  let exe = Lazy.force spim_like in
  let text = List.hd (Sef.text_sections exe) in
  let words =
    Array.init (text.Sef.size / 4) (fun i ->
        Eel_util.Bytebuf.get32_be text.Sef.contents (4 * i))
  in
  let smach =
    lazy (Eel_spawn.Smach.mach_of_file (find_path "descriptions/sparc.spawn"))
  in
  let per_insn ns = ns /. float_of_int (Array.length words) in
  let rows =
    [
      ( "decode+lift handwritten (ns/insn)",
        true,
        fun () -> Array.iter (fun w -> ignore (mach.Eel_arch.Machine.lift w)) words );
      ( "decode+lift spawn-derived (ns/insn)",
        true,
        fun () ->
          let sm = Lazy.force smach in
          Array.iter (fun w -> ignore (sm.Eel_arch.Machine.lift w)) words );
      ("open + refine symbol table", false, fun () -> ignore (E.read_contents mach exe));
      ( "build all CFGs + slicing",
        false,
        fun () ->
          let t = E.read_contents mach exe in
          ignore (E.jump_stats t) );
      ("full qpt2 instrumentation", false, fun () -> ignore (Qpt2.instrument mach exe));
    ]
  in
  List.iter
    (fun (name, per, f) ->
      let ns = measure_ns ~quota:1.0 name f in
      if per then Printf.printf "%-38s %12.1f\n" name (per_insn ns)
      else Printf.printf "%-38s %12.2f ms\n" name (ms ns))
    rows;
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Per-experiment observability (ISSUE 2): every experiment runs     *)
(* under a fresh tracer and a reset metrics registry; phase-level    *)
(* span totals plus the registry snapshot are persisted as JSON next *)
(* to the Bechamel numbers, so BENCH_*.json trajectories gain the    *)
(* paper's Table 1-style per-phase cost breakdown.                   *)
(* ---------------------------------------------------------------- *)

module Trace = Eel_obs.Trace

type experiment_obs = {
  x_name : string;
  x_phases : (string * float * int) list;  (** span name, total µs, count *)
  x_metrics : (string * Metrics.value) list;
}

let observations : experiment_obs list ref = ref []

let observed (name, f) =
  ( name,
    fun () ->
      Metrics.reset ();
      let tr = Trace.create () in
      Fun.protect
        ~finally:(fun () ->
          observations :=
            {
              x_name = name;
              x_phases = Trace.totals tr;
              x_metrics = Metrics.snapshot ();
            }
            :: !observations)
        (fun () -> Trace.with_current tr f) )

let metrics_path =
  match Sys.getenv_opt "EEL_BENCH_METRICS" with
  | Some p -> p
  | None -> "bench-metrics.json"

let write_observations () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"experiments\":[";
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":\"%s\",\"phases\":[" (Eel_obs.Json.escape x.x_name));
      List.iteri
        (fun j (span, total_us, count) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "{\"span\":\"%s\",\"total_us\":%.1f,\"count\":%d}"
               (Eel_obs.Json.escape span) total_us count))
        x.x_phases;
      Buffer.add_string buf "],\"metrics\":{";
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%s" (Eel_obs.Json.escape name)
               (Metrics.value_to_json v)))
        x.x_metrics;
      Buffer.add_string buf "}}")
    (List.rev !observations);
  Buffer.add_string buf "\n]}\n";
  let oc = open_out metrics_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote per-experiment phase metrics to %s\n" metrics_path

let all =
  List.map observed
    [
      ("table1", e1);
      ("e2", e2);
      ("e3", e3);
      ("e4", e4);
      ("e5", e5);
      ("e6", e6);
      ("e7", e7);
      ("e8", e8);
      ("optprof", optprof);
      ("equiv", equiv);
      ("fold", ablation_folding);
      ("slice", ablation_slicing);
      ("span", ablation_span);
      ("scavenge", ablation_scavenging);
      ("inject", inject);
      ("micro", micro);
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) all
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n all with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (have: %s)\n" n
                (String.concat " " (List.map fst all)))
        names);
  if !observations <> [] then write_observations ()
