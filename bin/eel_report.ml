(* Observability report: one human-readable rollup of a corpus run — where
   the dynamic instructions went (calling-context hot-path attribution) and
   what each instrumentation tool costs (the overhead ledger), with the
   divergence/violation summary the oracle produced along the way.

   Two phases, both fanned across domains by Pool; each job returns its
   own result and the driver folds them, in input order (output is
   byte-identical at any EEL_JOBS):

     1. hotspot: every program runs on tier-1 with a calling-context
        tree (Cct) on the emulator's hook; the tree is named via the SEF
        symbol table and merged into one corpus-wide Hotspot tree,
        exportable as a collapsed-stack flamegraph (--flame) or speedscope
        JSON (--speedscope).

     2. ledger: every (tool x program) pair goes through Toolbox.measure —
        instrument, verify under the tool's contract with both sides
        profiled, and ledger the static/dynamic overhead. The report's
        per-tool table reproduces the shape of the paper's qpt overhead
        tables, and the "unexpl" column is the cross-check: extra store
        instructions not explained by the contract's masked events (always
        0 for an honest tool).

   Deliberately no wall-clock numbers anywhere: everything reported is a
   deterministic instruction/byte count, so re-runs diff cleanly. *)

module Sef = Eel_sef.Sef
module Diag = Eel_robust.Diag
module Diffexec = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Toolbox = Eel_tools.Toolbox
module Emu = Eel_emu.Emu
module Cct = Eel_emu.Cct
module Trace = Eel_obs.Trace
module Hotspot = Eel_obs.Hotspot
module Ledger = Eel_obs.Ledger
module Json = Eel_obs.Json

type source = Src of string | File of string

let load = function
  | Src src -> (
      match Eel_sparc.Asm.assemble src with
      | Ok exe -> Ok exe
      | Error m -> Error (Diag.Exe_error { what = "assemble: " ^ m }))
  | File f -> Sef.load_file f

(* Name a pc from the image's symbol table: exact Func/Label match, else
   nearest preceding symbol as "name+0x<off>", else bare hex. *)
let namer (exe : Sef.t) =
  let syms =
    List.filter
      (fun s -> s.Sef.kind = Sef.Func || s.Sef.kind = Sef.Label)
      exe.Sef.symbols
    |> List.sort (fun a b -> compare a.Sef.value b.Sef.value)
    |> Array.of_list
  in
  fun pc ->
    let n = Array.length syms in
    let rec best lo hi acc =
      if lo > hi then acc
      else
        let mid = (lo + hi) / 2 in
        if syms.(mid).Sef.value <= pc then best (mid + 1) hi (Some mid)
        else best lo (mid - 1) acc
    in
    match best 0 (n - 1) None with
    | Some i when syms.(i).Sef.value = pc -> syms.(i).Sef.sym_name
    | Some i -> Printf.sprintf "%s+0x%x" syms.(i).Sef.sym_name (pc - syms.(i).Sef.value)
    | None -> Printf.sprintf "0x%x" pc

(* One run of [exe] with a calling-context tree on the machine's hook
   (tier-1, so no tier-2 engine is attached): its stop, its instruction
   count, and the tree filed under [prog] and the entry routine. *)
let hot_run ~fuel ~os prog exe =
  match Trace.with_span "emu.load" (fun () -> Emu.load exe) with
  | exception Emu.Fault m ->
      Error (Diag.error_message (Diag.Exe_error { what = "emulator load: " ^ m }))
  | t ->
      Option.iter (fun spec -> ignore (Eel_os.Os.install t spec)) os;
      let tree = Cct.create () in
      t.Emu.hook <- Some (Cct.hook tree);
      let stop =
        Trace.with_span "emu.run" (fun () ->
            match Emu.run ~fuel t with
            | r -> Diffexec.S_exit r.Emu.exit_code
            | exception Emu.Fault m -> Diffexec.S_fault m
            | exception Emu.Out_of_fuel -> Diffexec.S_fuel)
      in
      Emu.recycle ~marks:t.Emu.marks t.Emu.mem;
      let name_of = namer exe in
      Ok
        ( Format.asprintf "%a" Diffexec.pp_stop stop,
          Emu.insns_executed t,
          Cct.hotspot ~name_of ~root:[ prog; name_of exe.Sef.entry ] tree )

let () =
  let fuel = ref Diffexec.default_fuel in
  let top = ref 10 in
  let tools = ref [] in
  let flame = ref "" and speedscope = ref "" and json_out = ref "" in
  let corpus_sel = ref "all" in
  let files = ref [] in
  Cli.main "eel_report"
    ~usage:
      "eel_report [--tool NAME] [FILE.sef ...]: hot-path attribution + \
       instrumentation-overhead report (default: built-in corpus)"
    ~anon:(fun f -> files := f :: !files)
    ~trace:true ~pool:true ~metrics:(Cli.Stdout [ "emu.tier2" ])
    [
      ( "--fuel",
        Arg.Set_int fuel,
        Printf.sprintf "FUEL per-run instruction budget (default %d)"
          Diffexec.default_fuel );
      ("--top", Arg.Set_int top, "N hot routines to list (default 10)");
      ( "--tool",
        Arg.Symbol ("all" :: Toolbox.names, fun t -> tools := t :: !tools),
        " restrict the overhead ledger to this tool (repeatable; default: all)" );
      ("--flame", Arg.Set_string flame, "FILE write a collapsed-stack flamegraph");
      ( "--speedscope",
        Arg.Set_string speedscope,
        "FILE write the merged profile as speedscope JSON" );
      ( "--json",
        Arg.Set_string json_out,
        "FILE write the full report (hotspot + ledger) as JSON ('-' = stdout)"
      );
      ( "--corpus",
        Arg.Symbol ([ "all"; "cpu"; "os" ], ( := ) corpus_sel),
        " built-in corpus subset: all (default), cpu, or os (the OS-mode \
         programs; make os-smoke gates this slice)" );
    ]
  @@ fun ctx ->
  let tools =
    match List.rev !tools with
    | [] | [ "all" ] -> Toolbox.names
    | ts when List.mem "all" ts ->
        raise (Arg.Bad "--tool all cannot be combined with other tools")
    | ts -> ts
  in
  let programs =
    (* default corpus = CPU-bound programs + the OS-mode corpus (each OS
       program carries its in-memory world spec); --corpus narrows it. A
       file input is named by its path as given, so a/x.sef and b/x.sef
       stay two programs in every table, ledger row and flame root. *)
    match List.rev !files with
    | [] -> (
        let cpu = List.map (fun (n, src) -> (n, Src src, None)) Corpus.sources
        and os =
          List.map
            (fun (n, (src, spec)) -> (n, Src src, Some spec))
            Corpus.os_sources
        in
        match !corpus_sel with "cpu" -> cpu | "os" -> os | _ -> cpu @ os)
    | fs -> List.map (fun f -> (f, File f, None)) fs
  in
  (* both sweeps are jobs-agnostic (every job returns what it measured),
     but --trace pins them to one domain *)
  let jobs = ctx.Cli.jobs in
  (* ---- phase 1: hot-path attribution (one tier-1 run per program) ---- *)
  let hot_rows =
    Eel_util.Pool.map_list ?jobs
      (fun (prog, src, os) ->
        match load src with
        | Error e -> (prog, Error (Diag.error_message e))
        | Ok exe -> (prog, hot_run ~fuel:!fuel ~os prog exe))
      programs
  in
  let hot = Hotspot.create () in
  List.iter
    (function _, Ok (_, _, h) -> Hotspot.merge ~into:hot h | _, Error _ -> ())
    hot_rows;
  let grand_total = Hotspot.total hot in
  (* ---- phase 2: overhead ledger (tool x program sweep) ---- *)
  let pairs =
    List.concat_map
      (fun t -> List.map (fun (p, s, os) -> (t, p, s, os)) programs)
      tools
  in
  let ledger_rows =
    Eel_util.Pool.map_list ?jobs
      (fun (tool, prog, src, os) ->
        match load src with
        | Error e -> (tool, prog, Error (Diag.error_message e))
        | Ok exe -> (
            match
              Toolbox.measure ~fuel:!fuel ?os ~prog tool Eel_sparc.Mach.mach exe
            with
            | Error e -> (tool, prog, Error (Diag.error_message e))
            | Ok ms -> (tool, prog, Ok ms.Toolbox.ms_entry)))
      pairs
  in
  let entries =
    List.filter_map (fun (_, _, r) -> Result.to_option r) ledger_rows
    |> List.stable_sort (fun a b ->
           compare (a.Ledger.le_tool, a.Ledger.le_prog)
             (b.Ledger.le_tool, b.Ledger.le_prog))
  in
  (* ---- render ---- *)
  Printf.printf "eel_report: %d programs x %d tools, fuel %d\n\n"
    (List.length programs) (List.length tools) !fuel;
  Printf.printf "Programs (dynamic instructions under the profiler):\n";
  List.iter
    (fun (prog, res) ->
      match res with
      | Ok (stop, insns, _) -> Printf.printf "  %-14s %9d  %s\n" prog insns stop
      | Error m -> Printf.printf "  %-14s     ERROR  %s\n" prog m)
    hot_rows;
  Printf.printf "\nTop %d hot routines (of %d attributed instructions):\n"
    !top grand_total;
  Printf.printf "  %-28s %10s %10s %6s  %s\n" "routine" "self" "total" "%"
    "mix (top classes)";
  let rstats =
    List.filter (fun r -> r.Hotspot.rs_self > 0) (Hotspot.routines hot)
    |> List.sort (fun a b ->
           match compare b.Hotspot.rs_self a.Hotspot.rs_self with
           | 0 -> compare a.Hotspot.rs_name b.Hotspot.rs_name
           | c -> c)
  in
  let class_names = Hotspot.class_names hot in
  let mix_string cs =
    let named =
      Array.to_list (Array.mapi (fun i n -> (class_names.(i), n)) cs)
      |> List.filter (fun (_, n) -> n > 0)
      |> List.sort (fun (na, a) (nb, b) ->
             match compare b a with 0 -> compare na nb | c -> c)
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    String.concat " "
      (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) (take 3 named))
  in
  List.iteri
    (fun i r ->
      if i < !top then
        Printf.printf "  %-28s %10d %10d %5.1f%%  %s\n" r.Hotspot.rs_name
          r.Hotspot.rs_self r.Hotspot.rs_total
          (if grand_total = 0 then 0.0
           else 100.0 *. float_of_int r.Hotspot.rs_self /. float_of_int grand_total)
          (mix_string r.Hotspot.rs_classes))
    rstats;
  Printf.printf
    "\nInstrumentation overhead (static bytes + dynamic cost per tool,\n\
     cross-checked against the contract's masked events; unexpl must be 0):\n";
  print_string
    (Format.asprintf "%a"
       (fun ppf es -> Ledger.pp_tool_table ppf ~order:Toolbox.names es)
       entries);
  (* divergence/violation summary *)
  let bad_entries =
    List.filter (fun e -> e.Ledger.le_verdict <> "equivalent") entries
  in
  let unexplained =
    List.fold_left (fun acc e -> acc + abs e.Ledger.le_unexplained) 0 entries
  in
  let errors =
    List.filter (fun (_, _, r) -> Result.is_error r) ledger_rows
    @ List.filter_map
        (fun (p, r) ->
          match r with Error m -> Some ("run", p, Error m) | Ok _ -> None)
        hot_rows
  in
  Printf.printf "\nVerdicts: %d/%d equivalent"
    (List.length entries - List.length bad_entries)
    (List.length entries);
  if bad_entries = [] && errors = [] && unexplained = 0 then
    Printf.printf "; no divergences, no violations, 0 unexplained overhead\n"
  else begin
    Printf.printf "\n";
    List.iter
      (fun e ->
        Printf.printf "  %-8s %-14s %s\n" e.Ledger.le_tool e.Ledger.le_prog
          e.Ledger.le_verdict)
      bad_entries;
    List.iter
      (fun (tool, prog, r) ->
        match r with
        | Error m -> Printf.printf "  %-8s %-14s ERROR %s\n" tool prog m
        | Ok _ -> ())
      errors;
    if unexplained <> 0 then
      Printf.printf "  %d unexplained extra store instructions\n" unexplained
  end;
  (* ---- exports ---- *)
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  if !flame <> "" then write_file !flame (Hotspot.collapsed hot);
  if !speedscope <> "" then
    write_file !speedscope (Hotspot.speedscope_json ~name:"eel corpus" hot);
  if !json_out <> "" then begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"hotspot\": {";
    Buffer.add_string buf (Printf.sprintf "\"total\": %d, \"routines\": [" grand_total);
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf "{\"name\": \"%s\", \"self\": %d, \"total\": %d}"
             (Json.escape r.Hotspot.rs_name) r.Hotspot.rs_self r.Hotspot.rs_total))
      rstats;
    Buffer.add_string buf "]},\n \"ledger\": ";
    Buffer.add_string buf (Ledger.to_json entries);
    Buffer.add_string buf
      (Printf.sprintf
         ",\n \"summary\": {\"programs\": %d, \"tools\": %d, \"entries\": %d, \
          \"equivalent\": %d, \"errors\": %d, \"unexplained\": %d}}\n"
         (List.length programs) (List.length tools) (List.length entries)
         (List.length entries - List.length bad_entries)
         (List.length errors) unexplained);
    if !json_out = "-" then print_string (Buffer.contents buf)
    else write_file !json_out (Buffer.contents buf)
  end;
  if bad_entries <> [] || errors <> [] || unexplained <> 0 then 1 else 0
