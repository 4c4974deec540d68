(* workload_gen — generate synthetic SPARC workload executables.

   Emits either assembly source (--asm) or an assembled SEF executable.
   The generated programs exhibit the code idioms of the paper's SPEC92
   environment (see lib/workload/gen.ml and DESIGN.md). *)

let () =
  let style = ref "gcc" and routines = ref 20 and seed = ref 42 in
  let strip = ref false and asm_only = ref false and out = ref None in
  let set_out path = out := Some path in
  Cli.main "workload_gen" ~usage:"workload_gen [options]  -- generate synthetic SPARC workloads"
    [
      ( "--style",
        Arg.Symbol ([ "gcc"; "sunpro"; "os" ], ( := ) style),
        " gcc, sunpro, or os (I/O-bound OS-mode program)" );
      ("--routines", Arg.Set_int routines, "N number of routines (default 20)");
      ("--seed", Arg.Set_int seed, "N random seed (default 42)");
      ("--strip", Arg.Set strip, " strip the symbol table");
      ("--asm", Arg.Set asm_only, " emit assembly source instead");
      ("-o", Arg.String set_out, "FILE output file");
      ("--output", Arg.String set_out, "FILE same as -o");
    ]
  @@ fun _ ->
  let os_mode = !style = "os" in
  let style =
    if !style = "sunpro" then Eel_workload.Gen.Sunpro else Eel_workload.Gen.Gcc
  in
  let routines = !routines and seed = !seed and out = !out in
  let cfg = { Eel_workload.Gen.default with style; routines; seed } in
  let src, world =
    if os_mode then
      let src, w = Eel_workload.Gen.os_program cfg in
      (src, Some w)
    else (Eel_workload.Gen.program cfg, None)
  in
  if !asm_only then
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        0
    | None ->
        print_string src;
        0
  else
    let exe =
      match Eel_sparc.Asm.assemble src with
      | Ok e -> e
      | Error m -> failwith ("assembly failed: " ^ m)
    in
    let exe = if !strip then Eel_sef.Sef.strip exe else exe in
    let path = Option.value ~default:"workload.sef" out in
    Eel_sef.Sef.write_file path exe;
    Printf.printf "wrote %s (%d bytes of text+data, %d symbols)\n" path
      (Eel_sef.Sef.image_size exe)
      (List.length exe.Eel_sef.Sef.symbols);
    (* the OS world is part of the workload: say what eel_run --os needs *)
    (match world with
    | None -> ()
    | Some w ->
        Printf.printf "os world: stdin %d bytes; files:%s\n"
          (String.length w.Eel_workload.Gen.ow_stdin)
          (match w.Eel_workload.Gen.ow_files with
          | [] -> " (none)"
          | fs ->
              String.concat ""
                (List.map
                   (fun (n, d) ->
                     Printf.sprintf " %s(%d bytes)" n (String.length d))
                   fs)));
    0
