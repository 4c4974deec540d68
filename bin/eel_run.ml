(* eel_run — execute a SEF executable in the emulator.

   --rtl runs the program under the spawn-description-driven interpreter
   instead of the handwritten emulator (they must agree; see test_spawn).

   Observability (ISSUE 2): --trace FILE writes a Chrome trace_event JSON
   timeline of the load -> analyze -> emulate phases (view it in
   chrome://tracing or Perfetto); --metrics profiles the emulated program
   (per-block execution counts, instruction-class mix, memory ops) and
   prints the metrics registry to stderr. Either flag enables the front-end
   analysis phase so the CFG spans appear on the timeline.

   OS mode (ISSUE 9): --os installs the lib/os syscall layer (in-memory
   file system + fd table) as the trap handler, so programs using the OS
   ABI window run instead of faulting on an unknown trap. --os-stdin
   seeds the guest's stdin, --os-file NAME=PATH loads a host file into
   the in-memory FS under NAME. The world is rebuilt from these flags on
   every run — nothing persists.

   Exit status: the process exits 0 when emulation completed (whatever
   the guest's own exit code), nonzero only on eel_run's own errors.
   --exit-status instead maps the guest's exit(n) — syscall or trap-halt
   — onto the process exit code, so shell scripts can branch on the
   guest's result. *)

module Trace = Eel_obs.Trace
module Emu = Eel_emu.Emu
module Tier2 = Eel_emu.Tier2

let read_os_file (name, path) =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (name, data)

(* Resolve the execution tier. An explicit [--tier] combined with a flag
   that forces per-instruction interpretation is a contradiction and is
   rejected ([Diag] error); the default tier silently degrades — with a
   one-line stderr notice, mirroring the EEL_JOBS=1 notices — because the
   engine itself refuses to run while a hook is armed. The --metrics
   profile is not a forcer: the block tier keeps it. *)
let resolve_tier ~tier ~rtl ~itrace ~no_predecode =
  let forcer =
    if rtl then Some "--rtl"
    else if itrace then Some "--itrace"
    else if no_predecode then Some "--no-predecode"
    else None
  in
  match (tier, forcer) with
  | Some Tier2.Block, Some flag ->
      Eel_robust.Diag.exe_error
        "--tier block is incompatible with %s, which forces per-instruction \
         interpretation; drop one of the two"
        flag
  | Some Tier2.Predecode, Some "--no-predecode" ->
      Eel_robust.Diag.exe_error
        "--tier predecode is incompatible with --no-predecode; drop one of \
         the two"
  | Some tr, _ -> tr
  | None, Some "--no-predecode" -> Tier2.Interp
  | None, Some flag ->
      if flag <> "--rtl" then
        Printf.eprintf
          "eel_run: %s forces per-instruction interpretation (tier-2 block \
           engine off)\n"
          flag;
      Tier2.Predecode
  | None, None -> Tier2.Block

let () =
  let path = ref None in
  let rtl = ref false and itrace = ref false and no_predecode = ref false in
  let fuel = ref 200_000_000 in
  let os = ref false and os_stdin = ref "" and os_files = ref [] in
  let exit_status = ref false in
  let tier = ref None in
  let os_file spec =
    match String.index_opt spec '=' with
    | None -> raise (Arg.Bad (Printf.sprintf "--os-file expects NAME=PATH, got %S" spec))
    | Some i ->
        os_files :=
          (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
          :: !os_files
  in
  Cli.main "eel_run" ~usage:"eel_run [options] FILE  -- run a SEF executable"
    ~anon:(Cli.one_arg path) ~trace:true ~metrics:Cli.Stderr
    [
      ("--rtl", Arg.Set rtl, " use the spawn RTL interpreter");
      ("--itrace", Arg.Set itrace, " print each executed instruction");
      ("--fuel", Arg.Set_int fuel, "N instruction budget (default 200000000)");
      ( "--no-predecode",
        Arg.Set no_predecode,
        " decode every dynamic instruction instead of predecoding the text \
         segment at load" );
      ("--os", Arg.Set os, " install the OS syscall layer (in-memory FS, fd table)");
      ("--os-stdin", Arg.Set_string os_stdin, "STRING guest stdin contents (OS mode)");
      ( "--os-file",
        Arg.String os_file,
        "NAME=PATH preload host file PATH as NAME in the in-memory FS \
         (repeatable)" );
      ( "--exit-status",
        Arg.Set exit_status,
        " exit with the guest program's exit code instead of 0" );
      ( "--tier",
        Arg.Symbol
          ( List.map Tier2.tier_name Tier2.all_tiers,
            fun name ->
              tier :=
                List.find_opt (fun tr -> Tier2.tier_name tr = name) Tier2.all_tiers
          ),
        " execution tier: interp decodes every instruction, predecode \
         dispatches the predecoded text one instruction at a time, block \
         (the default) compiles hot basic blocks. Rejected when combined \
         with a flag that forces per-instruction interpretation." );
    ]
  @@ fun ctx ->
  let path = Cli.the_arg "FILE" path and rtl = !rtl and fuel = !fuel in
  if rtl && !os then raise (Arg.Bad "--os is not supported under --rtl");
  let tier =
    resolve_tier ~tier:!tier ~rtl ~itrace:!itrace ~no_predecode:!no_predecode
  in
  let exe = Trace.with_span "load" (fun () -> Eel_sef.Sef.read_file path) in
  if ctx.Cli.tracing || ctx.Cli.metrics then
    Trace.with_span "analyze" (fun () ->
        (* advisory: a program can be run even when analysis degrades *)
        match Eel.Executable.open_exe Eel_sparc.Mach.mach exe with
        | Ok t -> ignore (Eel.Executable.jump_stats t)
        | Error e ->
            Trace.mark "analyze-failed"
              ~args:[ ("error", Eel_robust.Diag.error_message e) ]);
  let profile =
    if ctx.Cli.metrics && not rtl then Some (Emu.create_profile ()) else None
  in
  let os_state = ref None in
  let engine = ref None in
  let result =
    Trace.with_span "emulate" @@ fun () ->
    if rtl then (
      let el = Eel_spawn.Smach.load_description "descriptions/sparc.spawn" in
      let r, _ = Eel_spawn.Interp.run ~fuel el exe in
      r)
    else
      let hook =
        if !itrace then
          Some
            (function
            | Emu.Ev_exec { pc; word } ->
                Printf.eprintf "%08x: %s\n" pc
                  (Eel_sparc.Mach.mach.Eel_arch.Machine.disas ~pc word)
            | _ -> ())
        else None
      in
      let t =
        Trace.with_span "emu.load" (fun () ->
            Emu.load ~predecode:(tier <> Tier2.Interp) exe)
      in
      if tier = Tier2.Block then engine := Tier2.attach t;
      t.Emu.hook <- hook;
      t.Emu.profile <- profile;
      if !os then begin
        let spec =
          Eel_os.Spec.make
            ~files:(List.map read_os_file (List.rev !os_files))
            ~stdin:!os_stdin ()
        in
        os_state := Some (Eel_os.Os.install t spec)
      end;
      Trace.with_span "emu.run" (fun () -> Emu.run ~fuel t)
  in
  print_string result.Emu.out;
  Printf.eprintf "[exit=%d insns=%d loads=%d stores=%d]\n" result.Emu.exit_code
    result.Emu.insns result.Emu.loads result.Emu.stores;
  (match !engine with
  | Some st -> Printf.eprintf "[tier2: %s]\n" (Tier2.summary st)
  | None -> ());
  (match !os_state with
  | Some st ->
      Printf.eprintf "[os: syscalls=%d denied=%d]\n" (Eel_os.Os.sys_count st)
        (Eel_os.Os.denied_count st)
  | None -> ());
  Option.iter Emu.publish_profile profile;
  if !exit_status then result.Emu.exit_code else 0
