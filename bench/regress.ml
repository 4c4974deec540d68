(* Perf-regression gate (`make perf-regress`): the job benchmark on this
   checkout against its parent commit, in alternating pairs.

     regress.exe [REV]

   The parent is REV, by default `git merge-base HEAD origin/main`, else
   HEAD~1. It is checked out in a git worktree under _build/perf-parent
   (removed on exit). Each side runs its own checkout's jobbench/run.py
   on every BENCHMARK.json workload; the two sides never run at once, and
   which one goes first alternates from pair to pair. The constants and
   the decision are Perf_gate's. The pair table is printed and written as
   JSON to _build/perf-pairs.json.

   Exit 0 on pass; 1 on a failed metric or check, or a failed job on the
   change side; 2 on a usage error or when the parent cannot be checked
   out, built or run. *)

module Gate = Perf_gate

let say fmt = Printf.ksprintf (fun m -> print_endline ("perf-regress: " ^ m)) fmt
let die code fmt = Printf.ksprintf (fun m -> say "%s" m; exit code) fmt

(* Run [args]; its exit code and standard output. Standard error passes
   through unless [quiet]. *)
let capture ?(quiet = false) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stderr in
  let pid = Unix.create_process args.(0) args Unix.stdin w err in
  Unix.close w;
  if quiet then Unix.close err;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, out)
  | _ -> (255, out)

let git ?quiet args =
  match capture ?quiet (Array.of_list ("git" :: args)) with
  | 0, out -> Some (String.trim out)
  | _ -> None

let machine () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | info -> (
      match
        List.find_opt (String.starts_with ~prefix:"model name")
          (String.split_on_char '\n' info)
      with
      | Some l ->
          let i = String.index l ':' + 1 in
          String.trim (String.sub l i (String.length l - i))
      | None -> "unknown")

let () =
  let t0 = Unix.gettimeofday () in
  let rev =
    match Sys.argv with
    | [| _ |] -> None
    | [| _; r |] when r <> "" && r.[0] <> '-' -> Some r
    | _ ->
        prerr_endline "usage: regress [REV]";
        exit 2
  in
  let root =
    match git [ "rev-parse"; "--show-toplevel" ] with
    | Some r -> r
    | None -> die 2 "not in a git checkout"
  in
  let git ?quiet args = git ?quiet ("-C" :: root :: args) in
  let commit r = git ~quiet:true [ "rev-parse"; "--verify"; "--quiet"; r ^ "^{commit}" ] in
  let parent =
    match rev with
    | Some r -> ( match commit r with Some c -> c | None -> die 2 "unknown revision %s" r)
    | None -> (
        match git ~quiet:true [ "merge-base"; "HEAD"; "origin/main" ] with
        | Some c -> c
        | None -> (
            match commit "HEAD~1" with
            | Some c -> c
            | None -> die 2 "no origin/main or HEAD~1: name the parent revision"))
  in
  let change =
    Option.value (commit "HEAD") ~default:"none"
    ^ if git [ "status"; "--porcelain"; "--untracked-files=no" ] = Some "" then "" else "+dirty"
  in
  let workloads, metrics =
    match
      Gate.parse_spec (In_channel.with_open_bin (Filename.concat root "BENCHMARK.json") In_channel.input_all)
    with
    | Ok s -> s
    | Error m -> die 2 "BENCHMARK.json: %s" m
    | exception Sys_error m -> die 2 "%s" m
  in
  let wt = Filename.concat root "_build/perf-parent" in
  let drop () =
    ignore (git ~quiet:true [ "worktree"; "remove"; "--force"; wt ]);
    if Sys.file_exists wt then ignore (Sys.command ("rm -rf " ^ Filename.quote wt));
    ignore (git [ "worktree"; "prune" ])
  in
  drop ();
  if git [ "worktree"; "add"; "--quiet"; "--detach"; wt; parent ] = None then
    die 2 "cannot check out the parent %s" parent;
  at_exit drop;
  say "parent %s, change %s; %d pairs of runs per workload (%s), seed %d" parent change
    Gate.pairs
    (String.concat ", " (List.map (fun w -> Printf.sprintf "%s %d s" w (Gate.seconds w)) workloads))
    Gate.seed;
  let bench side ~fail ?(trace = 0) workload =
    let code, out =
      capture
        [|
          "python3"; Filename.concat side "jobbench/run.py"; "--workload"; workload;
          "--seed"; string_of_int Gate.seed; "--seconds"; string_of_int (Gate.seconds workload);
          "--trace"; string_of_int trace;
        |]
    in
    let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
    match Gate.parse_run last with
    | Ok r when code = 0 && r.Gate.correct -> r
    | Ok r ->
        fail workload
          (Printf.sprintf "exit %d, %d of %d jobs failed" code r.Gate.failed r.Gate.attempted)
    | Error m -> fail workload (Printf.sprintf "exit %d, no result line (%s)" code m)
  in
  let on_parent = bench wt ~fail:(die 2 "the parent cannot be measured: %s: %s") in
  let on_change = bench root ~fail:(die 1 "FAIL (the change's %s run failed: %s)") in
  let runs = Hashtbl.create 8 in
  for i = 1 to Gate.pairs do
    List.iter
      (fun w ->
        let p, c =
          if i mod 2 = 1 then
            let p = on_parent w in
            (p, on_change w)
          else
            let c = on_change w in
            (on_parent w, c)
        in
        Hashtbl.add runs w (p, c);
        let jobs r = Option.value (Gate.value "jobs_per_s" r) ~default:nan in
        say "pair %d/%d %-10s parent %8.2f jobs/s (%d jobs)  change %8.2f jobs/s (%d jobs)" i
          Gate.pairs w (jobs p) p.Gate.attempted (jobs c) c.Gate.attempted)
      workloads
  done;
  let table = List.map (fun w -> (w, List.rev (Hashtbl.find_all runs w))) workloads in
  let rows = Gate.rows metrics table in
  let checks = [ Gate.warm_check table; Gate.tier_check (on_change ~trace:1 "long_run") ] in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter print_endline (Gate.table_lines rows);
  List.iter
    (fun c -> say "%s %s: %s" (if c.Gate.c_ok then "PASS" else "FAIL") c.Gate.c_name c.Gate.c_detail)
    checks;
  let out = Filename.concat root "_build/perf-pairs.json" in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc
        (Gate.to_json ~parent ~change ~machine:(machine ())
           ~cores:(Domain.recommended_domain_count ())
           ~wall_s rows checks));
  match Gate.failures rows checks with
  | [] -> say "PASS in %.0f s (%s)" wall_s out
  | fs -> die 1 "FAIL (%s) in %.0f s (%s)" (String.concat ", " fs) wall_s out
