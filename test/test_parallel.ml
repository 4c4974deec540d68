(* Determinism guard for the multicore fan-out (ISSUE 5): the parallel
   drivers must be observably serial. Each driver below runs twice as a
   subprocess — once pinned to a single domain, once fanned out over
   four — and the two runs must produce byte-identical stdout: same
   coverage counts, same crash signatures, same divergence report, same
   JSON. Any ordering or merge bug in the pool shows up here as a diff. *)

(* locate the tools next to this test binary so the test is cwd-agnostic
   (dune runtest runs in _build/default/test, dune exec in the root) *)
let tool name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_with_jobs ~jobs exe_name args =
  let out = Filename.temp_file "eel_parallel" ".out" in
  let cmd =
    Printf.sprintf "EEL_JOBS=%d %s %s > %s 2> /dev/null" jobs
      (Filename.quote (tool exe_name))
      args (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let s = read_file out in
  Sys.remove out;
  (rc, s)

let check_jobs_invariant name exe_name args =
  let rc1, s1 = run_with_jobs ~jobs:1 exe_name args in
  let rc4, s4 = run_with_jobs ~jobs:4 exe_name args in
  Alcotest.(check int) (name ^ ": exit at 1 domain") 0 rc1;
  Alcotest.(check int) (name ^ ": exit at 4 domains") 0 rc4;
  Alcotest.(check string) (name ^ ": byte-identical stdout") s1 s4

let test_fuzz_plain () =
  check_jobs_invariant "fuzz" "eel_fuzz.exe" "--count 80 --seed 42 --verbose"

let test_fuzz_metrics () =
  (* the eel.stats counters bumped by CFG builds in pool workers merge
     home with the rest of the registry *)
  check_jobs_invariant "fuzz --metrics" "eel_fuzz.exe"
    "--count 80 --seed 42 --metrics"

let test_fuzz_diff () =
  check_jobs_invariant "fuzz --diff" "eel_fuzz.exe" "--diff --count 48 --seed 42"

let test_diff_table () = check_jobs_invariant "diff" "eel_diff.exe" ""

let test_diff_tool_json () =
  check_jobs_invariant "diff --tool --json" "eel_diff.exe" "--tool qpt2 --json"

let test_diff_metrics () =
  (* the ledger's counters live in Metrics, merged at pool joins, so
     --metrics must report identical totals at any domain count *)
  check_jobs_invariant "diff --metrics" "eel_diff.exe" "--tool qpt2 --metrics"

let test_report () =
  (* hotspot attribution + overhead ledger: table, flame totals and JSON
     are folded from the jobs' own results and must not depend on the
     fan-out *)
  check_jobs_invariant "report" "eel_report.exe" "--tool qpt2 --top 5 --json -"

let test_report_metrics () =
  (* the oracle runs' emu.tier2.* counters merge home at the pool joins:
     the same totals at any domain count *)
  check_jobs_invariant "report --metrics" "eel_report.exe"
    "--tool qpt2 --top 5 --metrics"

(* OS-mode workload generation (ISSUE 9): the same seed must yield a
   byte-identical SEF image whatever the fan-out — the generator is a pure
   function of the seed, and the OS world in its banner must match too *)
let test_workload_os_sef () =
  let gen jobs =
    let sef = Filename.temp_file "eel_parallel" ".sef" in
    let cmd =
      Printf.sprintf "EEL_JOBS=%d %s --style os --seed 7 -o %s > /dev/null 2>&1"
        jobs
        (Filename.quote (tool "workload_gen.exe"))
        (Filename.quote sef)
    in
    let rc = Sys.command cmd in
    let s = read_file sef in
    Sys.remove sef;
    (rc, s)
  in
  let rc1, s1 = gen 1 and rc4, s4 = gen 4 in
  Alcotest.(check int) "workload_gen --style os: exit at 1 domain" 0 rc1;
  Alcotest.(check int) "workload_gen --style os: exit at 4 domains" 0 rc4;
  Alcotest.(check string) "byte-identical OS-mode SEF" s1 s4

(* OS jobs through the serve daemon: cold (empty cache) and warm (second
   pass over the same cache) responses are byte-identical at any
   EEL_JOBS — the world spec's digest is part of the cache key, so a hit
   returns exactly what a fresh run computes *)
let test_serve_os_jobs () =
  let jobs_file = Filename.temp_file "eel_parallel" ".jsonl" in
  let oc = open_out jobs_file in
  List.iter
    (fun line -> output_string oc (line ^ "\n"))
    [
      {|{"id": "a", "tool": "qpt2", "corpus": "os-copy"}|};
      {|{"id": "b", "tool": "sfi", "corpus": "os-copy"}|};
      {|{"id": "c", "tool": "tracer", "corpus": "os-cat"}|};
      {|{"id": "d", "tool": "amemory", "gen": {"seed": 7, "style": "os"}}|};
      {|{"id": "e", "tool": "optprof", "corpus": "os-err"}|};
    ];
  close_out oc;
  let cache_dir = Filename.temp_file "eel_parallel" ".cache" in
  Sys.remove cache_dir;
  let serve ~jobs =
    let out = Filename.temp_file "eel_parallel" ".out" in
    let cmd =
      Printf.sprintf
        "EEL_JOBS=%d %s --cache-dir %s < %s > %s 2> /dev/null" jobs
        (Filename.quote (tool "eel_serve.exe"))
        (Filename.quote cache_dir) (Filename.quote jobs_file)
        (Filename.quote out)
    in
    let rc = Sys.command cmd in
    let s = read_file out in
    Sys.remove out;
    (rc, s)
  in
  let rc_cold, cold = serve ~jobs:1 in
  let rc_warm, warm = serve ~jobs:4 in
  let rc_warm1, warm1 = serve ~jobs:1 in
  Alcotest.(check int) "cold serve exits 0" 0 rc_cold;
  Alcotest.(check int) "warm serve exits 0" 0 rc_warm;
  Alcotest.(check int) "second warm serve exits 0" 0 rc_warm1;
  (* the "cached" field is provenance, everything else is the result:
     warm responses must be byte-identical to cold modulo that flag *)
  let normalize s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then ()
      else
        let tru = {|"cached": true|} and fls = {|"cached": false|} in
        if i + String.length tru <= n && String.sub s i (String.length tru) = tru
        then begin
          Buffer.add_string buf {|"cached": _|};
          go (i + String.length tru)
        end
        else if
          i + String.length fls <= n && String.sub s i (String.length fls) = fls
        then begin
          Buffer.add_string buf {|"cached": _|};
          go (i + String.length fls)
        end
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf
  in
  Alcotest.(check string) "warm = cold at 4 domains (modulo cached flag)"
    (normalize cold) (normalize warm);
  Alcotest.(check string) "warm = cold at 1 domain (modulo cached flag)"
    (normalize cold) (normalize warm1);
  (* and the warm pass really was served from the result cache *)
  Alcotest.(check bool) "warm pass hit the cache" true
    (String.length warm >= String.length {|"cached": true|}
    &&
    let needle = {|"cached": true|} in
    let rec find i =
      i + String.length needle <= String.length warm
      && (String.sub warm i (String.length needle) = needle || find (i + 1))
    in
    find 0);
  Alcotest.(check bool) "every OS job verified equivalent" true
    (List.for_all
       (fun line ->
         line = ""
         ||
         let has needle =
           let rec find i =
             i + String.length needle <= String.length line
             && (String.sub line i (String.length needle) = needle
                || find (i + 1))
           in
           find 0
         in
         has {|"verdict": "equivalent"|})
       (String.split_on_char '\n' cold));
  Sys.remove jobs_file;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists cache_dir then rm cache_dir

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "fuzz corpus sweep" `Quick test_fuzz_plain;
          Alcotest.test_case "fuzz allocation counters" `Quick test_fuzz_metrics;
          Alcotest.test_case "fuzz differential mode" `Quick test_fuzz_diff;
          Alcotest.test_case "identity-diff table" `Quick test_diff_table;
          Alcotest.test_case "tool-diff JSON report" `Quick test_diff_tool_json;
          Alcotest.test_case "tool-diff ledger metrics" `Quick test_diff_metrics;
          Alcotest.test_case "hotspot + overhead report" `Quick test_report;
          Alcotest.test_case "report tier-2 counters" `Quick test_report_metrics;
          Alcotest.test_case "OS-mode workload SEF" `Quick test_workload_os_sef;
          Alcotest.test_case "OS jobs through eel_serve" `Quick
            test_serve_os_jobs;
        ] );
    ]
