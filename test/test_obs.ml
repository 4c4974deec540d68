(* Tests for the observability layer (ISSUE 2): span nesting and balance
   (including unclosed-span detection), metrics registry semantics,
   Chrome trace_event JSON well-formedness (validated by actually parsing
   it), diagnostics appearing as instant events on the active trace,
   emulator ground-truth profiling on a hand-assembled loop, and the
   eel_objdump --trace flag end to end. *)

module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics
module Json = Eel_obs.Json
module Hotspot = Eel_obs.Hotspot
module Ledger = Eel_obs.Ledger
module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module Toolbox = Eel_tools.Toolbox

let assemble src =
  match Eel_sparc.Asm.assemble src with
  | Ok e -> e
  | Error m -> Alcotest.failf "assembly failed: %s" m

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create () in
  Trace.span tr "outer" (fun () ->
      Trace.span tr "inner-a" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.span tr "inner-b" (fun () -> ignore (Sys.opaque_identity 2)));
  Alcotest.(check int) "span count" 3 (Trace.num_spans tr);
  Alcotest.(check (list string)) "balanced" [] (Trace.unclosed tr);
  let totals = Trace.totals tr in
  let names = List.map (fun (n, _, _) -> n) totals in
  Alcotest.(check (list string))
    "totals names" [ "inner-a"; "inner-b"; "outer" ] names;
  List.iter
    (fun (n, total_us, count) ->
      Alcotest.(check int) (n ^ " count") 1 count;
      if total_us < 0. then Alcotest.failf "%s has negative duration" n)
    totals

let test_span_result_and_exn () =
  let tr = Trace.create () in
  let v = Trace.span tr "compute" (fun () -> 41 + 1) in
  Alcotest.(check int) "value through span" 42 v;
  (* a raising thunk must still close its span *)
  (try Trace.span tr "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list string)) "exception closed span" [] (Trace.unclosed tr)

let test_unclosed_detection () =
  let tr = Trace.create () in
  Trace.enter tr "left-open";
  Trace.enter tr "also-open";
  Trace.exit tr;
  Alcotest.(check (list string)) "unclosed" [ "left-open" ] (Trace.unclosed tr);
  (* sealing must have closed it with a real duration, so export works *)
  match Json.parse (Trace.to_chrome_json tr) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "sealed trace does not export: %s" m

let test_span_raise_unclosed () =
  (* an exception inside a span closes that span but must not paper over a
     hand-opened enter above it — the leak is still flagged, and the sealed
     trace still exports *)
  let tr = Trace.create () in
  Trace.enter tr "outer-open";
  (try Trace.span tr "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list string))
    "raiser closed, enter flagged" [ "outer-open" ] (Trace.unclosed tr);
  match Json.parse (Trace.to_chrome_json tr) with
  | Error m -> Alcotest.failf "trace after raise does not export: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) ->
          let has name =
            List.exists
              (fun ev -> Json.member "name" ev = Some (Json.Str name))
              evs
          in
          Alcotest.(check bool) "raiser span exported" true (has "raiser");
          Alcotest.(check bool) "open span sealed" true (has "outer-open")
      | _ -> Alcotest.fail "no traceEvents after raise")

let test_unmatched_exit () =
  let tr = Trace.create () in
  Trace.exit tr;
  Alcotest.(check (list string))
    "unmatched exit recorded" [ "<exit without enter>" ] (Trace.unclosed tr)

let test_ambient () =
  (* no ambient tracer: with_span is the identity, mark is a no-op *)
  Trace.set_current None;
  Alcotest.(check int) "no tracer" 7 (Trace.with_span "x" (fun () -> 7));
  Trace.mark "dropped";
  let tr = Trace.create () in
  let v =
    Trace.with_current tr (fun () ->
        Trace.with_span "ambient" (fun () ->
            Trace.mark "ping";
            3))
  in
  Alcotest.(check int) "ambient result" 3 v;
  Alcotest.(check int) "ambient recorded" 1 (Trace.num_spans tr);
  (* with_current restored the previous (absent) tracer *)
  Alcotest.(check bool) "restored" true (Trace.get_current () = None)

(* ------------------------------------------------------------------ *)
(* Chrome JSON                                                         *)
(* ------------------------------------------------------------------ *)

let events_of tr =
  match Json.parse (Trace.to_chrome_json tr) with
  | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_json () =
  let tr = Trace.create () in
  Trace.span tr "phase \"quoted\"\n" ~args:[ ("k", "v\\w") ] (fun () ->
      Trace.instant tr "tick" ~args:[ ("n", "1") ]);
  let evs = events_of tr in
  Alcotest.(check int) "event count" 2 (List.length evs);
  let phases =
    List.map
      (fun ev ->
        match Json.member "ph" ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "event without ph")
      evs
  in
  Alcotest.(check (list string)) "phases" [ "X"; "i" ] phases;
  List.iter
    (fun ev ->
      (match Json.member "ts" ev with
      | Some (Json.Num ts) when ts >= 0. -> ()
      | _ -> Alcotest.fail "bad ts");
      match (Json.member "ph" ev, Json.member "dur" ev) with
      | Some (Json.Str "X"), Some (Json.Num d) when d >= 0. -> ()
      | Some (Json.Str "X"), _ -> Alcotest.fail "X event without dur"
      | _ -> ())
    evs;
  (* the escaped name round-trips through the parser *)
  match Json.member "name" (List.hd evs) with
  | Some (Json.Str s) -> Alcotest.(check string) "escaping" "phase \"quoted\"\n" s
  | _ -> Alcotest.fail "no name"

let test_diag_instants () =
  let tr = Trace.create () in
  Trace.with_current tr (fun () ->
      Trace.with_span "validate" (fun () ->
          let sink = Diag.create () in
          Diag.emit sink Diag.Warn ~source:"test" ~loc:(Diag.at_addr 0x40)
            "suspicious %s" "thing"));
  let warn =
    List.filter
      (fun ev -> Json.member "name" ev = Some (Json.Str "diag:warning"))
      (events_of tr)
  in
  Alcotest.(check int) "one diag instant" 1 (List.length warn);
  match Json.member "args" (List.hd warn) with
  | Some (Json.Obj args) ->
      Alcotest.(check bool)
        "message attached" true
        (List.assoc_opt "message" args = Some (Json.Str "suspicious thing"))
  | _ -> Alcotest.fail "diag instant without args"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters_gauges () =
  Metrics.clear ();
  let c = Metrics.counter "t.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check bool) "counter" true (Metrics.find "t.count" = Some (Metrics.Int 5));
  (* registration is idempotent: same ref comes back *)
  Metrics.incr (Metrics.counter "t.count");
  Alcotest.(check bool) "idempotent" true (Metrics.find "t.count" = Some (Metrics.Int 6));
  (* kind mismatch is an error *)
  (match Metrics.gauge "t.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  Metrics.set (Metrics.gauge "t.live") 2.5;
  Alcotest.(check bool) "gauge" true (Metrics.find "t.live" = Some (Metrics.Float 2.5));
  (* the JSON rendering of the whole registry parses *)
  (match Json.parse (Metrics.to_json ()) with
  | Ok (Json.Obj kvs) ->
      Alcotest.(check (list string))
        "registry in json" [ "t.count"; "t.live" ] (List.map fst kvs)
  | Ok _ -> Alcotest.fail "metrics json is not an object"
  | Error m -> Alcotest.failf "metrics json invalid: %s" m);
  Metrics.reset ();
  Alcotest.(check bool) "reset counter" true (Metrics.find "t.count" = Some (Metrics.Int 0));
  Alcotest.(check bool) "reset gauge" true
    (Metrics.find "t.live" = Some (Metrics.Float 0.));
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* Emulator ground-truth profiling                                     *)
(* ------------------------------------------------------------------ *)

(* A hand-assembled counted loop: the body executes exactly 5 times, the
   loop-head block is re-entered via the taken branch exactly 4 times.
   (The label must not start with 'L': local labels never reach the
   symbol table.) *)
let loop_src =
  {|
main:   mov 5, %l0
top:    subcc %l0, 1, %l0
        bne top
        nop
        mov 0, %o0
        ta 1
        nop
|}

let find_sym exe name =
  match
    List.find_opt (fun (s : Sef.symbol) -> s.Sef.sym_name = name) exe.Sef.symbols
  with
  | Some s -> s.Sef.value
  | None -> Alcotest.failf "symbol %s not found" name

let test_emu_block_counts () =
  let exe = assemble loop_src in
  let top = find_sym exe "top" in
  let main = find_sym exe "main" in
  let p = Emu.create_profile () in
  let r, _ = Emu.run_exe ~profile:p exe in
  Alcotest.(check int) "exit" 0 r.Emu.exit_code;
  (* every executed instruction is profiled *)
  Alcotest.(check int) "fuel consumed" r.Emu.insns p.Emu.p_insns;
  (* loop head executed once per iteration *)
  Alcotest.(check int) "top executions" 5 (Emu.pc_count p top);
  (* ... but entered as a block only via the 4 taken back edges *)
  Alcotest.(check int) "top block entries" 4 (Emu.block_count p top);
  (* program start is a block entry *)
  Alcotest.(check int) "entry block" 1 (Emu.block_count p main);
  (* dynamic class mix: bne x5 = branch; mov + subcc x5 + mov = alu;
     the delay-slot nop (sethi 0, %g0) x5 = sethi; ta 1 = trap *)
  let mix = Emu.class_mix p in
  Alcotest.(check int) "branch mix" 5 (List.assoc "branch" mix);
  Alcotest.(check int) "trap mix" 1 (List.assoc "trap" mix);
  Alcotest.(check int) "alu mix" 7 (List.assoc "alu" mix);
  Alcotest.(check int) "sethi mix" 5 (List.assoc "sethi" mix);
  (* publishing surfaces the same numbers in the registry *)
  Metrics.clear ();
  Emu.publish_profile p;
  Alcotest.(check bool) "emu.insns metric" true
    (Metrics.find "emu.insns" = Some (Metrics.Float (float_of_int r.Emu.insns)));
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* Hotspot attribution                                                 *)
(* ------------------------------------------------------------------ *)

let test_hotspot_routines () =
  let h = Hotspot.create ~classes:[| "alu"; "load" |] () in
  Hotspot.add h ~stack:[ "main" ] ~classes:[| 3; 2 |] ~self:5 ();
  Hotspot.add h ~stack:[ "main"; "fib" ] ~self:5 ();
  Hotspot.add h ~stack:[ "main"; "fib"; "fib" ] ~self:12 ();
  Alcotest.(check int) "grand total" 22 (Hotspot.total h);
  let find name =
    match
      List.find_opt (fun r -> r.Hotspot.rs_name = name) (Hotspot.routines h)
    with
    | Some r -> r
    | None -> Alcotest.failf "routine %s not attributed" name
  in
  let main = find "main" and fib = find "fib" in
  Alcotest.(check int) "main self" 5 main.Hotspot.rs_self;
  Alcotest.(check int) "main total" 22 main.Hotspot.rs_total;
  Alcotest.(check int) "fib self" 17 fib.Hotspot.rs_self;
  (* recursion: fib-under-fib counts toward fib's total exactly once *)
  Alcotest.(check int) "fib total (recursion once)" 17 fib.Hotspot.rs_total;
  Alcotest.(check (array int)) "main class mix" [| 3; 2 |] main.Hotspot.rs_classes;
  Alcotest.(check string) "collapsed stacks"
    "main 5\nmain;fib 5\nmain;fib;fib 12\n" (Hotspot.collapsed h)

let test_hotspot_merge_and_export () =
  let h = Hotspot.create () in
  Hotspot.add h ~stack:[ "a"; "b" ] ~self:7 ();
  let other = Hotspot.create () in
  (* frame names with separators must be sanitized, not corrupt the file *)
  Hotspot.add other ~stack:[ "a"; "b" ] ~self:2 ();
  Hotspot.add other ~stack:[ "frame;with space" ] ~self:1 ();
  Hotspot.merge ~into:h other;
  Alcotest.(check int) "merged total" 10 (Hotspot.total h);
  Alcotest.(check string) "merged collapsed" "a;b 9\nframe_with_space 1\n"
    (Hotspot.collapsed h);
  match Json.parse (Hotspot.speedscope_json h) with
  | Error m -> Alcotest.failf "speedscope export is not JSON: %s" m
  | Ok root -> (
      (match Json.member "$schema" root with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "speedscope export without $schema");
      match Json.member "profiles" root with
      | Some (Json.Arr [ prof ]) -> (
          match Json.member "endValue" prof with
          | Some (Json.Num ev) ->
              Alcotest.(check int) "endValue = total" 10 (int_of_float ev)
          | _ -> Alcotest.fail "profile without endValue")
      | _ -> Alcotest.fail "expected exactly one profile")

(* A two-call program: every dynamic instruction must land in a named
   calling context, and returns must unwind back to the caller so main's
   inclusive total covers the whole run. *)
let call_src =
  {|
main:   call sub
        nop
        call sub
        nop
        mov 0, %o0
        ta 1
        nop
sub:    retl
        nop
|}

let test_emu_cct () =
  let exe = assemble call_src in
  let sub = find_sym exe "sub" in
  let tree = Eel_emu.Cct.create () in
  let r, _ = Emu.run_exe ~hook:(Eel_emu.Cct.hook tree) exe in
  Alcotest.(check int) "exit" 0 r.Emu.exit_code;
  let name_of pc =
    if pc = sub then "sub" else Printf.sprintf "0x%x" pc
  in
  let h = Eel_emu.Cct.hotspot ~name_of ~root:[ "main" ] tree in
  (* every executed instruction is attributed to some context *)
  Alcotest.(check int) "attributed = executed" r.Emu.insns (Hotspot.total h);
  let find name =
    match
      List.find_opt (fun s -> s.Hotspot.rs_name = name) (Hotspot.routines h)
    with
    | Some s -> s
    | None -> Alcotest.failf "routine %s not in hotspot" name
  in
  let main = find "main" and subr = find "sub" in
  (* main: call,nop x2 + mov + ta = 6 self; everything inclusive *)
  Alcotest.(check int) "main self" 6 main.Hotspot.rs_self;
  Alcotest.(check int) "main total" r.Emu.insns main.Hotspot.rs_total;
  (* sub: retl + delay nop, entered twice *)
  Alcotest.(check int) "sub self" 4 subr.Hotspot.rs_self;
  Alcotest.(check int) "sub total" 4 subr.Hotspot.rs_total;
  (* the collapsed view shows the return actually unwound: sub never
     appears stacked under itself *)
  Alcotest.(check string) "collapsed" "main 6\nmain;sub 4\n"
    (Hotspot.collapsed h)

(* ------------------------------------------------------------------ *)
(* Overhead ledger                                                     *)
(* ------------------------------------------------------------------ *)

let sample_entry =
  {
    Ledger.le_tool = "qpt2";
    le_prog = "fib";
    le_verdict = "equivalent";
    le_sites = 3;
    le_bytes_orig = 100;
    le_bytes_edited = 160;
    le_routines_touched = 2;
    le_insns_orig = 50;
    le_insns_edited = 80;
    le_mem_orig = 10;
    le_mem_edited = 14;
    le_stores_masked = 4;
    le_traps_masked = 1;
    le_sys_masked = 0;
    le_unexplained = 0;
  }

let test_ledger_record () =
  Metrics.clear ();
  let e = sample_entry in
  Alcotest.(check int) "bytes added" 60 (Ledger.bytes_added e);
  Alcotest.(check int) "extra insns" 30 (Ledger.extra_insns e);
  Alcotest.(check int) "extra mem" 4 (Ledger.extra_mem e);
  Alcotest.(check int) "masked" 5 (Ledger.masked e);
  Alcotest.(check (float 1e-9)) "expansion" 1.6 (Ledger.expansion e);
  Ledger.record e;
  Alcotest.(check bool) "counter published" true
    (Metrics.find "eel.ledger.qpt2.bytes_added" = Some (Metrics.Int 60));
  (* the counters are sweep totals: a second entry of the tool adds *)
  Ledger.record { sample_entry with Ledger.le_sites = 5 };
  Alcotest.(check bool) "programs add" true
    (Metrics.find "eel.ledger.qpt2.programs" = Some (Metrics.Int 2));
  Alcotest.(check bool) "sites add" true
    (Metrics.find "eel.ledger.qpt2.sites" = Some (Metrics.Int 8));
  (* the JSON rendering parses, and a hostile input name survives it *)
  let hostile = {|q"x\y.sef|} in
  (match Json.parse (Ledger.to_json [ { e with Ledger.le_prog = hostile } ]) with
  | Ok (Json.Arr [ row ]) ->
      Alcotest.(check (option string)) "escaped prog round-trips"
        (Some hostile)
        (match Json.member "prog" row with Some (Json.Str p) -> Some p | _ -> None)
  | Ok _ -> Alcotest.fail "ledger json shape"
  | Error m -> Alcotest.failf "ledger json invalid: %s" m);
  Metrics.clear ()

let test_measure_cross_check () =
  Metrics.clear ();
  let exe = assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) in
  (match Toolbox.measure ~prog:"fib" "qpt2" Eel_sparc.Mach.mach exe with
  | Error e -> Alcotest.failf "measure failed: %s" (Diag.error_message e)
  | Ok ms ->
      let e = ms.Toolbox.ms_entry in
      Alcotest.(check string) "verdict" "equivalent" e.Ledger.le_verdict;
      Alcotest.(check string) "program" "fib" e.Ledger.le_prog;
      (* the zero-unexplained identity: every extra dynamic store the
         edited binary executed is accounted for by a masked event *)
      Alcotest.(check int) "unexplained overhead" 0 e.Ledger.le_unexplained;
      Alcotest.(check bool) "sites placed" true (e.Ledger.le_sites > 0);
      Alcotest.(check bool) "image grew" true (Ledger.bytes_added e > 0);
      Alcotest.(check bool) "run grew" true (Ledger.extra_insns e > 0);
      Alcotest.(check bool) "profiling stores masked" true
        (e.Ledger.le_stores_masked > 0);
      Alcotest.(check bool) "routines touched" true
        (e.Ledger.le_routines_touched > 0);
      (* measure published the entry as its tool's counters *)
      Alcotest.(check bool) "ledger entry recorded" true
        (Metrics.find "eel.ledger.qpt2.programs" = Some (Metrics.Int 1)));
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* trace_check on hotspot exports                                      *)
(* ------------------------------------------------------------------ *)

let bin name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_trace_check_exports () =
  let h = Hotspot.create () in
  Hotspot.add h ~stack:[ "a"; "b" ] ~self:7 ();
  Hotspot.add h ~stack:[ "a" ] ~self:3 ();
  let flame = Filename.temp_file "eel_obs" ".flame" in
  let scope = Filename.temp_file "eel_obs" ".speedscope.json" in
  write_file flame (Hotspot.collapsed h);
  write_file scope (Hotspot.speedscope_json h);
  let run args =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2>&1"
         (Filename.quote (bin "trace_check.exe"))
         args)
  in
  Alcotest.(check int) "both formats validate with the right total" 0
    (run
       (Printf.sprintf "--total 10 %s %s" (Filename.quote flame)
          (Filename.quote scope)));
  Alcotest.(check int) "wrong total rejected (collapsed)" 1
    (run (Printf.sprintf "--total 11 %s" (Filename.quote flame)));
  Alcotest.(check int) "wrong total rejected (speedscope)" 1
    (run (Printf.sprintf "--total 11 %s" (Filename.quote scope)));
  (* a truncated export must not validate *)
  write_file flame "a;b notanumber\n";
  Alcotest.(check int) "malformed collapsed rejected" 1
    (run (Filename.quote flame));
  Sys.remove flame;
  Sys.remove scope

(* ------------------------------------------------------------------ *)
(* perf-regression gate                                                *)
(* ------------------------------------------------------------------ *)

(* The pair gate's decision on synthetic pair tables. A real gate run
   takes minutes (`make perf-regress`), so only its parts are run here. *)

module Gate = Perf_gate

let gate_run values = { Gate.correct = true; attempted = 10; failed = 0; values }

(* one metric of cold_mixed over [(parent, change)] pairs *)
let gate_rows ?(higher = true) ?(name = "jobs_per_s") prs =
  Gate.rows
    [ { Gate.m_name = name; m_higher = higher; m_bound = 0.25 } ]
    [
      ( "cold_mixed",
        List.map (fun (p, c) -> (gate_run [ (name, p) ], gate_run [ (name, c) ])) prs );
    ]

let gate_fails ?higher ?name prs = Gate.failures (gate_rows ?higher ?name prs) []
let six p c = List.init 6 (fun i -> (p +. float_of_int i, c +. float_of_int i))

let test_perf_gate_decision () =
  let fails what expect ?higher ?name prs =
    Alcotest.(check (list string)) what expect (gate_fails ?higher ?name prs)
  in
  fails "noise within the bound passes" []
    [ (100., 95.); (100., 104.); (98., 91.); (102., 108.); (101., 97.); (99., 103.) ];
  fails "6/6 lost, 33% slower fails" [ "cold_mixed jobs_per_s" ] (six 100. 67.);
  fails "6/6 lost, 20% slower passes" [] (six 100. 80.);
  (* parent median 100, change 70, but the change won two pairs *)
  fails "30% slower, 4/6 lost passes" []
    [ (100., 70.); (100., 70.); (100., 70.); (100., 70.); (60., 70.); (60., 70.) ];
  fails "p90 33% higher fails" [ "cold_mixed latency_p90_ms" ] ~higher:false
    ~name:"latency_p90_ms" (six 20. 26.7);
  fails "p90 33% lower passes" [] ~higher:false ~name:"latency_p90_ms" (six 20. 13.3);
  (* 40% worse in median, but two of the six pairs tie *)
  fails "ties count for neither side" []
    [ (100., 100.); (100., 100.); (100., 60.); (100., 60.); (100., 60.); (100., 60.) ];
  match gate_rows (List.init 6 (fun _ -> (1.8, 1.8))) with
  | [ r ] ->
      Alcotest.(check (pair int int)) "identical runs: 0 won, 0 lost" (0, 0)
        (r.Gate.r_won, r.Gate.r_lost)
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

let test_perf_gate_checks () =
  let jobs v = gate_run [ ("jobs_per_s", v) ] in
  let table cold warm =
    [
      ("cold_mixed", List.map (fun v -> (jobs v, jobs v)) cold);
      ("warm_mixed", List.map (fun v -> (jobs v, jobs v)) warm);
    ]
  in
  let ok c = c.Gate.c_ok in
  Alcotest.(check bool) "warm 18x cold passes" true
    (ok (Gate.warm_check (table [ 90.; 100.; 110. ] [ 1700.; 1800.; 1900. ])));
  Alcotest.(check bool) "warm 2.9x cold fails" false
    (ok (Gate.warm_check (table [ 90.; 100.; 110. ] [ 280.; 290.; 300. ])));
  Alcotest.(check bool) "no warm runs fails" false (ok (Gate.warm_check [ ("cold_mixed", []) ]));
  let mips block predecode =
    Gate.tier_check
      (gate_run [ ("emu.run.mips_block", block); ("emu.run.mips_predecode", predecode) ])
  in
  Alcotest.(check bool) "block above predecode passes" true (ok (mips 114. 40.7));
  Alcotest.(check bool) "block below predecode fails" false (ok (mips 39. 40.7));
  Alcotest.(check bool) "untraced run fails" false (ok (Gate.tier_check (gate_run [])));
  Alcotest.(check (list string)) "a failed check fails the gate"
    [ "long_run mips_block >= mips_predecode" ]
    (Gate.failures [] [ mips 114. 40.7; mips 39. 40.7 ])

(* a jobbench result line as `jobbench/run.py --trace 0` prints it *)
let jobbench_line =
  {|{"correct": true, "attempted": 83, "failed": 0, "metrics": {"jobs_per_s": {"value": 87.698315195485691, "unit": "1/s"}, "latency_p50_ms": {"value": 9.2389583587646484, "unit": "ms"}, "latency_p90_ms": {"value": 21.734189987182617, "unit": "ms"}, "setup_s": {"value": 0.048521995544433594, "unit": "s"}, "edited_insns_ratio": {"value": 1.8353247899885572, "unit": "ratio"}, "edited_bytes_ratio": {"value": 30.050804643916237, "unit": "ratio"}}}|}

let test_perf_gate_io () =
  (match Gate.parse_run jobbench_line with
  | Ok r ->
      Alcotest.(check (triple bool int int)) "status" (true, 83, 0)
        (r.Gate.correct, r.Gate.attempted, r.Gate.failed);
      Alcotest.(check (option (float 1e-9))) "jobs_per_s" (Some 87.698315195485691)
        (Gate.value "jobs_per_s" r);
      Alcotest.(check int) "six metrics" 6 (List.length r.Gate.values)
  | Error m -> Alcotest.failf "result line rejected: %s" m);
  Alcotest.(check bool) "a truncated line is an error" true
    (Result.is_error (Gate.parse_run (String.sub jobbench_line 0 60)));
  let spec = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  (match Gate.parse_spec spec with
  | Ok (workloads, metrics) ->
      Alcotest.(check (list string)) "workloads"
        [ "cold_mixed"; "warm_mixed"; "long_run"; "edit_only" ] workloads;
      Alcotest.(check (list (pair string bool)))
        "directions"
        [
          ("jobs_per_s", true); ("latency_p50_ms", false); ("latency_p90_ms", false);
          ("setup_s", false); ("edited_insns_ratio", false); ("edited_bytes_ratio", false);
        ]
        (List.map (fun m -> (m.Gate.m_name, m.Gate.m_higher)) metrics)
  | Error m -> Alcotest.failf "BENCHMARK.json rejected: %s" m);
  let rows = gate_rows (six 100. 67.) in
  (match
    Json.parse
      (Gate.to_json ~parent:"p" ~change:"c" ~machine:"m \"x\"" ~cores:2 ~wall_s:1. rows
         [ Gate.tier_check (gate_run []) ])
  with
  | Ok j ->
      let path keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys in
      Alcotest.(check bool) "pass recorded" true (path [ "pass" ] = Some (Json.Bool false));
      Alcotest.(check bool) "median recorded" true
        (path [ "workloads"; "cold_mixed"; "jobs_per_s"; "change"; "median" ]
        = Some (Json.Num 69.5));
      Alcotest.(check bool) "pairs lost recorded" true
        (path [ "workloads"; "cold_mixed"; "jobs_per_s"; "lost" ] = Some (Json.Num 6.));
      Alcotest.(check bool) "run length recorded" true
        (path [ "workloads"; "cold_mixed"; "seconds" ] = Some (Json.Num 3.));
      Alcotest.(check bool) "each run's jobs recorded" true
        (path [ "workloads"; "cold_mixed"; "jobs"; "change" ]
        = Some (Json.Arr (List.init 6 (fun _ -> Json.Num 10.))))
  | Error m -> Alcotest.failf "gate JSON does not parse: %s" m);
  Alcotest.(check (list int)) "long_run and edit_only run longer" [ 3; 3; 6; 8 ]
    (List.map Gate.seconds [ "cold_mixed"; "warm_mixed"; "long_run"; "edit_only" ]);
  Alcotest.(check bool) "the table prints each run's jobs" true
    (List.mem "| cold_mixed | 3 s | 10 10 10 10 10 10 | 10 10 10 10 10 10 |"
       (Gate.table_lines rows))

(* ------------------------------------------------------------------ *)
(* eel_objdump --trace, end to end                                     *)
(* ------------------------------------------------------------------ *)

let test_objdump_trace () =
  let exe =
    Eel_workload.Gen.assemble_program
      { Eel_workload.Gen.default with seed = 5; routines = 6 }
  in
  let dir = Filename.temp_file "eel_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sef = Filename.concat dir "w.sef" in
  let trace = Filename.concat dir "t.json" in
  Sef.write_file sef exe;
  (* locate the tool next to this test binary so the test is cwd-agnostic
     (dune runtest runs in _build/default/test, dune exec in the root) *)
  let objdump =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/eel_objdump.exe"
  in
  let cmd =
    Printf.sprintf "%s --trace %s %s > /dev/null" (Filename.quote objdump)
      (Filename.quote trace) (Filename.quote sef)
  in
  Alcotest.(check int) "objdump exit" 0 (Sys.command cmd);
  let ic = open_in_bin trace in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.parse src with
  | Error m -> Alcotest.failf "--trace output is not JSON: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) ->
          let has name =
            List.exists (fun ev -> Json.member "name" ev = Some (Json.Str name)) evs
          in
          Alcotest.(check bool) "load span" true (has "load");
          Alcotest.(check bool) "cfg spans" true (has "cfg.build");
          Alcotest.(check bool) "analyze span" true (has "analyze")
      | _ -> Alcotest.fail "no traceEvents"));
  Sys.remove trace;
  Sys.remove sef;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* eel_run --metrics on the block tier                                 *)
(* ------------------------------------------------------------------ *)

let test_run_metrics_block () =
  (* the --metrics profile does not force tier-1: the block tier keeps
     it, reporting the same ground truth as the predecode tier *)
  let exe =
    match
      Eel_sparc.Asm.assemble
        (Eel_workload.Gen.memory_bound ~iters:4 ~size_words:64 ())
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  let sef = Filename.temp_file "eel_obs" ".sef" in
  let err = Filename.temp_file "eel_obs" ".err" in
  Sef.write_file sef exe;
  let run tier =
    let rc =
      Sys.command
        (Printf.sprintf "%s --metrics --tier %s %s > /dev/null 2> %s"
           (Filename.quote (bin "eel_run.exe"))
           tier (Filename.quote sef) (Filename.quote err))
    in
    let ic = open_in_bin err in
    let lines =
      String.split_on_char '\n' (really_input_string ic (in_channel_length ic))
    in
    close_in ic;
    Alcotest.(check int) (tier ^ ": exit") 0 rc;
    lines
  in
  let starts p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let profile lines =
    List.filter (fun l -> starts "emu." l && not (starts "emu.tier2." l)) lines
  in
  let block = run "block" and predecode = run "predecode" in
  Alcotest.(check bool) "no notice" false
    (List.exists (starts "eel_run:") block);
  Alcotest.(check bool) "profile published" true (profile block <> []);
  Alcotest.(check (list string)) "same emu.* lines" (profile predecode)
    (profile block);
  let execs =
    List.find_map
      (fun l ->
        if starts "[tier2:" l then
          Scanf.sscanf_opt l "[tier2: blocks=%_d live=%_d execs=%d" Fun.id
        else None)
      block
  in
  Alcotest.(check bool) "compiled blocks ran" true
    (match execs with Some n -> n > 0 | None -> false);
  Sys.remove sef;
  Sys.remove err

(* ------------------------------------------------------------------ *)
(* The binaries' shared harness: exit convention, --trace everywhere   *)
(* ------------------------------------------------------------------ *)

let all_binaries =
  [
    "eel_objdump"; "eel_run"; "qpt2"; "workload_gen"; "spawn_gen"; "eel_fuzz";
    "eel_diff"; "trace_check"; "eel_report"; "eel_serve"; "eel_batch";
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

(* a scratch directory holding one small workload image *)
let with_workload f =
  let dir = Filename.temp_file "eel_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sef = Filename.concat dir "w.sef" in
  Sef.write_file sef
    (Eel_workload.Gen.assemble_program
       { Eel_workload.Gen.default with seed = 5; routines = 4 });
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir (Filename.quote sef))

(* run [tool args] with stdin closed; the exit status and stderr *)
let run_tool dir tool args =
  let err = Filename.concat dir "stderr" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s < /dev/null > /dev/null 2> %s"
         (Filename.quote (bin (tool ^ ".exe")))
         args (Filename.quote err))
  in
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (rc, text)

let test_cli_exit_convention () =
  with_workload @@ fun dir sef ->
  let bad = Filename.quote (Filename.concat dir "missing/out") in
  let spawn_desc =
    Filename.quote
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "../descriptions/sparc.spawn")
  in
  (* an output path under a missing directory, or a run out of fuel: one
     "<tool>: " line, exit 1 *)
  List.iter
    (fun (tool, args) ->
      let rc, err = run_tool dir tool args in
      Alcotest.(check int) (tool ^ " " ^ args ^ ": exits 1") 1 rc;
      let last =
        List.fold_left
          (fun acc l -> if l = "" then acc else l)
          "" (String.split_on_char '\n' err)
      in
      Alcotest.(check bool)
        (tool ^ ": stderr ends in one tool line")
        true
        (String.starts_with ~prefix:(tool ^ ": ") last);
      Alcotest.(check bool)
        (tool ^ ": no crash banner")
        false
        (contains err "Fatal error" || contains err "internal error"))
    [
      ("eel_run", "--trace " ^ bad ^ " " ^ sef);
      ("qpt2", "--trace " ^ bad ^ " " ^ sef);
      ("eel_objdump", "--trace " ^ bad ^ " " ^ sef);
      ("eel_diff", "--trace " ^ bad ^ " " ^ sef);
      ("eel_fuzz", "--count 4 --trace " ^ bad);
      ("eel_report", "--tool qpt2 --trace " ^ bad ^ " " ^ sef);
      ("eel_batch", "--gen 2 --emit " ^ bad);
      ("eel_serve", "--out " ^ bad);
      ("workload_gen", "-o " ^ bad);
      ("spawn_gen", "-o " ^ bad ^ " " ^ spawn_desc);
      ("eel_run", "--fuel 10 " ^ sef);
    ];
  (* a bad flag is a usage error everywhere *)
  List.iter
    (fun tool ->
      let rc, _ = run_tool dir tool "--no-such-flag" in
      Alcotest.(check int) (tool ^ ": unknown flag exits 2") 2 rc)
    all_binaries

let test_cli_traces_validate () =
  with_workload @@ fun dir sef ->
  List.iter
    (fun (tool, args) ->
      let trace = Filename.quote (Filename.concat dir (tool ^ ".json")) in
      let rc, _ = run_tool dir tool ("--trace " ^ trace ^ " " ^ args) in
      Alcotest.(check int) (tool ^ " --trace: exit") 0 rc;
      let rc, _ = run_tool dir "trace_check" trace in
      Alcotest.(check int) (tool ^ " --trace: trace_check") 0 rc)
    [
      ("qpt2", sef);
      ("eel_diff", sef);
      ("eel_fuzz", "--count 4");
      ("eel_report", "--tool qpt2 " ^ sef);
    ]

(* the oracle's runs in eel_report and eel_batch execute profiled on the
   block tier: --metrics prints their emu.tier2.* counters on stdout *)
let test_cli_tier2_metrics () =
  with_workload @@ fun dir sef ->
  let counters tool args =
    let out = Filename.concat dir (tool ^ ".out") in
    let rc =
      Sys.command
        (Printf.sprintf "%s --metrics %s < /dev/null > %s 2> /dev/null"
           (Filename.quote (bin (tool ^ ".exe")))
           args (Filename.quote out))
    in
    Alcotest.(check int) (tool ^ " --metrics: exit") 0 rc;
    let ic = open_in_bin out in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "emu.tier2.%s %d" (fun k v -> (k, v)))
      (String.split_on_char '\n' text)
  in
  List.iter
    (fun (tool, args) ->
      let cs = counters tool args in
      List.iter
        (fun k ->
          match List.assoc_opt k cs with
          | Some n ->
              Alcotest.(check bool) (Printf.sprintf "%s: %s > 0" tool k) true (n > 0)
          | None -> Alcotest.failf "%s --metrics printed no emu.tier2.%s" tool k)
        [ "block_runs"; "profiled_exits" ])
    [
      ("eel_report", "--tool qpt2 " ^ sef);
      ( "eel_batch",
        "--gen 6 --cache-dir " ^ Filename.quote (Filename.concat dir "cache") );
    ]

(* two inputs that share a file name are still two programs: the report
   keeps a ledger row for each, named by the path as given, and their
   calling-context trees keep two flame roots *)
let test_report_same_basename () =
  with_workload @@ fun dir _ ->
  let exe = assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) in
  let sef sub =
    let d = Filename.concat dir sub in
    Unix.mkdir d 0o700;
    let f = Filename.concat d "x.sef" in
    Sef.write_file f exe;
    f
  in
  let a = sef "a" and b = sef "b" in
  let json = Filename.concat dir "report.json" in
  let flame = Filename.concat dir "report.flame" in
  let rc, _ =
    run_tool dir "eel_report"
      (String.concat " "
         (List.map Filename.quote
            [ "--tool"; "qpt2"; "--json"; json; "--flame"; flame; a; b ]))
  in
  Alcotest.(check int) "eel_report exit" 0 rc;
  let roots =
    List.sort_uniq compare
      (List.filter_map
         (fun l ->
           if l = "" then None else Some (List.hd (String.split_on_char ';' l)))
         (String.split_on_char '\n' (read_file flame)))
  in
  Alcotest.(check (list string)) "one flame root per input" [ a; b ] roots;
  match Json.parse (read_file json) with
  | Ok report -> (
      match Json.member "ledger" report with
      | Some (Json.Arr rows) ->
          Alcotest.(check (list string))
            "ledger progs are the paths as given" [ a; b ]
            (List.map
               (fun row ->
                 match Json.member "prog" row with
                 | Some (Json.Str p) -> p
                 | _ -> Alcotest.fail "ledger row has no prog")
               rows)
      | _ -> Alcotest.fail "report has no ledger array")
  | Error m -> Alcotest.failf "report json invalid: %s" m

(* eel_report's corpus exports are pinned byte for byte: the flamegraph
   and speedscope files over the default corpus must equal the goldens
   next to this suite (98 stacks, 10,949 instructions). A change meant
   to alter them regenerates both from eel_report itself. *)
let test_report_golden_exports () =
  with_workload @@ fun dir _ ->
  let flame = Filename.concat dir "r.flame"
  and scope = Filename.concat dir "r.speedscope.json" in
  let rc, err =
    run_tool dir "eel_report"
      (Printf.sprintf "--flame %s --speedscope %s" (Filename.quote flame)
         (Filename.quote scope))
  in
  Alcotest.(check int) ("eel_report exit; stderr: " ^ err) 0 rc;
  List.iter
    (fun (golden, got) ->
      Alcotest.(check string) golden (read_file golden) (read_file got))
    [ ("hotspot.flame", flame); ("hotspot.speedscope.json", scope) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and totals" `Quick test_span_nesting;
          Alcotest.test_case "result and exception paths" `Quick test_span_result_and_exn;
          Alcotest.test_case "raise under open enter" `Quick test_span_raise_unclosed;
          Alcotest.test_case "unclosed-span detection" `Quick test_unclosed_detection;
          Alcotest.test_case "unmatched exit" `Quick test_unmatched_exit;
          Alcotest.test_case "ambient tracer" `Quick test_ambient;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON well-formed" `Quick test_chrome_json;
          Alcotest.test_case "diagnostics as instants" `Quick test_diag_instants;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
        ] );
      ( "emu-profile",
        [
          Alcotest.test_case "loop block counts" `Quick test_emu_block_counts;
          Alcotest.test_case "calling-context attribution" `Quick test_emu_cct;
        ] );
      ( "hotspot",
        [
          Alcotest.test_case "routines and recursion" `Quick test_hotspot_routines;
          Alcotest.test_case "merge and speedscope export" `Quick
            test_hotspot_merge_and_export;
          Alcotest.test_case "trace_check validates exports" `Quick
            test_trace_check_exports;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "record and render" `Quick test_ledger_record;
          Alcotest.test_case "measure cross-check" `Quick test_measure_cross_check;
        ] );
      ( "perf-gate",
        [
          Alcotest.test_case "decision: bound, pairs, direction" `Quick
            test_perf_gate_decision;
          Alcotest.test_case "checks on the change alone" `Quick
            test_perf_gate_checks;
          Alcotest.test_case "result line, spec and JSON report" `Quick
            test_perf_gate_io;
        ] );
      ( "tools",
        [
          Alcotest.test_case "eel_objdump --trace" `Quick test_objdump_trace;
          Alcotest.test_case "eel_run --metrics on the block tier" `Quick
            test_run_metrics_block;
          Alcotest.test_case "exit convention of every binary" `Quick
            test_cli_exit_convention;
          Alcotest.test_case "every --trace output validates" `Quick
            test_cli_traces_validate;
          Alcotest.test_case "eel_report keeps inputs that share a name"
            `Quick test_report_same_basename;
          Alcotest.test_case "eel_report exports match the goldens" `Quick
            test_report_golden_exports;
          Alcotest.test_case "oracle runs print their tier-2 counters" `Quick
            test_cli_tier2_metrics;
        ] );
    ]
