(* Tests for the observability layer (ISSUE 2): span nesting and balance
   (including unclosed-span detection), metrics registry semantics and
   histogram bucket edges, Chrome trace_event JSON well-formedness
   (validated by actually parsing it), diagnostics appearing as instant
   events on the active trace, emulator ground-truth profiling on a
   hand-assembled loop, and the eel_objdump --trace flag end to end. *)

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
  Metrics.reset ();
  Alcotest.(check bool) "reset counter" true (Metrics.find "t.count" = Some (Metrics.Int 0));
  Alcotest.(check bool) "reset gauge" true
    (Metrics.find "t.live" = Some (Metrics.Float 0.));
  Metrics.clear ()

let test_histogram_edges () =
  Metrics.clear ();
  let h = Metrics.histogram ~edges:[| 1.; 2.; 5. |] "t.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 2.1; 5.0; 7.0 ];
  (match Metrics.find "t.hist" with
  | Some (Metrics.Hist { counts; n; sum; _ }) ->
      (* bucket semantics: first edge >= v; edge values land inclusively *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 1 |] counts;
      Alcotest.(check int) "n" 7 n;
      Alcotest.(check (float 1e-9)) "sum" 19.1 sum
  | _ -> Alcotest.fail "histogram not found");
  (match Metrics.histogram ~edges:[| 2.; 1. |] "t.bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted edges accepted");
  (* the JSON rendering of the whole registry parses *)
  (match Json.parse (Metrics.to_json ()) with
  | Ok (Json.Obj kvs) ->
      Alcotest.(check bool) "hist in json" true (List.mem_assoc "t.hist" kvs)
  | Ok _ -> Alcotest.fail "metrics json is not an object"
  | Error m -> Alcotest.failf "metrics json invalid: %s" m);
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
  let p = Emu.create_profile () in
  let r, _ = Emu.run_exe ~profile:p exe in
  Alcotest.(check int) "exit" 0 r.Emu.exit_code;
  let name_of pc =
    if pc = sub then "sub" else Printf.sprintf "0x%x" pc
  in
  let h = Emu.profile_hotspot ~name_of ~root:"main" p in
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

(* The gate's decision is unit-tested on synthetic numbers: remeasuring
   the machine within a tolerance made this test fail in a third to a
   half of full runs. One subprocess run checks the binary itself. *)

module Gate = Perf_gate

let gate_base ?(block = Some 3.0) ?(cores = 2) ?(points = []) () =
  {
    Gate.b_cores = cores;
    b_speedup = 2.0;
    b_speedup_block = block;
    b_mips_on = 40.;
    b_points = points;
  }

let gate_fresh ~speedup ~block =
  { Gate.f_speedup = speedup; f_speedup_block = block; f_mips_on = 40. }

let test_perf_gate () =
  let base = gate_base () in
  let failures f = Gate.failures (Gate.throughput_checks ~tol:0.12 base f) in
  (* a remeasure 5% below the baseline is inside the default gate *)
  Alcotest.(check (list string))
    "gate passes a remeasure inside the tolerance" []
    (failures (gate_fresh ~speedup:1.9 ~block:2.85));
  (* EEL_PERF_HANDICAP=1.35 multiplies the predecode time by 1.35: the
     predecode speedup drops 26% and the block speedup rises *)
  Alcotest.(check (list string))
    "gate fails on seeded regression"
    [ "throughput speedup vs baseline" ]
    (failures (gate_fresh ~speedup:(2.0 /. 1.35) ~block:(3.0 *. 1.35)));
  (* the binary: one gate run against a baseline every working tree
     clears (both speedups 1.0, i.e. only the absolute invariants) exits
     0 and appends one trajectory-history line *)
  let regress =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bench/regress.exe"
  in
  let base = Filename.temp_file "eel_perf" ".json" in
  let hist = Filename.temp_file "eel_perf" ".jsonl" in
  let oc = open_out base in
  output_string oc
    {|{"cores": 1, "throughput": {"speedup": 1.0, "speedup_block": 1.0, "predecode_on": {"mips": 1.0}}}|};
  close_out oc;
  Alcotest.(check int) "gate run exits 0" 0
    (Sys.command
       (Printf.sprintf
          "EEL_PERF_BUDGET=smoke EEL_PERF_HISTORY=%s EEL_PERF_BASELINE=%s %s > /dev/null 2>&1"
          (Filename.quote hist) (Filename.quote base) (Filename.quote regress)));
  let ic = open_in hist in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  (match !lines with
  | [ l ] -> (
      match Json.parse l with
      | Ok j ->
          Alcotest.(check bool)
            "history line records the pass" true
            (Json.member "pass" j = Some (Json.Bool true))
      | Error m -> Alcotest.failf "history line is not JSON: %s" m)
  | ls -> Alcotest.failf "expected one history line, got %d" (List.length ls));
  Sys.remove base;
  Sys.remove hist

let test_perf_gate_pre_block () =
  let checks =
    Gate.throughput_checks ~tol:0.12 (gate_base ~block:None ())
      (gate_fresh ~speedup:2.0 ~block:1.5)
  in
  Alcotest.(check (list string)) "passes" [] (Gate.failures checks);
  Alcotest.(check bool)
    "tier-2 check skipped" true
    (List.exists
       (fun c ->
         c.Gate.c_name = "tier-2 speedup vs baseline" && c.Gate.c_verdict = Gate.Skip)
       checks)

let test_perf_gate_scaling_skip () =
  let point ?(contended = false) j s =
    { Gate.bp_jobs = j; bp_speedup = s; bp_contended = contended }
  in
  let points = [ point 1 1.0; point 2 1.8 ] in
  let skips ~cores base = Gate.scaling_skip ~cores ~skip:false base <> None in
  Alcotest.(check bool)
    "1-core machine skips" true
    (skips ~cores:1 (gate_base ~points ()));
  Alcotest.(check bool)
    "1-core baseline skips" true
    (skips ~cores:4 (gate_base ~cores:1 ~points ()));
  Alcotest.(check bool)
    "contended baseline skips" true
    (skips ~cores:4 (gate_base ~cores:4 ~points:[ point 1 1.0; point ~contended:true 8 0.6 ] ()));
  let base = gate_base ~cores:4 ~points () in
  Alcotest.(check bool) "multicore baseline runs" false (skips ~cores:4 base);
  Alcotest.(check (list int)) "sweeps the points that fit" [ 1; 2 ]
    (Gate.scaling_jobs ~cores:4 base);
  Alcotest.(check (list string))
    "scaling within 25% passes, below fails"
    [ "scaling speedup at 2 domains" ]
    (Gate.failures (Gate.scaling_checks base [ (1, 0.9); (2, 1.3) ]))

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
        [ "block_runs"; "profiled_exits"; "path_flushes" ])
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
  let read f =
    let ic = open_in_bin f in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  let roots =
    List.sort_uniq compare
      (List.filter_map
         (fun l ->
           if l = "" then None else Some (List.hd (String.split_on_char ';' l)))
         (String.split_on_char '\n' (read flame)))
  in
  Alcotest.(check (list string)) "one flame root per input" [ a; b ] roots;
  match Json.parse (read json) with
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
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
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
          Alcotest.test_case "pass, seeded regression, history" `Quick
            test_perf_gate;
          Alcotest.test_case "baseline before the block tier skips its check"
            `Quick test_perf_gate_pre_block;
          Alcotest.test_case "1-core or contended baseline skips scaling"
            `Quick test_perf_gate_scaling_skip;
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
          Alcotest.test_case "oracle runs print their tier-2 counters" `Quick
            test_cli_tier2_metrics;
        ] );
    ]
