(* The rewriting service and its content-addressed cache (ISSUE 8).

   What must hold, roughly in dependency order:

   - routine digests are stable across opens, distinct across routines,
     and sensitive to exactly the inputs analysis depends on (text bytes,
     slicing policy);
   - the analysis-artifact codec round-trips (including literal tables)
     and rejects corrupt/truncated/foreign blobs as misses;
   - the two-layer cache: mem hits, durable disk hits across a fresh
     Cache.t, oldest-first eviction under a small byte budget, and
     survival under concurrent hit/miss races from Pool domains;
   - per-routine dirty invalidation: patching ONE routine's text makes
     exactly that routine re-analyze on the next open — every clean
     routine still hits;
   - end-to-end byte identity: across the full corpus x all 6 tools,
     cache-hit edited images are byte-identical to cache-miss images,
     both for the whole-job result cache and for the seeded-analysis
     path (result cache off), and both match a direct Toolbox.measure. *)

module E = Eel.Executable
module C = Eel.Cfg
module Sef = Eel_sef.Sef
module Gen = Eel_workload.Gen
module Corpus = Eel_diffexec.Corpus
module Toolbox = Eel_tools.Toolbox
module Cache = Eel_service.Cache
module Analysis = Eel_service.Analysis
module Proto = Eel_service.Proto
module Serve = Eel_service.Serve
module Pool = Eel_util.Pool
module Json = Eel_obs.Json

let mach = Eel_sparc.Mach.mach
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let assemble src =
  match Eel_sparc.Asm.assemble src with
  | Ok e -> e
  | Error m -> failwith ("test_serve: assembly failed: " ^ m)

let gen_exe ?(seed = 11) ?(routines = 8) () =
  assemble (Gen.program { Gen.default with seed; routines })

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir "eel_serve_test" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Deep-copy an executable through its canonical serialization so byte
   patches don't alias the original. *)
let copy_exe exe =
  match Sef.load (Sef.to_string exe) with
  | Ok e -> e
  | Error _ -> failwith "test_serve: roundtrip failed"

(* ---------------- digests ---------------- *)

let test_digest_stability () =
  let exe = gen_exe () in
  let digests e =
    let t = E.read_contents mach e in
    List.map (fun r -> (r.E.r_name, E.routine_digest t r)) (E.routines t)
  in
  let d1 = digests exe in
  let d2 = digests (copy_exe exe) in
  check_bool "digests are stable across opens" true (d1 = d2);
  let names = List.map fst d1 in
  let uniq = List.sort_uniq compare (List.map snd d1) in
  check_int "digests are distinct across routines" (List.length names)
    (List.length uniq)

let test_digest_sensitivity () =
  let exe = gen_exe () in
  let t1 = E.read_contents mach exe in
  let r1 = List.hd (E.routines t1) in
  let base = E.routine_digest t1 r1 in
  (* slicing policy feeds the digest *)
  let t2 = E.read_contents mach exe in
  t2.E.slicing <- false;
  let r2 = List.hd (E.routines t2) in
  check_bool "slicing policy changes the digest" true
    (E.routine_digest t2 r2 <> base);
  (* patching the routine's text changes the digest; other routines keep
     theirs *)
  let patched = copy_exe exe in
  let text = List.hd (Sef.text_sections patched) in
  Eel_util.Bytebuf.set32_be text.Sef.contents
    (r1.E.r_lo + 4 - text.Sef.vaddr)
    0x01000000 (* nop *);
  let t3 = E.read_contents mach patched in
  let r3 = List.hd (E.routines t3) in
  check_bool "patched text changes the digest" true
    (E.routine_digest t3 r3 <> base);
  List.iter2
    (fun ra rb ->
      if ra.E.r_name <> r1.E.r_name then
        check_str
          (Printf.sprintf "clean routine %s keeps its digest" ra.E.r_name)
          (E.routine_digest t1 ra) (E.routine_digest t3 rb))
    (E.routines t1) (E.routines t3)

(* ---------------- analysis codec ---------------- *)

let test_analysis_codec () =
  let tables =
    [
      (0x1000, { C.t_addr = 0x2000; t_targets = [| 0x1010; 0x1020; 0x1030 |] });
      (0x1100, { C.t_addr = -1; t_targets = [| 0x1200 |] });
      (0x1200, { C.t_addr = 0x2400; t_targets = [||] });
    ]
  in
  let blob = Analysis.encode tables in
  (match Analysis.decode blob with
  | Some got -> check_bool "codec round-trips" true (got = tables)
  | None -> Alcotest.fail "decode rejected its own encoding");
  check_bool "truncated blob is a miss" true
    (Analysis.decode (String.sub blob 0 (String.length blob - 3)) = None);
  check_bool "foreign magic is a miss" true
    (Analysis.decode ("XXXX" ^ blob) = None);
  check_bool "empty blob is a miss" true (Analysis.decode "" = None)

(* ---------------- cache layers ---------------- *)

let test_cache_mem_roundtrip () =
  let c = Cache.create ~mem_budget_bytes:(1 lsl 20) () in
  check_bool "miss before put" true (Cache.get c ~ns:"t" "k1" = None);
  Cache.put c ~ns:"t" "k1" "v1";
  check_bool "hit after put" true (Cache.get c ~ns:"t" "k1" = Some "v1");
  Cache.put c ~ns:"u" "k1" "v2";
  check_bool "namespaces are disjoint" true (Cache.get c ~ns:"t" "k1" = Some "v1");
  let s = Cache.snapshot c in
  check_int "two stores" 2 s.Cache.sn_stores;
  check_int "one miss" 1 s.Cache.sn_misses;
  check_int "two mem hits" 2 s.Cache.sn_mem_hits

let test_cache_disk_durability () =
  with_temp_dir @@ fun dir ->
  let c1 = Cache.create ~dir () in
  Cache.put c1 ~ns:"t" "deadbeef" "payload";
  (* a brand-new Cache.t over the same directory — the restarted-daemon
     case — must serve the entry from disk *)
  let c2 = Cache.create ~dir () in
  check_bool "disk survives process boundary" true
    (Cache.get c2 ~ns:"t" "deadbeef" = Some "payload");
  let s = Cache.snapshot c2 in
  check_int "served from disk" 1 s.Cache.sn_disk_hits;
  (* promoted to mem: second get is a mem hit *)
  ignore (Cache.get c2 ~ns:"t" "deadbeef");
  check_int "promoted to mem" 1 (Cache.snapshot c2).Cache.sn_mem_hits

let test_cache_eviction () =
  with_temp_dir @@ fun dir ->
  (* budget fits ~3 of the 1KB payloads; write 8 with strictly increasing
     mtimes and the survivors must be the newest *)
  let c = Cache.create ~dir ~disk_budget_bytes:3500 () in
  let payload = String.make 1000 'x' in
  for i = 0 to 7 do
    Cache.put c ~ns:"t" (Printf.sprintf "key%d" i) payload;
    let path = Filename.concat dir (Printf.sprintf "t-key%d" i) in
    let mtime = 1.0e9 +. (100.0 *. float_of_int i) in
    Unix.utimes path mtime mtime
  done;
  Cache.enforce_disk_budget c;
  let s = Cache.snapshot c in
  check_bool "evictions happened" true (s.Cache.sn_evictions > 0);
  check_bool "disk is within budget" true (s.Cache.sn_disk_bytes <= 3500);
  Cache.mem_clear c;
  check_bool "newest entry survives" true
    (Cache.get c ~ns:"t" "key7" = Some payload);
  check_bool "oldest entry was evicted" true (Cache.get c ~ns:"t" "key0" = None)

let test_cache_concurrent () =
  (* hammer one shared cache from 4 domains with overlapping keys: no
     crash, no torn value, and every key ends up readable with the right
     content (puts of the same key always carry the same value —
     content-addressed, like real use) *)
  with_temp_dir @@ fun dir ->
  let c = Cache.create ~dir () in
  let results =
    Pool.map ~jobs:4
      (fun i ->
        let key = Printf.sprintf "key%d" (i mod 8) in
        let value = String.make (100 + (i mod 8)) (Char.chr (65 + (i mod 8))) in
        (match Cache.get c ~ns:"race" key with
        | Some v when v <> value -> failwith "torn read"
        | _ -> ());
        Cache.put c ~ns:"race" key value;
        Cache.get c ~ns:"race" key = Some value)
      (Array.init 64 Fun.id)
  in
  check_bool "every domain read back its write" true
    (Array.for_all Fun.id results);
  for i = 0 to 7 do
    let expect = String.make (100 + i) (Char.chr (65 + i)) in
    check_bool
      (Printf.sprintf "key%d has untorn content" i)
      true
      (Cache.get c ~ns:"race" (Printf.sprintf "key%d" i) = Some expect)
  done

(* ---------------- per-routine dirty invalidation ---------------- *)

let test_dirty_invalidation () =
  let exe = gen_exe ~seed:23 ~routines:10 () in
  let cache = Cache.create () in
  Analysis.install cache;
  Fun.protect ~finally:Analysis.uninstall @@ fun () ->
  let open_all e =
    let t = E.read_contents mach e in
    ignore (E.jump_stats t);
    t
  in
  let t1 = open_all exe in
  let s1 = Cache.snapshot cache in
  check_bool "first open stores artifacts" true (s1.Cache.sn_stores > 0);
  (* clean re-open: everything hits, nothing misses or stores *)
  ignore (open_all (copy_exe exe));
  let s2 = Cache.snapshot cache in
  check_int "clean re-open misses nothing"
    s1.Cache.sn_misses s2.Cache.sn_misses;
  check_int "clean re-open stores nothing"
    s1.Cache.sn_stores s2.Cache.sn_stores;
  let lookups_per_open = Cache.hits s2 - Cache.hits s1 in
  check_bool "clean re-open hits every routine" true
    (lookups_per_open >= List.length (E.routines t1));
  (* patch ONE routine's body (a mid-routine add -> nop): on re-open only
     that routine's digest changes, so exactly one lookup misses *)
  let patched = copy_exe exe in
  let victim = List.nth (E.routines t1) 2 in
  let text = List.hd (Sef.text_sections patched) in
  Eel_util.Bytebuf.set32_be text.Sef.contents
    (victim.E.r_lo + 8 - text.Sef.vaddr)
    0x01000000;
  ignore (open_all patched);
  let s3 = Cache.snapshot cache in
  check_int "patched open misses exactly the dirty routine"
    (s2.Cache.sn_misses + 1) s3.Cache.sn_misses;
  check_int "patched open re-stores exactly the dirty routine"
    (s2.Cache.sn_stores + 1) s3.Cache.sn_stores;
  check_int "clean routines all hit"
    (lookups_per_open - 1)
    (Cache.hits s3 - Cache.hits s2)

(* A cached dispatch table is only trusted if the table words in memory
   still decode to the recorded targets: patch the table contents (which
   live in .data, outside the routine digest) and the hit must demote to a
   fresh analysis, keeping the CFG consistent with current memory. *)
let table_targets t =
  List.concat_map
    (fun r ->
      match r.E.r_cfg with
      | None -> []
      | Some g ->
          List.filter_map
            (fun b ->
              match b.C.term with
              | C.T_jump { addr; table = Some tbl; _ } ->
                  Some (addr, Array.to_list tbl.C.t_targets)
              | _ -> None)
            (C.blocks g))
    (E.routines t)

let test_table_revalidation () =
  (* gcc-small's switches all resolve through the slicing fixpoint, so the
     cached facts carry real table addresses to invalidate (the hand-written
     jump-table program exercises the run-time translation fallback instead) *)
  let src = List.assoc "gcc-small" Corpus.sources in
  let exe = assemble src in
  let cache = Cache.create () in
  Analysis.install cache;
  Fun.protect ~finally:Analysis.uninstall @@ fun () ->
  let t1 = E.read_contents mach exe in
  ignore (E.jump_stats t1);
  check_bool "analysis cached some artifacts" true
    ((Cache.snapshot cache).Cache.sn_stores > 0);
  check_bool "slicing resolved at least one dispatch table" true
    (table_targets t1 <> []);
  let patched = copy_exe exe in
  let data =
    List.find
      (fun (s : Sef.section) -> s.Sef.sec_name = ".data")
      patched.Sef.sections
  in
  let tbl_off = ref None in
  (* find the first word in .data that points into text: that's a table
     slot for this corpus program *)
  let text = List.hd (Sef.text_sections patched) in
  (try
     for i = 0 to (data.Sef.size / 4) - 1 do
       let w = Eel_util.Bytebuf.get32_be data.Sef.contents (4 * i) in
       if w >= text.Sef.vaddr && w < text.Sef.vaddr + text.Sef.size then (
         tbl_off := Some (4 * i);
         raise Exit)
     done
   with Exit -> ());
  match !tbl_off with
  | None -> Alcotest.fail "no dispatch table found in .data"
  | Some off ->
      (* retarget the first slot onto the third: the target SET changes,
         so the cached facts are genuinely stale, not just permuted *)
      let c = Eel_util.Bytebuf.get32_be data.Sef.contents (off + 8) in
      Eel_util.Bytebuf.set32_be data.Sef.contents off c;
      let t2 = E.read_contents mach patched in
      ignore (E.jump_stats t2);
      (* ground truth: the same patched image analyzed with no cache *)
      Analysis.uninstall ();
      let t3 = E.read_contents mach (copy_exe patched) in
      ignore (E.jump_stats t3);
      check_bool "revalidated analysis equals uncached ground truth" true
        (table_targets t2 = table_targets t3);
      check_bool "patched table differs from the original analysis" true
        (table_targets t2 <> table_targets t1)

(* ---------------- the service engine ---------------- *)

let full_corpus_jobs () =
  List.concat_map
    (fun (prog, _) ->
      List.map
        (fun tool ->
          {
            Proto.j_id = Printf.sprintf "%s-%s" tool prog;
            j_tool = tool;
            j_src = Proto.S_corpus prog;
            j_fuel = None;
            j_sfi_base = None;
            j_sfi_size = None;
          })
        Toolbox.names)
    Corpus.sources

let edited r =
  match r.Serve.sr_outcome with
  | Ok o -> o.Serve.o_edited
  | Error m -> failwith (r.Serve.sr_id ^ ": " ^ m)

(* The acceptance-bar test: across the full corpus x all 6 tools, the
   cache-hit edited image is byte-identical to the cache-miss image, and
   both match a direct (cacheless) Toolbox.measure. *)
let test_corpus_byte_identity () =
  let jobs = full_corpus_jobs () in
  let cache = Cache.create () in
  let cfg = Serve.default_config cache in
  let cold = Serve.run_batch ~jobs:1 cfg jobs in
  let warm = Serve.run_batch ~jobs:1 cfg jobs in
  check_int "every cold job equivalent" (List.length jobs)
    (List.length (List.filter Serve.ok cold));
  check_bool "no cold job served from cache" true
    (not (List.exists Serve.cached cold));
  check_bool "every warm job served from cache" true
    (List.for_all Serve.cached warm);
  List.iter2
    (fun c w ->
      if edited c <> edited w then
        Alcotest.fail (c.Serve.sr_id ^ ": cache hit diverged from miss"))
    cold warm;
  (* spot-check against the one-door API with no service in the way *)
  List.iter
    (fun (r : Serve.result) ->
      if r.sr_tool = "qpt2" || r.sr_tool = "sfi" then
        match
          Toolbox.measure ~prog:r.sr_prog r.sr_tool mach
            (List.assoc r.sr_prog (Corpus.all ()))
        with
        | Error e -> Alcotest.fail (Eel_robust.Diag.error_message e)
        | Ok ms ->
            check_str
              (r.Serve.sr_id ^ ": served image == direct measure")
              (Digest.string (Sef.to_string ms.Toolbox.ms_applied.Toolbox.ap_edited))
              (Digest.string (edited r)))
      cold;
  (* the generated mixed jobs, warm through a fresh directory-backed
     cache, as a restarted daemon sees it: every hit crosses the disk *)
  with_temp_dir @@ fun dir ->
  let mixed = Serve.mixed_jobs ~count:100 ~seed:42 in
  let run () = Serve.run_batch ~jobs:1 (Serve.default_config (Cache.create ~dir ())) mixed in
  let cold = run () in
  let warm = run () in
  check_int "every mixed job equivalent" 100 (List.length (List.filter Serve.ok cold));
  check_bool "a restarted daemon serves every job from disk" true
    (List.for_all Serve.cached warm);
  List.iter2
    (fun c w ->
      if edited c <> edited w then
        Alcotest.fail (c.Serve.sr_id ^ ": disk hit diverged from miss"))
    cold warm

(* Same bar for the analysis cache alone: with the result cache off, warm
   jobs really re-instrument and re-verify, but their CFGs build from
   cached table facts — the output must still be byte-identical. *)
let test_analysis_seeded_identity () =
  let jobs =
    List.filter
      (fun j -> j.Proto.j_tool = "qpt2" || j.Proto.j_tool = "amemory")
      (full_corpus_jobs ())
  in
  let cache = Cache.create () in
  let cfg = { (Serve.default_config cache) with Serve.c_use_result = false } in
  let cold = Serve.run_batch ~jobs:1 cfg jobs in
  check_bool "analysis facts were stored" true
    ((Cache.snapshot cache).Cache.sn_stores > 0);
  let warm = Serve.run_batch ~jobs:1 cfg jobs in
  check_bool "warm run hit the analysis cache" true
    ((Cache.snapshot cache).Cache.sn_mem_hits > 0);
  check_bool "result cache stayed out of it" true
    (not (List.exists Serve.cached warm));
  List.iter2
    (fun c w ->
      if edited c <> edited w then
        Alcotest.fail
          (c.Serve.sr_id ^ ": seeded-analysis image diverged from scratch"))
    cold warm

let test_concurrent_service_races () =
  (* same shared cache, 4 domains, jobs that collide on both cache
     namespaces: half the batch is the same (tool, program) repeated, so
     domains race result-cache puts and analysis lookups; results must be
     identical to the serial run *)
  let repeat = List.init 8 (fun i ->
      {
        Proto.j_id = Printf.sprintf "r%d" i;
        j_tool = "qpt2";
        j_src = Proto.S_corpus "fib";
        j_fuel = None;
        j_sfi_base = None;
        j_sfi_size = None;
      })
  in
  let mixed = Serve.mixed_jobs ~count:8 ~seed:5 in
  let batch = repeat @ mixed in
  let run jobs_n =
    let cache = Cache.create () in
    Serve.run_batch ~jobs:jobs_n (Serve.default_config cache) batch
  in
  let serial = run 1 in
  let parallel = run 4 in
  check_int "parallel run count" (List.length serial) (List.length parallel);
  List.iter2
    (fun a b ->
      check_str (a.Serve.sr_id ^ ": parallel == serial image")
        (Digest.string (edited a))
        (Digest.string (edited b)))
    serial parallel

let test_result_cache_robustness () =
  (* garbage under the job key must behave as a miss, not an answer *)
  let cache = Cache.create () in
  let cfg = Serve.default_config cache in
  let job =
    {
      Proto.j_id = "j0";
      j_tool = "qpt2";
      j_src = Proto.S_corpus "countdown";
      j_fuel = None;
      j_sfi_base = None;
      j_sfi_size = None;
    }
  in
  let exe =
    match Serve.resolve job with Ok (e, _) -> e | Error m -> failwith m
  in
  let key = Serve.job_key cfg job (Sef.to_string exe) in
  Cache.put cache ~ns:"job" key "corrupt garbage";
  let r = List.hd (Serve.run_batch ~jobs:1 cfg [ job ]) in
  check_bool "corrupt entry is a miss" true (not (Serve.cached r));
  check_bool "job still verifies" true (Serve.ok r)

let test_outcome_codec () =
  (* all 13 counts — o_masked and the entry's twelve — are distinct, so a
     swapped pair in the wire order would show *)
  let entry =
    {
      Eel_obs.Ledger.le_tool = "qpt2";
      le_prog = "fib";
      le_verdict = "equivalent";
      le_sites = 1;
      le_bytes_orig = 2;
      le_bytes_edited = 3;
      le_routines_touched = 4;
      le_insns_orig = 5;
      le_insns_edited = 6;
      le_mem_orig = 7;
      le_mem_edited = 8;
      le_stores_masked = 9;
      le_traps_masked = 10;
      le_sys_masked = 11;
      le_unexplained = 12;
    }
  in
  let o =
    {
      Serve.o_verdict = "equivalent";
      o_masked = 13;
      o_result_hit = true;
      o_edited = "\x00edited\xff";
      o_entry = entry;
    }
  in
  let decode = Serve.decode_outcome ~tool:"qpt2" ~prog:"fib" in
  let blob = Serve.encode_outcome o in
  check_bool "decode (encode o) = o" true (decode blob = Some o);
  Alcotest.(check (list int))
    "no proper prefix decodes" []
    (List.filter
       (fun n -> decode (String.sub blob 0 n) <> None)
       (List.init (String.length blob) Fun.id));
  (* le_unexplained is a signed difference: a negative one survives *)
  let o = { o with Serve.o_entry = { entry with le_unexplained = -1 } } in
  check_bool "negative unexplained round-trips" true
    (decode (Serve.encode_outcome o) = Some o)

(* ---------------- protocol ---------------- *)

let test_proto_parse () =
  let ok line =
    match Proto.job_of_line ~seq:1 line with
    | Ok j -> j
    | Error m -> failwith (line ^ ": " ^ m)
  in
  let err line =
    match Proto.job_of_line ~seq:1 line with
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
    | Error m -> m
  in
  let j = ok {|{"id": "a", "tool": "qpt2", "corpus": "fib"}|} in
  check_str "id" "a" j.Proto.j_id;
  check_bool "src" true (j.Proto.j_src = Proto.S_corpus "fib");
  let j = ok {|{"tool": "sfi", "gen": {"seed": 3, "routines": 5}, "fuel": 99}|} in
  check_str "default id from seq" "job-1" j.Proto.j_id;
  check_bool "gen defaults" true
    (j.Proto.j_src = Proto.S_gen { seed = 3; routines = 5; style = "gcc" });
  check_bool "fuel" true (j.Proto.j_fuel = Some 99);
  ignore (err "not json at all");
  ignore (err {|{"corpus": "fib"}|});
  ignore (err {|{"tool": "nope", "corpus": "fib"}|});
  ignore (err {|{"tool": "qpt2"}|});
  ignore (err {|{"tool": "qpt2", "corpus": "fib", "file": "x.sef"}|});
  ignore (err {|{"tool": "qpt2", "sef_hex": "abc"}|});
  ignore (err {|{"tool": "qpt2", "gen": {"style": "msvc"}}|});
  (* integers a double does not hold exactly, and fuel that runs nothing *)
  check_bool "2^53 accepted" true
    ((ok {|{"tool": "qpt2", "corpus": "fib", "fuel": 9007199254740992}|}).Proto.j_fuel
    = Some (1 lsl 53));
  List.iter
    (fun line -> ignore (err line))
    [
      {|{"tool": "qpt2", "corpus": "fib", "fuel": 1e300}|};
      {|{"tool": "qpt2", "corpus": "fib", "fuel": 9007199254740994}|};
      {|{"tool": "sfi", "corpus": "fib", "sfi_base": -1e300}|};
      {|{"tool": "qpt2", "corpus": "fib", "fuel": 0}|};
      {|{"tool": "qpt2", "corpus": "fib", "fuel": -5}|};
    ]

let fib_job ?sfi_base ?sfi_size id tool =
  {
    Proto.j_id = id;
    j_tool = tool;
    j_src = Proto.S_corpus "fib";
    j_fuel = None;
    j_sfi_base = sfi_base;
    j_sfi_size = sfi_size;
  }

(* A bad SFI segment is that job's error; the rest of the batch runs. *)
let test_bad_sfi_segment () =
  let batch =
    [
      fib_job "good" "qpt2";
      fib_job ~sfi_size:3 "size-3" "sfi";
      fib_job ~sfi_size:0 "size-0" "sfi";
      fib_job ~sfi_base:4 ~sfi_size:4096 "misaligned" "sfi";
      fib_job ~sfi_base:(-4096) ~sfi_size:4096 "negative" "sfi";
    ]
  in
  match Serve.run_batch ~jobs:1 (Serve.default_config (Cache.create ())) batch with
  | good :: bad ->
      check_bool "the good job is equivalent" true (Serve.ok good);
      List.iter
        (fun r -> check_bool (r.Serve.sr_id ^ " is an error") true (Result.is_error r.Serve.sr_outcome))
        bad
  | [] -> Alcotest.fail "no results"

(* The daemon answers every line of a stream holding bad jobs, in input
   order, and exits 1 without a backtrace. *)
let test_serve_bad_lines () =
  with_temp_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "jobs.jsonl") (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [
          {|{"id": "good", "tool": "qpt2", "corpus": "fib"}|};
          {|{"id": "fuel", "tool": "qpt2", "corpus": "fib", "fuel": 1e300}|};
          {|{"id": "bad", "tool": "sfi", "corpus": "fib", "sfi_size": 3}|};
        ]);
  let serve = Filename.concat (Filename.dirname Sys.executable_name) "../bin/eel_serve.exe" in
  let rc =
    Sys.command
      (Printf.sprintf "%s < %s > %s 2> %s" (Filename.quote serve)
         (Filename.quote (path "jobs.jsonl"))
         (Filename.quote (path "out"))
         (Filename.quote (path "err")))
  in
  let read name = In_channel.with_open_bin (path name) In_channel.input_all in
  check_int "exit 1" 1 rc;
  let ids =
    List.map
      (fun l ->
        match Result.map (fun j -> (Json.member "id" j, Json.member "ok" j)) (Json.parse l) with
        | Ok (Some (Json.Str id), Some (Json.Bool ok)) -> (id, ok)
        | _ -> Alcotest.failf "not a response: %s" l)
      (String.split_on_char '\n' (String.trim (read "out")))
  in
  Alcotest.(check (list (pair string bool)))
    "one response per line, in input order"
    [ ("good", true); ("job-2", false); ("bad", false) ]
    ids;
  let err = read "err" in
  check_bool "no backtrace" false
    (List.exists
       (fun l -> String.starts_with ~prefix:"Raised" l || String.starts_with ~prefix:"Fatal" l)
       (String.split_on_char '\n' err))

(* The result key holds fuel and the SFI segment at full width: values
   that differ by a multiple of 2^32 must not share a cache entry. *)
let test_wide_key_fields () =
  let cfg = Serve.default_config (Cache.create ()) in
  let image = Sef.to_string (assemble (List.assoc "fib" Corpus.sources)) in
  let key ?fuel ?sfi_base ?sfi_size () =
    Serve.job_key cfg { (fib_job ?sfi_base ?sfi_size "k" "sfi") with Proto.j_fuel = fuel } image
  in
  let apart what a b = check_bool (what ^ " key apart") true (a <> b) in
  apart "fuel 100000 and 4295067296" (key ~fuel:100000 ()) (key ~fuel:4295067296 ());
  apart "sfi_size 2^32 and 2^33" (key ~sfi_size:(1 lsl 32) ()) (key ~sfi_size:(1 lsl 33) ());
  apart "sfi_base 0 and 2^32" (key ~sfi_base:0 ()) (key ~sfi_base:(1 lsl 32) ());
  with_temp_dir @@ fun dir ->
  let jobs = Filename.concat dir "jobs.jsonl" and out = Filename.concat dir "out" in
  Out_channel.with_open_bin jobs (fun oc ->
      output_string oc
        {|{"tool":"qpt2","corpus":"fib","fuel":100000}
{"tool":"qpt2","corpus":"fib","fuel":4295067296}
|});
  let serve = Filename.concat (Filename.dirname Sys.executable_name) "../bin/eel_serve.exe" in
  check_int "exit 0" 0
    (Sys.command
       (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote serve) (Filename.quote jobs)
          (Filename.quote out)));
  Alcotest.(check (list (option bool)))
    "the second job is computed, not served from the first's entry" [ Some false; Some false ]
    (List.map
       (fun l ->
         match Json.parse l with
         | Ok j -> ( match Json.member "cached" j with Some (Json.Bool b) -> Some b | _ -> None)
         | Error m -> Alcotest.failf "not a response: %s (%s)" l m)
       (String.split_on_char '\n'
          (String.trim (In_channel.with_open_bin out In_channel.input_all))))

let test_proto_roundtrip () =
  List.iter
    (fun j ->
      match Proto.job_of_line ~seq:9 (Proto.job_to_line j) with
      | Ok j' -> check_bool "job_to_line round-trips" true (j = j')
      | Error m -> Alcotest.fail m)
    (Serve.mixed_jobs ~count:25 ~seed:3
    @ [
        {
          Proto.j_id = "inline";
          j_tool = "tracer";
          j_src = Proto.S_inline "raw \x00\xffbytes";
          j_fuel = Some 5;
          j_sfi_base = Some 64;
          j_sfi_size = Some 4096;
        };
      ]);
  (* hex codec corners *)
  check_bool "hex round-trip" true
    (Proto.hex_decode (Proto.hex_encode "\x00\x01\xfe\xff") = Ok "\x00\x01\xfe\xff");
  check_bool "odd-length hex rejected" true
    (Result.is_error (Proto.hex_decode "abc"));
  check_bool "bad digit rejected" true (Result.is_error (Proto.hex_decode "zz"))

let () =
  Alcotest.run "serve"
    [
      ( "digests",
        [
          Alcotest.test_case "stability" `Quick test_digest_stability;
          Alcotest.test_case "sensitivity" `Quick test_digest_sensitivity;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "codec" `Quick test_analysis_codec;
          Alcotest.test_case "dirty invalidation" `Quick test_dirty_invalidation;
          Alcotest.test_case "table revalidation" `Quick test_table_revalidation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "mem roundtrip" `Quick test_cache_mem_roundtrip;
          Alcotest.test_case "disk durability" `Quick test_cache_disk_durability;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "concurrent races" `Quick test_cache_concurrent;
        ] );
      ( "service",
        [
          Alcotest.test_case "corpus byte identity" `Slow test_corpus_byte_identity;
          Alcotest.test_case "seeded-analysis identity" `Slow test_analysis_seeded_identity;
          Alcotest.test_case "concurrent service races" `Slow test_concurrent_service_races;
          Alcotest.test_case "result-cache robustness" `Quick test_result_cache_robustness;
          Alcotest.test_case "outcome codec" `Quick test_outcome_codec;
          Alcotest.test_case "wide key fields" `Quick test_wide_key_fields;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_proto_parse;
          Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "bad SFI segment" `Quick test_bad_sfi_segment;
          Alcotest.test_case "eel_serve answers bad lines" `Quick test_serve_bad_lines;
        ] );
    ]
