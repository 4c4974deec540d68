(** Instrumentation-overhead ledger.

    One {!entry} per (tool, program) pair records what an instrumented edit
    cost, split the way the paper's qpt overhead tables are: static cost
    (bytes added to the image, routines whose edited form grew) and dynamic
    cost (extra instructions, extra memory operations, extra traps) — all
    cross-checked against the differential oracle's masked-event accounting
    so overhead is *explained*, not just observed ([le_unexplained] must be
    zero for an equivalent run).

    An entry is a plain value: whoever measures it keeps it (a driver's
    pool results, a cache blob). {!record} only publishes it as additive
    [eel.ledger.<tool>.*] counters in {!Metrics}, the per-tool sweep
    totals. *)

type entry = {
  le_tool : string;
  le_prog : string;
  le_verdict : string;  (** "equivalent", "diverged", ... *)
  le_sites : int;  (** instrumentation sites placed *)
  le_bytes_orig : int;  (** original image bytes (text + data) *)
  le_bytes_edited : int;
  le_routines_touched : int;  (** routines whose edited body grew *)
  le_insns_orig : int;  (** dynamic instructions, original run *)
  le_insns_edited : int;
  le_mem_orig : int;  (** dynamic loads + stores, original run *)
  le_mem_edited : int;
  le_stores_masked : int;  (** store events masked by the contract *)
  le_traps_masked : int;  (** trap events masked by the contract *)
  le_sys_masked : int;
      (** OS syscall events masked by the contract: extra instrumentation
          calls plus declared suppressions (both the edited run's denial
          returns and the original run's suppressed calls) *)
  le_unexplained : int;
      (** extra store instructions the contract did not account for:
          (edited - original store insns) - masked stores; 0 when every
          byte of dynamic store overhead is declared *)
}

let bytes_added e = e.le_bytes_edited - e.le_bytes_orig
let extra_insns e = e.le_insns_edited - e.le_insns_orig
let extra_mem e = e.le_mem_edited - e.le_mem_orig
let masked e = e.le_stores_masked + e.le_traps_masked + e.le_sys_masked

(** Dynamic expansion factor ([edited / original] instructions). *)
let expansion e =
  if e.le_insns_orig = 0 then 1.0
  else float_of_int e.le_insns_edited /. float_of_int e.le_insns_orig

(** Publish [e] as the additive per-tool counters [eel.ledger.<tool>.*]. *)
let record e =
  let c name v =
    if v <> 0 then
      Metrics.incr ~by:v
        (Metrics.counter (Printf.sprintf "eel.ledger.%s.%s" e.le_tool name))
  in
  c "programs" 1;
  c "sites" e.le_sites;
  c "bytes_added" (bytes_added e);
  c "extra_insns" (extra_insns e);
  c "extra_mem" (extra_mem e);
  c "extra_traps" e.le_traps_masked;
  c "sys_masked" e.le_sys_masked;
  c "masked_events" (masked e);
  c "unexplained" e.le_unexplained

(** {1 Binary codec}

    The entry's counts as 32-bit words, in the one fixed order that cached
    entries are stored in; tool, program and verdict travel beside them. *)

let write_counts buf e =
  List.iter
    (Eel_util.Bytebuf.w32 buf)
    [
      e.le_sites;
      e.le_bytes_orig;
      e.le_bytes_edited;
      e.le_routines_touched;
      e.le_insns_orig;
      e.le_insns_edited;
      e.le_mem_orig;
      e.le_mem_edited;
      e.le_stores_masked;
      e.le_traps_masked;
      e.le_sys_masked;
      e.le_unexplained;
    ]

(** Read back what {!write_counts} wrote; raises
    {!Eel_util.Bytebuf.Truncated} on a short buffer. *)
let read_counts r ~tool ~prog ~verdict =
  let n () = Eel_util.Bytebuf.r32 r in
  let le_sites = n () in
  let le_bytes_orig = n () in
  let le_bytes_edited = n () in
  let le_routines_touched = n () in
  let le_insns_orig = n () in
  let le_insns_edited = n () in
  let le_mem_orig = n () in
  let le_mem_edited = n () in
  let le_stores_masked = n () in
  let le_traps_masked = n () in
  let le_sys_masked = n () in
  (* the one signed count: a difference, so sign-extend its 32 bits *)
  let le_unexplained = Eel_util.Word.sext 32 (n ()) in
  {
    le_tool = tool;
    le_prog = prog;
    le_verdict = verdict;
    le_sites;
    le_bytes_orig;
    le_bytes_edited;
    le_routines_touched;
    le_insns_orig;
    le_insns_edited;
    le_mem_orig;
    le_mem_edited;
    le_stores_masked;
    le_traps_masked;
    le_sys_masked;
    le_unexplained;
  }

(** {1 Rendering} *)

let entry_to_json e =
  Printf.sprintf
    "{\"tool\": \"%s\", \"prog\": \"%s\", \"verdict\": \"%s\", \"sites\": \
     %d, \"bytes_orig\": %d, \"bytes_edited\": %d, \"bytes_added\": %d, \
     \"routines_touched\": %d, \"insns_orig\": %d, \"insns_edited\": %d, \
     \"expansion\": %.3f, \"mem_orig\": %d, \"mem_edited\": %d, \
     \"extra_mem\": %d, \"stores_masked\": %d, \"traps_masked\": %d, \
     \"sys_masked\": %d, \"unexplained\": %d}"
    (Json.escape e.le_tool) (Json.escape e.le_prog) (Json.escape e.le_verdict)
    e.le_sites e.le_bytes_orig
    e.le_bytes_edited (bytes_added e) e.le_routines_touched e.le_insns_orig
    e.le_insns_edited (expansion e) e.le_mem_orig e.le_mem_edited
    (extra_mem e) e.le_stores_masked e.le_traps_masked e.le_sys_masked
    e.le_unexplained

let to_json es =
  "[" ^ String.concat ",\n " (List.map entry_to_json es) ^ "]"

type tool_row = {
  tr_tool : string;
  tr_programs : int;
  tr_sites : int;
  tr_bytes_added : int;
  tr_size_growth : float;  (** Σ edited bytes / Σ original bytes *)
  tr_expansion : float;  (** Σ edited insns / Σ original insns *)
  tr_extra_mem : int;
  tr_extra_traps : int;
  tr_masked : int;
  tr_unexplained : int;
}

(** Aggregate entries into one row per tool. [order] fixes row order
    (tools absent from it sort after, alphabetically). *)
let tool_rows ?(order = []) es =
  let tools =
    List.fold_left
      (fun acc e -> if List.mem e.le_tool acc then acc else e.le_tool :: acc)
      [] es
    |> List.sort (fun a b ->
           let rank t =
             let rec idx i = function
               | [] -> max_int
               | x :: _ when x = t -> i
               | _ :: tl -> idx (i + 1) tl
             in
             idx 0 order
           in
           match compare (rank a) (rank b) with
           | 0 -> compare a b
           | c -> c)
  in
  List.map
    (fun tool ->
      let es = List.filter (fun e -> e.le_tool = tool) es in
      let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
      let ratio num den =
        let d = sum den in
        if d = 0 then 1.0 else float_of_int (sum num) /. float_of_int d
      in
      {
        tr_tool = tool;
        tr_programs = List.length es;
        tr_sites = sum (fun e -> e.le_sites);
        tr_bytes_added = sum bytes_added;
        tr_size_growth =
          ratio (fun e -> e.le_bytes_edited) (fun e -> e.le_bytes_orig);
        tr_expansion =
          ratio (fun e -> e.le_insns_edited) (fun e -> e.le_insns_orig);
        tr_extra_mem = sum extra_mem;
        tr_extra_traps = sum (fun e -> e.le_traps_masked);
        tr_masked = sum masked;
        tr_unexplained = sum (fun e -> e.le_unexplained);
      })
    tools

(** The per-tool overhead table, in the spirit of the paper's Tables 3-5:
    static size growth and dynamic instruction expansion per tool. *)
let pp_tool_table ppf ?order es =
  let rows = tool_rows ?order es in
  Format.fprintf ppf
    "%-8s %5s %6s %10s %7s %7s %10s %7s %8s %6s@\n" "tool" "progs" "sites"
    "bytes+" "size x" "insns x" "mem+" "traps+" "masked" "unexpl";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8s %5d %6d %10d %7.3f %7.3f %10d %7d %8d %6d@\n"
        r.tr_tool r.tr_programs r.tr_sites r.tr_bytes_added r.tr_size_growth
        r.tr_expansion r.tr_extra_mem r.tr_extra_traps r.tr_masked
        r.tr_unexplained)
    rows
