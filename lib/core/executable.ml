(** Executables and routines (paper §3.1, §3.2) — EEL's top-level
    abstraction.

    "A tool opens an executable, examines and modifies its contents, and
    writes an edited version."

    The heart of this module is {e symbol-table refinement}: executable
    symbol tables are "typically incomplete or misleading", so EEL analyzes
    the program to find data tables, hidden routines, and multiple entry
    points (§3.1):

    + discard duplicate, temporary and debugging labels, labels not on an
      instruction boundary, and labels that are branch targets from the
      preceding routine (internal labels);
    + for stripped executables, seed routines with the program entry point,
      the first text address, and the targets of direct calls;
    + make the destinations of calls and out-of-routine jumps additional
      entry points of the routines containing them;
    + during CFG construction, classify reachable-but-invalid instructions
      as data, and unreachable trailing code as {e hidden routines}, which
      are queued on {!hidden_routines} for the tool to process (and whose
      analysis may add entry points to existing routines).

    Editing output model: the original sections are kept at their original
    addresses (so every address constant into data — including data tables
    in the text segment — stays valid), and edited code is placed in new
    high-address sections. Dispatch tables are rewritten in place to point
    at edited code; indirect calls and unanalyzable indirect jumps go
    through a run-time translation table mapping original instruction
    addresses to edited ones. [edited_addr] exposes the mapping, as in
    paper Fig. 1. *)

open Eel_arch
module Sef = Eel_sef.Sef
module C = Cfg
module Diag = Eel_robust.Diag

(** Historical alias: executable-level failures are now {!Diag.Error} values
    carrying {!Diag.Exe_error}; kept so old match arms keep compiling. *)
exception Exe_error of string

let err fmt = Diag.exe_error fmt

type routine = {
  r_name : string;
  r_lo : int;
  mutable r_hi : int;
  mutable r_entries : int list;  (** entry addresses; [r_lo] is always one *)
  mutable r_cfg : C.t option;
  mutable r_editor : Edit.editor option;
  mutable r_edited : Edit.edited option;
  r_hidden : bool;  (** discovered by analysis rather than the symbol table *)
}

type t = {
  exe : Sef.t;
  mach : Machine.t;
  cache : Instr_cache.t;
  text_lo : int;
  text_hi : int;
  mutable routines : routine list;  (** sorted by [r_lo] *)
  mutable hidden : routine list;  (** discovery queue (paper Fig. 1) *)
  (* new-region allocation *)
  xlat_base : int;
  data_base : int;
  mutable data_cursor : int;
  code_base : int;
  mutable code_cursor : int;
  mutable added_data : (int * bytes) list;
  mutable added_routines : (string * int * int array) list;
  (* editing policy knobs (ablations) *)
  mutable fold_delay : bool;
  mutable max_span : int option;
  mutable slicing : bool;  (** dispatch-table slicing enabled *)
  (* finalized layout *)
  mutable addr_map : (int, int) Hashtbl.t option;
  mutable placed : (routine * Edit.edited * int) list;
  mutable new_text_base : int;
  mutable new_text_size : int;
  (* robustness plumbing *)
  diag : Diag.sink option;  (** degradation diagnostics accumulate here *)
  work : Diag.budget;  (** decode/analysis work bound (anti-non-termination) *)
}

let data_region_size = 4 * 1024 * 1024

(** {1 Opening} *)

let text_section exe =
  match Sef.text_sections exe with
  | [ s ] -> s
  | [] -> err "executable has no text section"
  | _ -> err "multiple text sections are not supported"

let read_contents_inner ?(cache_instrs = true) ?diag ?budget (mach : Machine.t)
    (exe : Sef.t) =
  let text = text_section exe in
  let text_lo = text.Sef.vaddr and text_hi = text.Sef.vaddr + text.Sef.size in
  if text_lo land 3 <> 0 then
    Diag.fail
      (Diag.Sef_error
         {
           what = Printf.sprintf "text section base 0x%x is misaligned" text_lo;
           loc = Diag.at_addr text_lo;
         });
  let work =
    match budget with
    | Some b -> b
    | None -> Diag.budget ~stage:"analysis" Diag.default_budget_units
  in
  let high = Sef.high_addr exe in
  let align64k a = (a + 0xFFFF) land lnot 0xFFFF in
  let xlat_base = align64k high in
  let data_base = align64k (xlat_base + (text_hi - text_lo)) in
  let code_base = data_base + data_region_size in
  let cache = Instr_cache.create ~enabled:cache_instrs mach in
  let t =
    {
      exe;
      mach;
      cache;
      text_lo;
      text_hi;
      routines = [];
      hidden = [];
      xlat_base;
      data_base;
      data_cursor = data_base;
      code_base;
      code_cursor = code_base;
      added_data = [];
      added_routines = [];
      fold_delay = true;
      max_span = None;
      slicing = true;
      addr_map = None;
      placed = [];
      new_text_base = 0;
      new_text_size = 0;
      diag;
      work;
    }
  in
  Diag.spend work (((text_hi - text_lo) / 4) + 1);
  (* ---- one linear scan of the text segment for control transfers ---- *)
  let call_targets = Hashtbl.create 64 in
  let branch_pairs = ref [] in
  let lift = Instr_cache.lifter cache in
  let a = ref text_lo in
  while !a < text_hi do
    (match Sef.fetch32 exe !a with
    | None -> ()
    | Some w -> (
        let i = lift w in
        match (i.Instr.cat, Instr.abs_target ~pc:!a i) with
        | Instr.Call, Some tgt ->
            if tgt >= text_lo && tgt < text_hi then
              Hashtbl.replace call_targets tgt ()
        | Instr.Branch, Some tgt ->
            if tgt >= text_lo && tgt < text_hi then
              branch_pairs := (!a, tgt) :: !branch_pairs
        | _ -> ()));
    a := !a + 4
  done;
  let branch_targets = Hashtbl.create 64 in
  List.iter (fun (_, tgt) -> Hashtbl.replace branch_targets tgt ()) !branch_pairs;
  (* ---- stage 1: filter the symbol table ---- *)
  let text_syms =
    List.filter
      (fun (s : Sef.symbol) -> s.Sef.value >= text_lo && s.Sef.value < text_hi)
      exe.Sef.symbols
  in
  let stage1 =
    text_syms
    |> List.filter (fun (s : Sef.symbol) ->
           (* temporary and debugging labels *)
           s.Sef.kind <> Sef.Debug && s.Sef.kind <> Sef.Label
           (* not aligned on an instruction boundary *)
           && s.Sef.value land 3 = 0)
    |> List.sort (fun (a : Sef.symbol) b -> compare a.Sef.value b.Sef.value)
  in
  (* drop duplicates (same address) *)
  let stage1 =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (s : Sef.symbol) ->
        if Hashtbl.mem seen s.Sef.value then false
        else (
          Hashtbl.add seen s.Sef.value ();
          true))
      stage1
  in
  (* drop labels branched to from the preceding routine and never called:
     probably internal labels *)
  let rec drop_internal acc prev_start = function
    | [] -> List.rev acc
    | (s : Sef.symbol) :: rest ->
        let internal =
          Hashtbl.mem branch_targets s.Sef.value
          && (not (Hashtbl.mem call_targets s.Sef.value))
          && List.exists
               (fun (src, tgt) ->
                 tgt = s.Sef.value && src >= prev_start && src < s.Sef.value)
               !branch_pairs
        in
        if internal then drop_internal acc prev_start rest
        else drop_internal (s :: acc) s.Sef.value rest
  in
  let stage1 = drop_internal [] text_lo stage1 in
  (* ---- stage 2: stripped executables ---- *)
  let starts =
    if stage1 <> [] then
      List.map (fun (s : Sef.symbol) -> (s.Sef.value, s.Sef.sym_name)) stage1
    else (
      (* "the initial set of routines contains only the program's entry
         point and the first address in the text segment. In this case, EEL
         makes an extra pass [...] to find direct subroutine calls." *)
      let seeds = ref [ (text_lo, "__text_start") ] in
      if exe.Sef.entry >= text_lo && exe.Sef.entry < text_hi then
        seeds := (exe.Sef.entry, "__start") :: !seeds;
      Hashtbl.iter
        (fun tgt () -> seeds := (tgt, Printf.sprintf "f_0x%x" tgt) :: !seeds)
        call_targets;
      List.sort_uniq compare !seeds)
  in
  (* ensure the text base is covered *)
  let starts =
    if List.mem_assoc text_lo starts then starts
    else (text_lo, "__text_start") :: starts
  in
  let starts = List.sort (fun (a, _) (b, _) -> compare a b) starts in
  (* dedupe by address, keep first name *)
  let rec dedupe = function
    | (a1, n1) :: (a2, _) :: rest when a1 = a2 -> dedupe ((a1, n1) :: rest)
    | x :: rest -> x :: dedupe rest
    | [] -> []
  in
  let starts = dedupe starts in
  let rec mk_routines = function
    | [] -> []
    | (lo, name) :: rest ->
        let hi = match rest with (nlo, _) :: _ -> nlo | [] -> text_hi in
        {
          r_name = name;
          r_lo = lo;
          r_hi = hi;
          r_entries = [ lo ];
          r_cfg = None;
          r_editor = None;
          r_edited = None;
          r_hidden = false;
        }
        :: mk_routines rest
  in
  t.routines <- mk_routines starts;
  (* ---- stage 3: multiple entry points ----
     "EEL then examines instructions to find jumps out of a routine or
     calls on routines not in this initial set. The destinations of these
     control transfers become entry points to the routines that contain
     them." *)
  let find_routine addr =
    List.find_opt (fun r -> addr >= r.r_lo && addr < r.r_hi) t.routines
  in
  let add_entry addr =
    match find_routine addr with
    | Some r when addr <> r.r_lo ->
        if not (List.mem addr r.r_entries) then r.r_entries <- addr :: r.r_entries
    | _ -> ()
  in
  Hashtbl.iter (fun tgt () -> add_entry tgt) call_targets;
  List.iter
    (fun (src, tgt) ->
      match (find_routine src, find_routine tgt) with
      | Some rs, Some rt when rs != rt -> add_entry tgt
      | _ -> ())
    !branch_pairs;
  t

(** [read_contents ?cache_instrs ?diag ?budget mach exe] opens an executable
    and performs symbol-table refinement stages 1–3. Stage 4 happens lazily
    as CFGs are built. [diag] receives degradation warnings from the whole
    pipeline; [budget] bounds total analysis work (default
    {!Diag.default_budget_units}). *)
let read_contents ?cache_instrs ?diag ?budget (mach : Machine.t) (exe : Sef.t) =
  Eel_obs.Trace.with_span "exe.open" (fun () ->
      read_contents_inner ?cache_instrs ?diag ?budget mach exe)

(** [open_exe ?strict ?diag ?cache_instrs ?budget mach exe] — the
    Result-returning front door. Re-validates the in-memory image (callers
    may have constructed [exe] directly rather than via {!Sef.load}), then
    runs symbol-table refinement. [Error _] carries the structured failure;
    diagnostics, if a sink was supplied, describe everything that was
    degraded along the way. In [strict] mode the sink promotes warnings to
    errors and validation failures reject the executable. *)
let open_exe ?(strict = false) ?diag ?cache_instrs ?budget (mach : Machine.t)
    (exe : Sef.t) : (t, Diag.error) result =
  Diag.guard (fun () ->
      let sink = match diag with Some s -> Some s | None when strict -> Some (Diag.create ~strict ()) | None -> None in
      Sef.validate_exn ?diag:sink exe;
      (match sink with
      | Some s when Diag.has_errors s ->
          Diag.fail
            (Diag.Sef_error
               {
                 what =
                   Printf.sprintf "input rejected: %d validation error(s)"
                     (Diag.errors s);
                 loc = Diag.no_loc;
               })
      | _ -> ());
      read_contents ?cache_instrs ?diag:sink ?budget mach exe)

let routines t = t.routines

let hidden_routines t = t.hidden

(** {1 Routine-granular analysis artifacts (the serve subsystem's cache)}

    Everything CFG construction and the slicing fixpoint derive from a
    routine is a function of the routine's text bytes, its entry set and
    its placement — so it can be cached content-addressed and reused across
    invocations, and a patched executable only re-analyzes the routines
    whose bytes actually changed. {!routine_digest} is the key;
    {!set_analysis_cache} installs an ambient lookup/store pair that
    {!build_cfg} consults (lib/serve provides one backed by its
    content-addressed store; when none is installed the pipeline behaves
    exactly as before). *)

(** Bump when anything that feeds {!routine_digest} or the cached artifact
    encoding changes shape: stale artifacts must miss, not corrupt. *)
let analysis_version = "eel.rf.v1"

(** [routine_digest t r] — content digest (hex) of everything the routine's
    analysis depends on: the artifact-format version, the machine, the
    slicing policy, the routine's placement [r_lo] (dispatch-table targets
    are absolute addresses), extent, sorted relative entry offsets, and the
    routine's text bytes. Table {e contents} live in data sections outside
    the digest; cached tables are therefore re-validated against memory
    before use (see {!build_cfg}). *)
let routine_digest t (r : routine) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf analysis_version;
  Buffer.add_char buf '\000';
  Buffer.add_string buf t.mach.Machine.name;
  Buffer.add_char buf (if t.slicing then '\001' else '\000');
  Eel_util.Bytebuf.w32 buf r.r_lo;
  Eel_util.Bytebuf.w32 buf (r.r_hi - r.r_lo);
  List.iter
    (fun e -> Eel_util.Bytebuf.w32 buf (e - r.r_lo))
    (List.sort_uniq compare r.r_entries);
  let text = text_section t.exe in
  Buffer.add_string buf
    (Bytes.sub_string text.Sef.contents (r.r_lo - text.Sef.vaddr)
       (r.r_hi - r.r_lo));
  Digest.to_hex (Digest.string (Buffer.contents buf))

type analysis_hooks = {
  ac_lookup : string -> (int * C.table) list option;
      (** digest -> previously-converged dispatch tables, if cached *)
  ac_store : string -> (int * C.table) list -> unit;
      (** record a converged table set under the routine's digest *)
}

(* Ambient, process-wide: set once before any fan-out (worker domains read
   it, never write), so tools that open executables internally pick the
   cache up without plumbing. Atomic so the install is a clean publish
   across domains. *)
let analysis_cache : analysis_hooks option Atomic.t = Atomic.make None

(** [set_analysis_cache h] installs (or, with [None], removes) the ambient
    per-routine analysis cache. Call before spawning pool workers. *)
let set_analysis_cache h = Atomic.set analysis_cache h

let start_address t = t.exe.Sef.entry

let find_routine t addr =
  List.find_opt (fun r -> addr >= r.r_lo && addr < r.r_hi) t.routines

let routine_named t name = List.find_opt (fun r -> r.r_name = name) t.routines

let fetch t addr = Sef.fetch32 t.exe addr

(** {1 CFG construction with the slicing fixpoint (stage 4)} *)

(* A cached table is trusted only if the memory it points at still decodes
   to the recorded targets: the routine digest covers the routine's text,
   not the data section holding the table, so a patched dispatch table must
   demote the hit to a full re-analysis. Literal tables (t_addr = -1) carry
   their one target in the slice itself, which the digest does cover. *)
let table_still_valid ~fetch (_jump_addr, (tbl : C.table)) =
  tbl.C.t_addr < 0
  ||
  let ok = ref true in
  Array.iteri
    (fun k tgt -> if fetch (tbl.C.t_addr + (4 * k)) <> Some tgt then ok := false)
    tbl.C.t_targets;
  !ok

let rec build_cfg t (r : routine) =
  let fetch = fetch t in
  let build tables =
    C.build ?diag:t.diag ~budget:t.work ~mach:t.mach ~cache:t.cache ~fetch
      ~lo:r.r_lo ~hi:r.r_hi ~entries:r.r_entries ~tables ()
  in
  let g =
    if not t.slicing then build []
    else
      let hooks = Atomic.get analysis_cache in
      let digest =
        match hooks with Some _ -> Some (routine_digest t r) | None -> None
      in
      let seeded =
        match (hooks, digest) with
        | Some h, Some d -> (
            match h.ac_lookup d with
            | Some tables when List.for_all (table_still_valid ~fetch) tables ->
                Some tables
            | _ -> None)
        | _ -> None
      in
      match seeded with
      | Some tables ->
          (* the cached set is the converged fixpoint for these exact bytes
             (and the tables re-validated against memory), so one build
             reproduces the from-scratch graph with no slicing at all *)
          build tables
      | None ->
          let rec fixpoint tables iter =
            let g = build tables in
            let new_tables, _unan = Slice.resolve_all ~fetch g in
            let fresh =
              List.filter (fun (a, _) -> not (List.mem_assoc a tables)) new_tables
            in
            if fresh = [] then (
              (match (hooks, digest) with
              | Some h, Some d ->
                  h.ac_store d
                    (List.sort (fun (a, _) (b, _) -> compare a b) tables)
              | _ -> ());
              g)
            else if iter > 4 then g
            else fixpoint (fresh @ tables) (iter + 1)
          in
          fixpoint [] 0
  in
  r.r_cfg <- Some g;
  (* ---- stage 4: hidden routines ---- *)
  (match g.C.hidden_candidate with
  | Some cand when cand > r.r_lo && cand < r.r_hi ->
      let h =
        {
          r_name = Printf.sprintf "hidden_0x%x" cand;
          r_lo = cand;
          r_hi = r.r_hi;
          r_entries = [ cand ];
          r_cfg = None;
          r_editor = None;
          r_edited = None;
          r_hidden = true;
        }
      in
      r.r_hi <- cand;
      (* rebuild this routine's CFG with the tightened extent *)
      r.r_cfg <- None;
      t.hidden <- t.hidden @ [ h ];
      (* "recognizing a new routine may add entry points to existing
         routines": scan the carved region for out-bound transfers *)
      let lift = Instr_cache.lifter t.cache in
      let a = ref cand in
      while !a < h.r_hi do
        (match fetch !a with
        | None -> ()
        | Some w -> (
            let i = lift w in
            match (i.Instr.cat, Instr.abs_target ~pc:!a i) with
            | (Instr.Call | Instr.Branch), Some tgt -> (
                match find_routine t tgt with
                | Some rt
                  when tgt <> rt.r_lo
                       && (not (List.mem tgt rt.r_entries))
                       && not (tgt >= h.r_lo && tgt < h.r_hi) ->
                    rt.r_entries <- tgt :: rt.r_entries;
                    (* entry set changed: rebuild lazily — but never
                       invalidate a CFG a tool is already editing *)
                    if rt.r_editor = None && rt.r_edited = None then
                      rt.r_cfg <- None
                | _ -> ())
            | _ -> ()));
        a := !a + 4
      done;
      build_cfg t r
  | _ -> ())

(** [control_flow_graph t r] — the routine's CFG, built on first use. *)
let control_flow_graph t r =
  match r.r_cfg with
  | Some g -> g
  | None ->
      Eel_obs.Trace.with_span "cfg.routine"
        ~args:[ ("routine", r.r_name) ]
        (fun () -> build_cfg t r);
      Option.get r.r_cfg

(** [take_hidden t] pops one discovered hidden routine and registers it as a
    normal routine (the paper Fig. 1 main loop). *)
let take_hidden t =
  match t.hidden with
  | [] -> None
  | h :: rest ->
      t.hidden <- rest;
      t.routines <-
        List.sort (fun a b -> compare a.r_lo b.r_lo) (h :: t.routines);
      Some h

(** [iter_routines t f] applies [f] to every routine, then to each hidden
    routine that editing discovers ({!take_hidden}) until none is left —
    paper Fig. 1's main loop, which qpt2 spells out. *)
let iter_routines t f =
  List.iter f t.routines;
  let rec drain () = match take_hidden t with Some r -> f r; drain () | None -> () in
  drain ()

(** A "routine" that analysis revealed to be pure data (e.g. a table in the
    text segment carrying a function-looking symbol). *)
let is_data_table t r =
  let g = control_flow_graph t r in
  List.for_all
    (fun (b : C.block) -> b.C.kind <> C.Normal || b.C.is_data || not b.C.reachable)
    (C.blocks g)
  && List.exists (fun (b : C.block) -> b.C.is_data) (C.blocks g)

(** {1 Editing} *)

let editor t r =
  match r.r_editor with
  | Some e -> e
  | None ->
      let g = control_flow_graph t r in
      let e =
        Edit.create ?max_span:t.max_span ~fold_delay:t.fold_delay
          ~xlat_delta:(t.xlat_base - t.text_lo) g
      in
      r.r_editor <- Some e;
      e

(** [produce_edited_routine t r] lays out the routine's accumulated edits
    (paper §3.3.1). Safe to call with no edits: the routine is re-emitted
    verbatim with adjusted displacements. *)
let produce_edited_routine t r =
  let e = editor t r in
  r.r_edited <- Some (Edit.produce e)

(** [delete_control_flow_graph r] — drop analysis state (paper Fig. 1 frees
    CFGs after each routine to bound memory). The edited form is kept. *)
let delete_control_flow_graph (r : routine) =
  r.r_cfg <- None;
  r.r_editor <- None

(** {1 Adding data and routines} *)

(** [reserve_data t ?init size] allocates [size] bytes in the added-data
    region (zero-initialized unless [init] is given) and returns the
    address — known immediately, so tools can bake it into snippets
    (paper Fig. 2's [COUNTER_START]). *)
let reserve_data t ?init size =
  let addr = (t.data_cursor + 7) land lnot 7 in
  if addr + size > t.data_base + data_region_size then
    err "added-data region exhausted";
  let bytes =
    match init with
    | Some b ->
        if Bytes.length b <> size then err "reserve_data: init size mismatch";
        b
    | None -> Bytes.make size '\000'
  in
  t.data_cursor <- addr + size;
  t.added_data <- (addr, bytes) :: t.added_data;
  addr

(** [add_routine t ~name body] assembles [body] (snippet syntax: labels,
    [$params], no directives) and places it at a fresh address, returned
    immediately so snippets can call it. This is how Active Memory "adds
    many routines (another program) to an executable" (§5). *)
let add_routine t ~name ?(params = []) body =
  match t.mach.Machine.asm ~params body with
  | Error m -> err "add_routine %s: %s" name m
  | Ok tpl ->
      if tpl.Template.vuses <> [] then
        err "add_routine %s: virtual registers not allowed" name;
      let addr = (t.code_cursor + 15) land lnot 15 in
      let words = Array.copy tpl.Template.words in
      (* relocs: pc-relative transfers to absolute targets *)
      List.iter
        (fun (rl : Template.reloc) ->
          let pc = addr + (4 * rl.Template.index) in
          let i = t.mach.Machine.lift words.(rl.Template.index) in
          match t.mach.Machine.retarget i ~disp:(rl.Template.target - pc) with
          | Some w -> words.(rl.Template.index) <- w
          | None -> err "add_routine %s: reloc out of range" name)
        tpl.Template.relocs;
      t.code_cursor <- addr + (4 * Array.length words);
      t.added_routines <- (name, addr, words) :: t.added_routines;
      addr

(** {1 Finalization and output} *)

(** Lay out every routine and build the original->edited address map.
    Routines without accumulated edits are re-emitted verbatim. *)
let finalize t =
  match t.addr_map with
  | Some _ -> ()
  | None ->
      Eel_obs.Trace.with_span "edit.finalize" @@ fun () ->
      let work = t.routines @ t.hidden in
      (* producing may discover more hidden routines; iterate to a fixpoint.
         The iteration count is bounded: each round either produces every
         known routine or was triggered by a freshly-discovered hidden
         routine, and hidden discovery strictly shrinks extents — but a
         hostile input must not turn an invariant bug into a hang, so cap
         the rounds and fail loudly instead. *)
      let rec produce_all iter =
        if iter > 1024 then
          Diag.invariant_error "finalize: produce fixpoint did not converge";
        List.iter
          (fun r ->
            if r.r_edited = None then
              if is_data_table t r then () else produce_edited_routine t r)
          (t.routines @ t.hidden);
        if List.exists (fun r -> r.r_edited = None && not (is_data_table t r))
             (t.routines @ t.hidden)
        then produce_all (iter + 1)
      in
      ignore work;
      produce_all 0;
      (* assign bases *)
      let text_base = (t.code_cursor + 0xFFF) land lnot 0xFFF in
      let cursor = ref text_base in
      let placed =
        List.filter_map
          (fun r ->
            match r.r_edited with
            | None -> None
            | Some ed ->
                let base = !cursor in
                cursor := base + Edit.size_bytes ed;
                Some (r, ed, base))
          (List.sort (fun a b -> compare a.r_lo b.r_lo) (t.routines @ t.hidden))
      in
      (* global address map *)
      let map = Hashtbl.create 4096 in
      List.iter
        (fun (_, (ed : Edit.edited), base) ->
          Hashtbl.iter
            (fun orig idx -> Hashtbl.replace map orig (base + (4 * idx)))
            ed.Edit.ed_origin;
          (* entry stubs override plain block positions *)
          List.iter
            (fun (orig, idx) -> Hashtbl.replace map orig (base + (4 * idx)))
            ed.Edit.ed_entries)
        placed;
      t.addr_map <- Some map;
      (* stash placement for the writer *)
      t.placed <- placed;
      t.new_text_base <- text_base;
      t.new_text_size <- !cursor - text_base;
      (* ---- post-edit invariant verification (runs before any output can
         be produced: [to_edited_sef] and [edited_addr] both come through
         here). A violation is an EEL bug or a hostile input that slipped
         past degradation — either way, fail with a typed error rather than
         emit a silently-corrupt image. ---- *)
      List.iter
        (fun ((r : routine), (ed : Edit.edited), base) ->
          Edit.verify_exn ~name:r.r_name ed;
          (* the translation map must be total and consistent over the
             routine's edited entry points *)
          List.iter
            (fun (orig, idx) ->
              match Hashtbl.find_opt map orig with
              | None ->
                  Diag.invariant_error
                    "routine %s: entry 0x%x missing from the address map"
                    r.r_name orig
              | Some v when v <> base + (4 * idx) ->
                  Diag.invariant_error
                    "routine %s: entry 0x%x maps to 0x%x, expected 0x%x"
                    r.r_name orig v
                    (base + (4 * idx))
              | Some _ -> ())
            ed.Edit.ed_entries)
        placed

(** [edited_addr t a] — the edited location of original instruction address
    [a] (paper Fig. 1). *)
let edited_addr t a =
  finalize t;
  match t.addr_map with
  | Some map -> Hashtbl.find_opt map a
  | None -> assert false

(** [edited_address_map t] — the complete original→edited instruction
    address map (finalizing the layout if needed). The differential oracle
    inverts this to normalize code-pointer values (e.g. a spilled return
    address) observed in an edited run back to original addresses before
    comparing against the original run. Treat the table as read-only. *)
let edited_address_map t =
  finalize t;
  match t.addr_map with Some map -> map | None -> assert false

(** [edited_growth t] — per-routine static cost of the accumulated edits:
    [(name, original bytes, edited bytes)] for every routine an edited form
    was placed for, sorted by name. The overhead ledger's "routines
    touched" and static-size columns come from here. *)
let edited_growth t =
  finalize t;
  List.map
    (fun ((r : routine), (ed : Edit.edited), _base) ->
      (r.r_name, r.r_hi - r.r_lo, Edit.size_bytes ed))
    t.placed
  |> List.sort compare

(** [inverse_address_norm t] — a value normalizer for the differential
    oracle: edited instruction addresses map back to their original ones,
    anything else passes through. An edited run that spills a code pointer
    (e.g. a return address after [call]) observes the edited address; this
    maps it back so the value compares equal to the original run's. *)
let inverse_address_norm t =
  let map = edited_address_map t in
  let inv = Hashtbl.create (Hashtbl.length map) in
  Hashtbl.iter
    (fun orig na -> if not (Hashtbl.mem inv na) then Hashtbl.add inv na orig)
    map;
  fun v -> match Hashtbl.find_opt inv v with Some orig -> orig | None -> v

(** [block_of_addr t a] — the CFG block id and routine name containing the
    original instruction address [a], if analysis placed it in one. Used by
    divergence reports to anchor a PC in CFG terms. *)
let block_of_addr t a =
  match find_routine t a with
  | None -> None
  | Some r -> (
      match r.r_cfg with
      | None -> None
      | Some g ->
          List.find_map
            (fun (b : C.block) ->
              if
                b.C.kind = C.Normal
                && Array.exists (fun (ia, _) -> ia = a) b.C.instrs
              then Some (r.r_name, b.C.bid)
              else
                match C.term_instr b with
                | Some (ta, _) when ta = a && b.C.kind = C.Normal ->
                    Some (r.r_name, b.C.bid)
                | _ -> None)
            (C.blocks g))

(** {1 Building the edited image} *)

let patch_word t map ~pc (ew : Edit.eword) ~labels ~base =
  let lift w = t.mach.Machine.lift w in
  match ew.Edit.patch with
  | Edit.P_none | Edit.P_label _ -> ew.Edit.w
  | Edit.P_orig a -> (
      match Hashtbl.find_opt map a with
      | Some na -> (
          match t.mach.Machine.retarget (lift ew.Edit.w) ~disp:(na - pc) with
          | Some w -> w
          | None -> err "cross-routine displacement to 0x%x does not fit" na)
      | None ->
          (* a statically-dead transfer (e.g. fall-through off a routine's
             end into data): emit an invalid word so reaching it faults *)
          0)
  | Edit.P_reloc abs -> (
      match t.mach.Machine.retarget (lift ew.Edit.w) ~disp:(abs - pc) with
      | Some w -> w
      | None -> err "snippet relocation to 0x%x does not fit" abs)
  | Edit.P_hi_label l ->
      let addr = base + (4 * Hashtbl.find labels l) in
      t.mach.Machine.set_const_hi ew.Edit.w ~value:addr
  | Edit.P_lo_label l ->
      let addr = base + (4 * Hashtbl.find labels l) in
      t.mach.Machine.set_const_lo ew.Edit.w ~value:addr

(** [to_edited_sef t ?entry ()] builds the edited executable image: original
    sections (with dispatch tables rewritten in place), the edited text
    section, added data/routines, the run-time translation table if needed,
    and a refreshed symbol table mapping routine names to their edited
    locations. *)
let to_edited_sef t ?entry () =
  finalize t;
  Eel_obs.Trace.with_span "edit.emit" @@ fun () ->
  let map = Option.get t.addr_map in
  let lookup a =
    match Hashtbl.find_opt map a with
    | Some v -> v
    | None -> err "edited_addr: 0x%x has no edited location" a
  in
  (* deep-copy original sections so table rewriting is non-destructive *)
  let orig_sections =
    List.map
      (fun (s : Sef.section) -> { s with Sef.contents = Bytes.copy s.Sef.contents })
      t.exe.Sef.sections
  in
  let copy_exe =
    Sef.create ~entry:t.exe.Sef.entry ~sections:orig_sections
      ~symbols:t.exe.Sef.symbols
  in
  (* ---- edited text ---- *)
  let text = Bytes.make t.new_text_size '\000' in
  let uses_xlat = ref false in
  List.iter
    (fun ((_r : routine), (ed : Edit.edited), base) ->
      if ed.Edit.ed_uses_xlat then uses_xlat := true;
      Array.iteri
        (fun idx ew ->
          let pc = base + (4 * idx) in
          let w = patch_word t map ~pc ew ~labels:ed.Edit.ed_labels ~base in
          Eel_util.Bytebuf.set32_be text (pc - t.new_text_base) w)
        ed.Edit.ed_words;
      (* snippet call-backs: run after register allocation and placement *)
      List.iter
        (fun (start, (inst : Snippet.instance)) ->
          match inst.Snippet.in_callback with
          | None -> ()
          | Some cb ->
              let len = Array.length inst.Snippet.in_words in
              let words =
                Array.init len (fun k ->
                    Eel_util.Bytebuf.get32_be text
                      (base + (4 * (start + k)) - t.new_text_base))
              in
              let ctx =
                {
                  Snippet.cb_words = words;
                  cb_addr = base + (4 * start);
                  cb_assigned = inst.Snippet.in_assigned;
                }
              in
              cb ctx;
              Array.iteri
                (fun k w ->
                  Eel_util.Bytebuf.set32_be text
                    (base + (4 * (start + k)) - t.new_text_base)
                    w)
                words)
        ed.Edit.ed_callbacks;
      (* dispatch tables: rewrite entries in the ORIGINAL image to point at
         edited code (paper §3.3: "subsequently modifies the table to point
         to edited locations") *)
      List.iter
        (fun (tbl : C.table) ->
          Array.iteri
            (fun k old ->
              if not (Sef.patch32 copy_exe (tbl.C.t_addr + (4 * k)) (lookup old))
              then err "dispatch table entry at 0x%x not writable" (tbl.C.t_addr + (4 * k)))
            tbl.C.t_targets)
        ed.Edit.ed_tables)
    t.placed;
  (* ---- run-time translation table ---- *)
  let xlat_sections =
    if not !uses_xlat then []
    else (
      let size = t.text_hi - t.text_lo in
      let b = Bytes.make size '\000' in
      Hashtbl.iter
        (fun orig na ->
          if orig >= t.text_lo && orig < t.text_hi then
            Eel_util.Bytebuf.set32_be b (orig - t.text_lo) na)
        map;
      [
        {
          Sef.sec_name = ".eel.xlat";
          sec_kind = Sef.Data;
          vaddr = t.xlat_base;
          size;
          contents = b;
        };
      ])
  in
  (* ---- added data (single section covering the reserved region) ---- *)
  let data_sections =
    if t.added_data = [] then []
    else (
      let size = t.data_cursor - t.data_base in
      let b = Bytes.make size '\000' in
      List.iter
        (fun (addr, bytes) ->
          Bytes.blit bytes 0 b (addr - t.data_base) (Bytes.length bytes))
        t.added_data;
      [
        {
          Sef.sec_name = ".eel.data";
          sec_kind = Sef.Data;
          vaddr = t.data_base;
          size;
          contents = b;
        };
      ])
  in
  (* ---- added routines ---- *)
  let code_sections =
    if t.added_routines = [] then []
    else (
      let size = t.code_cursor - t.code_base in
      let b = Bytes.make size '\000' in
      List.iter
        (fun (_, addr, words) ->
          Array.iteri
            (fun k w -> Eel_util.Bytebuf.set32_be b (addr - t.code_base + (4 * k)) w)
            words)
        t.added_routines;
      [
        {
          Sef.sec_name = ".eel.code";
          sec_kind = Sef.Text;
          vaddr = t.code_base;
          size;
          contents = b;
        };
      ])
  in
  let text_section =
    {
      Sef.sec_name = ".eel.text";
      sec_kind = Sef.Text;
      vaddr = t.new_text_base;
      size = t.new_text_size;
      contents = text;
    }
  in
  (* ---- symbols: routines at their edited addresses, original data
     symbols kept (paper §3.1: EEL maintains symbol information so standard
     tools work on edited programs) ---- *)
  let routine_syms =
    List.filter_map
      (fun ((r : routine), (_ : Edit.edited), _base) ->
        match Hashtbl.find_opt map r.r_lo with
        | Some na ->
            Some
              {
                Sef.sym_name = r.r_name;
                value = na;
                sym_size = 0;
                kind = Sef.Func;
                global = not r.r_hidden;
              }
        | None -> None)
      t.placed
  in
  let added_syms =
    List.map
      (fun (name, addr, words) ->
        {
          Sef.sym_name = name;
          value = addr;
          sym_size = 4 * Array.length words;
          kind = Sef.Func;
          global = false;
        })
      t.added_routines
  in
  let data_syms =
    List.filter
      (fun (s : Sef.symbol) -> s.Sef.value < t.text_lo || s.Sef.value >= t.text_hi)
      t.exe.Sef.symbols
  in
  let entry =
    match entry with Some e -> e | None -> lookup t.exe.Sef.entry
  in
  Sef.create ~entry
    ~sections:
      (copy_exe.Sef.sections @ xlat_sections @ data_sections @ code_sections
     @ [ text_section ])
    ~symbols:(routine_syms @ added_syms @ data_syms)

(** [write_edited_executable t path ~entry] — paper Fig. 1's final step. *)
let write_edited_executable t path ~entry =
  Sef.write_file path (to_edited_sef t ~entry ())

(** {1 Program-wide statistics (experiments E2–E5, E8)} *)

type jump_stats = {
  js_routines : int;
  js_instructions : int;  (** text words *)
  js_indirect_jumps : int;
  js_unanalyzable : int;
}

(** Build every routine's CFG and count indirect-jump analyzability — the
    paper's §3.3 SPEC92 measurement. *)
let jump_stats t =
  Eel_obs.Trace.with_span "exe.jump_stats" @@ fun () ->
  (* force analysis of everything, including queued hidden routines *)
  let rec force () =
    List.iter (fun r -> ignore (control_flow_graph t r)) t.routines;
    match t.hidden with
    | [] -> ()
    | _ ->
        let rec drain () = match take_hidden t with Some _ -> drain () | None -> () in
        drain ();
        force ()
  in
  force ();
  let jumps = ref 0 and unan = ref 0 in
  List.iter
    (fun r ->
      match r.r_cfg with
      | None -> ()
      | Some g ->
          List.iter
            (fun ((b : C.block), _) ->
              incr jumps;
              match b.C.term with
              | C.T_jump { table = Some _; _ } -> ()
              | _ -> incr unan)
            (C.indirect_jumps g))
    t.routines;
  {
    js_routines = List.length t.routines;
    js_instructions = (t.text_hi - t.text_lo) / 4;
    js_indirect_jumps = !jumps;
    js_unanalyzable = !unan;
  }

(** Aggregate CFG statistics over every routine (experiments E3, E4). *)
let cfg_stats t =
  let zero =
    {
      C.s_blocks = 0;
      s_normal = 0;
      s_delay = 0;
      s_surrogate = 0;
      s_entry_exit = 0;
      s_edges = 0;
      s_uneditable_blocks = 0;
      s_uneditable_edges = 0;
    }
  in
  List.fold_left
    (fun acc r ->
      let s = C.stats_of (control_flow_graph t r) in
      {
        C.s_blocks = acc.C.s_blocks + s.C.s_blocks;
        s_normal = acc.C.s_normal + s.C.s_normal;
        s_delay = acc.C.s_delay + s.C.s_delay;
        s_surrogate = acc.C.s_surrogate + s.C.s_surrogate;
        s_entry_exit = acc.C.s_entry_exit + s.C.s_entry_exit;
        s_edges = acc.C.s_edges + s.C.s_edges;
        s_uneditable_blocks = acc.C.s_uneditable_blocks + s.C.s_uneditable_blocks;
        s_uneditable_edges = acc.C.s_uneditable_edges + s.C.s_uneditable_edges;
      })
    zero t.routines
