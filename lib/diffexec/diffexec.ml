(** Differential execution oracle: does editing preserve behaviour?

    EEL's core claim (paper §3.3, §5) is that a fully-linked executable can
    be edited without changing what it {e does}: "run-time code ensures that
    control passes to the correct edited instruction", dispatch tables are
    rewritten consistently, and the edited SPEC binaries "produce the same
    output". The paper validates this indirectly, by running edited
    benchmarks; Datalog Disassembly's methodology is stronger — round-trip
    real binaries through the rewriter and {e check} functional equivalence.
    This module is that methodology made executable:

    - {!execute} runs one image under {!Eel_emu.Emu} with the
      observable-event sink installed, capturing traps (with arguments),
      stores (with address and value), and the terminal event — exit, fault
      or fuel exhaustion — as one bounded log;
    - {!compare_runs} is the lockstep comparator: it walks the two logs
      index-by-index and classifies the first divergence as an
      {e event-kind mismatch}, a {e value mismatch}, or a
      {e fault asymmetry} — or the whole pair as {e equivalent},
      {e fuel-truncated-equal} (neither side can be refuted under the
      shared budget) or {e both-fault};
    - {!identity_roundtrip} is the round-trip oracle: load → CFG (hidden
      routines drained) → {e no-op edit} → finalize (which runs
      {!Eel.Edit.verify} on every routine, surfacing violations as
      structured {!Eel_robust.Diag} errors) → emit → run both images and
      require event-equivalence.

    Two normalizations make the comparison exact rather than heuristic:

    + {e memory geometry}: both images are loaded with headroom chosen so
      their address spaces have identical size, hence identical initial
      stack pointers — stack traffic compares address-for-address;
    + {e code pointers}: an edited run observes edited code addresses
      (e.g. a spilled return address after [call]); the oracle inverts the
      executable's original→edited address map ({!Eel.Executable.edited_address_map})
      and maps such values back before comparing.

    Results are exported through [eel.diff.*] metrics and trace spans, so
    divergence rates appear in the same observability namespace as every
    other pipeline measurement. *)

module Emu = Eel_emu.Emu
module Tier2 = Eel_emu.Tier2
module Sef = Eel_sef.Sef
module E = Eel.Executable
module Diag = Eel_robust.Diag
module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics
module Contract = Eel_equiv.Contract

(** Default shared fuel budget for a differential run: small enough that a
    hostile mutant cannot stall a fuzzing campaign, large enough that every
    corpus program runs to completion. *)
let default_fuel = 2_000_000

(** {1 Running one side} *)

(** How a run ended. Mirrors the terminal observable event — {!Emu.Ob_exit},
    {!Emu.Ob_fault} or {!Emu.Ob_fuel} — as a summary value. *)
type stop = S_exit of int | S_fault of string | S_fuel

let stop_name = function
  | S_exit _ -> "exit"
  | S_fault _ -> "fault"
  | S_fuel -> "fuel"

let pp_stop fmt = function
  | S_exit c -> Format.fprintf fmt "exit %d" c
  | S_fault m -> Format.fprintf fmt "fault: %s" m
  | S_fuel -> Format.fprintf fmt "out of fuel"

(** One side of a differential comparison: the bounded observable-event
    log plus end-of-run machine state. *)
type run = {
  r_stop : stop;
  r_events : Emu.obs_event array;  (** retained events, execution order *)
  r_total : int;  (** all events, including any dropped past the bound *)
  r_truncated : bool;
  r_filtered : int;  (** events a contract filter masked at record time *)
  r_filtered_stores : int;  (** masked events that were stores *)
  r_filtered_traps : int;  (** masked events that were traps *)
  r_filtered_syscalls : int;  (** masked events that were OS syscalls *)
  r_out : string;
  r_insns : int;
  r_regs : int array;  (** final register file *)
  r_mem : Bytes.t;  (** final memory image (contract checks read it) *)
  r_profile : Emu.profile option;  (** ground-truth profile, when requested *)
}

(** [execute ?fuel ?limit ?headroom exe] loads and runs [exe] with the
    observable-event sink installed. Machine faults and fuel exhaustion are
    {e data} here, not errors — they end the log like any other terminal
    event. [Error _] is reserved for images the emulator cannot even load
    (hostile geometry), reported as a structured {!Diag.error} so drivers
    degrade like the rest of the front end.

    [profile] additionally collects the ground-truth execution profile;
    [filter] installs a record-time event filter with access to the live
    machine (the contract oracle masks an edit's declared side effects
    there, where the stack pointer is still known); [pokes] installs a
    deterministic environment-fault plan ({!Emu.poke}) — the injection
    campaign corrupts chosen words mid-run through it; [os] installs the
    OS layer (lib/os) with fresh per-run state built from the spec, so
    the run's syscalls surface as {!Emu.Ob_syscall} events.

    [tier] selects the execution engine ({!Tier2.tier}); the default is
    {!Tier2.Block} — the block-compiled tier is event-identical to the
    interpreter (the test suite pins this corpus-wide) and the engine
    itself falls back to tier-1 whenever per-instruction instrumentation
    (a profile or a poke plan) is armed, so callers need not care.
    [~predecode:false] without an explicit [tier] means {!Tier2.Interp}. *)
let execute ?(fuel = default_fuel) ?limit ?headroom ?(profile = false) ?filter
    ?predecode ?tier ?(pokes = []) ?os (exe : Sef.t) : (run, Diag.error) result
    =
  let tier =
    match (tier, predecode) with
    | Some tr, _ -> tr
    | None, Some false -> Tier2.Interp
    | None, _ -> Tier2.Block
  in
  let predecode = tier <> Tier2.Interp in
  match
    try Ok (Emu.load ?headroom ~predecode exe)
    with Emu.Fault m -> Error (Diag.Exe_error { what = "emulator load: " ^ m })
  with
  | Error e -> Error e
  | Ok t ->
      (if tier = Tier2.Block then ignore (Tier2.attach t));
      (match os with
      | None -> ()
      | Some spec -> ignore (Eel_os.Os.install t spec));
      let log = Emu.obs_log ?limit () in
      Emu.set_obs t (Some log);
      let prof =
        if profile then (
          let p = Emu.create_profile () in
          Emu.set_profile t (Some p);
          Some p)
        else None
      in
      (match filter with
      | None -> ()
      | Some keep -> Emu.set_obs_filter t (Some (fun ev -> keep t ev)));
      if pokes <> [] then Emu.set_pokes t pokes;
      let stop =
        match Emu.run ~fuel t with
        | r -> S_exit r.Emu.exit_code
        | exception Emu.Fault m -> S_fault m
        | exception Emu.Out_of_fuel -> S_fuel
      in
      Ok
        {
          r_stop = stop;
          r_events = Emu.obs_events_array log;
          r_total = Emu.obs_total log;
          r_truncated = Emu.obs_truncated log;
          r_filtered = Emu.obs_filtered log;
          r_filtered_stores = Emu.obs_filtered_stores log;
          r_filtered_traps = Emu.obs_filtered_traps log;
          r_filtered_syscalls = Emu.obs_filtered_syscalls log;
          r_out = Emu.output t;
          r_insns = Emu.insns_executed t;
          r_regs = Emu.registers t;
          r_mem = t.Emu.mem;
          r_profile = prof;
        }

(** {1 The lockstep comparator} *)

(** First-divergence classification (the comparator's contract). *)
type dclass =
  | D_kind  (** the two sides produced different {e kinds} of event *)
  | D_value  (** same event kind, different payload (address/value/code) *)
  | D_fault_asym  (** one side faulted where the other did something else *)
  | D_contract
      (** the mismatch is the edited side's own instrumentation stepping
          outside its contract (e.g. a counter store to an undeclared
          address), not a program-behaviour change *)

let dclass_name = function
  | D_kind -> "kind-mismatch"
  | D_value -> "value-mismatch"
  | D_fault_asym -> "fault-asymmetry"
  | D_contract -> "contract"

type verdict =
  | Equivalent  (** both exited; logs and output identical *)
  | Fuel_truncated_equal
      (** identical up to where fuel (or the log bound) ran out on at
          least one side: equivalence is neither proven nor refuted *)
  | Both_fault  (** both faulted after identical observable prefixes *)
  | Diverged of dclass
  | Contract_violation
      (** the edit broke its own contract: either an undeclared side
          effect surfaced in the event stream, or a post-run check on the
          instrumentation's output failed *)

let verdict_name = function
  | Equivalent -> "equivalent"
  | Fuel_truncated_equal -> "fuel-truncated-equal"
  | Both_fault -> "both-fault"
  | Diverged c -> "diverged:" ^ dclass_name c
  | Contract_violation -> "contract-violation"

let is_divergence = function
  | Diverged _ | Contract_violation -> true
  | _ -> false

(** Where (and how) the two runs first disagreed. [dv_pc] is the
    {e original-side} program counter — the address a tool-writer can find
    in the unedited binary; [dv_block] anchors it in CFG terms when the
    oracle has the analysis at hand. For a {!Contract_violation} classified
    from the event stream, [dv_pc] is instead the {e edited-side} pc of the
    offending instrumentation event — the undeclared side effect has no
    original-side home by definition. *)
type divergence = {
  dv_class : dclass;
  dv_index : int;  (** event index of the first mismatch *)
  dv_pc : int;
  dv_block : (string * int) option;  (** routine name, block id *)
  dv_what : string;
  dv_orig : Emu.obs_event option;
  dv_edit : Emu.obs_event option;
  dv_reg_delta : (int * int * int) list;
      (** registers differing at end of run: (reg, original, edited);
          raw and normalized values compared, raw values reported *)
}

type report = {
  rp_verdict : verdict;
  rp_divergence : divergence option;
  rp_events : int * int;  (** total observable events per side *)
  rp_insns : int * int;  (** dynamic instructions per side *)
  rp_stops : stop * stop;  (** how each side ended *)
}

(* Two observed values match when they are raw-equal or equal after
   per-side normalization. Raw-equal values are observably identical even
   when one happens to equal a relocated pc in the edited side's inverse
   map; any later misuse of such a value surfaces as its own event. *)
let same_value ~norm_a ~norm_b va vb = va = vb || norm_a va = norm_b vb

(* Event payload comparison under per-side value normalization. [Ok] means
   the events match; [Error] classifies and describes the mismatch. The pc
   is never part of the payload: the two images execute at different
   addresses by construction. *)
let same_event ~norm_a ~norm_b (a : Emu.obs_event) (b : Emu.obs_event) :
    (unit, dclass * string) result =
  match (a, b) with
  | ( Emu.Ob_trap { num = na; arg = aa; _ },
      Emu.Ob_trap { num = nb; arg = ab; _ } ) ->
      if na <> nb then
        Error (D_value, Printf.sprintf "trap %d vs trap %d" na nb)
      else if not (same_value ~norm_a ~norm_b aa ab) then
        Error (D_value, Printf.sprintf "trap %d arg 0x%x vs 0x%x" na aa ab)
      else Ok ()
  | ( Emu.Ob_store { addr = adra; width = wa; value = va; _ },
      Emu.Ob_store { addr = adrb; width = wb; value = vb; _ } ) ->
      if adra <> adrb || wa <> wb then
        Error
          ( D_value,
            Printf.sprintf "store%d [0x%x] vs store%d [0x%x]" wa adra wb adrb )
      else if not (same_value ~norm_a ~norm_b va vb) then
        Error
          ( D_value,
            Printf.sprintf "store%d [0x%x]: value 0x%x vs 0x%x" wa adra va vb )
      else Ok ()
  | ( Emu.Ob_syscall { num = na; a0 = a0a; a1 = a1a; a2 = a2a; ret = ra;
                       err = ea; data = da; _ },
      Emu.Ob_syscall { num = nb; a0 = a0b; a1 = a1b; a2 = a2b; ret = rb;
                       err = eb; data = db; _ } ) ->
      (* the whole call/return pair is the payload: number, arguments
         (addresses normalized per side — a buffer in added data moves),
         success/error, result, and the transferred-byte checksum. The pc
         is reporting metadata, as everywhere. *)
      if na <> nb then
        Error (D_value, Printf.sprintf "syscall %d vs syscall %d" na nb)
      else if ea <> eb then
        Error
          ( D_value,
            Printf.sprintf "syscall %d: %s vs %s" na
              (if ea then "error" else "success")
              (if eb then "error" else "success") )
      else if
        a0a <> a0b
        || (not (same_value ~norm_a ~norm_b a1a a1b))
        || a2a <> a2b
      then
        Error
          ( D_value,
            Printf.sprintf "syscall %d args (0x%x,0x%x,0x%x) vs (0x%x,0x%x,0x%x)"
              na a0a a1a a2a a0b a1b a2b )
      else if ra <> rb then
        Error (D_value, Printf.sprintf "syscall %d returned %d vs %d" na ra rb)
      else if da <> db then
        Error
          ( D_value,
            Printf.sprintf "syscall %d transferred data 0x%x vs 0x%x" na da db )
      else Ok ()
  | Emu.Ob_exit { code = ca; _ }, Emu.Ob_exit { code = cb; _ } ->
      if ca = cb then Ok ()
      else Error (D_value, Printf.sprintf "exit %d vs exit %d" ca cb)
  | Emu.Ob_fault _, Emu.Ob_fault _ ->
      (* fault messages embed image-specific pcs; two faults at the same
         point in the observable stream are the same behaviour *)
      Ok ()
  | Emu.Ob_fuel _, Emu.Ob_fuel _ -> Ok ()
  | Emu.Ob_fault _, _ | _, Emu.Ob_fault _ ->
      (D_fault_asym, "one side faulted") |> Result.error
  | _ ->
      Error
        ( D_kind,
          Format.asprintf "%a vs %a" Emu.pp_obs a Emu.pp_obs b )

let event_at (r : run) i =
  if i >= 0 && i < Array.length r.r_events then Some r.r_events.(i) else None

(* pc to anchor a divergence at index [i]: the original side's event there,
   falling back to its last retained event. *)
let anchor_pc (a : run) i =
  match event_at a i with
  | Some ev -> Emu.obs_pc ev
  | None ->
      if Array.length a.r_events > 0 then
        Emu.obs_pc a.r_events.(Array.length a.r_events - 1)
      else 0

let reg_delta ~norm_a ~norm_b (a : run) (b : run) =
  let n = min (Array.length a.r_regs) (Array.length b.r_regs) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if not (same_value ~norm_a ~norm_b a.r_regs.(i) b.r_regs.(i)) then
      out := (i, a.r_regs.(i), b.r_regs.(i)) :: !out
  done;
  !out

(** [compare_runs ?norm_a ?norm_b ?block_of ?suspect a b] — the lockstep
    comparator. [a] is conventionally the original image's run, [b] the
    edited one; [norm_a]/[norm_b] normalize observed values (the oracle
    passes the inverse address map as [norm_b]); [block_of] maps an
    original pc to a (routine, block id) anchor for the report.

    [suspect] is the contract oracle's classifier: at the first mismatch,
    an edited-side event it recognizes as instrumentation traffic (a store
    to an address the original run never stores to) turns the verdict into
    {!Contract_violation} — the edit leaked an undeclared side effect —
    instead of a plain program-behaviour divergence. *)
let compare_runs ?(norm_a = fun v -> v) ?(norm_b = fun v -> v)
    ?(block_of = fun _ -> None) ?(suspect = fun (_ : Emu.obs_event) -> false)
    (a : run) (b : run) : report =
  let na = Array.length a.r_events and nb = Array.length b.r_events in
  let n = min na nb in
  let mk_divergence ?pc cls i what =
    let pc = match pc with Some pc -> pc | None -> anchor_pc a i in
    {
      dv_class = cls;
      dv_index = i;
      dv_pc = pc;
      dv_block = block_of pc;
      dv_what = what;
      dv_orig = event_at a i;
      dv_edit = event_at b i;
      dv_reg_delta = reg_delta ~norm_a ~norm_b a b;
    }
  in
  let finish verdict divergence =
    {
      rp_verdict = verdict;
      rp_divergence = divergence;
      rp_events = (a.r_total, b.r_total);
      rp_insns = (a.r_insns, b.r_insns);
      rp_stops = (a.r_stop, b.r_stop);
    }
  in
  (* scan the common prefix for the first mismatch *)
  let rec scan i =
    if i >= n then None
    else
      match (a.r_events.(i), b.r_events.(i)) with
      (* fuel exhaustion anywhere is truncation, never divergence: the
         exhausted side might have matched had it been allowed to continue
         (the edited image legitimately executes more instructions) *)
      | Emu.Ob_fuel _, _ | _, Emu.Ob_fuel _ -> Some (`Fuel, i)
      | ea, eb -> (
          match same_event ~norm_a ~norm_b ea eb with
          | Ok () -> scan (i + 1)
          | Error (cls, what) -> Some (`Mismatch (cls, what), i))
  in
  (* a mismatch whose edited-side event is recognizable instrumentation
     traffic is the edit breaking its contract, not the program changing
     behaviour; anchor the report at the offending edited-side pc *)
  let classify cls i what =
    match event_at b i with
    | Some ev when suspect ev ->
        finish Contract_violation
          (Some
             (mk_divergence ~pc:(Emu.obs_pc ev) D_contract i
                ("undeclared side effect: " ^ what)))
    | _ -> finish (Diverged cls) (Some (mk_divergence cls i what))
  in
  match scan 0 with
  | Some (`Fuel, i) ->
      (* both-fuel at the same index is the canonical fuel-truncated-equal;
         asymmetric fuel (one side exhausted where the other kept going) is
         still truncation, not refutation *)
      ignore i;
      finish Fuel_truncated_equal None
  | Some (`Mismatch (cls, what), i) -> classify cls i what
  | None ->
      if na <> nb then
        if a.r_truncated || b.r_truncated then finish Fuel_truncated_equal None
        else
          (* a complete log always ends in a terminal event, and terminal
             events stop execution — a longer log with an identical prefix
             means the shorter side stopped where the longer continued *)
          classify D_kind n
            (Printf.sprintf "%d observable events vs %d" a.r_total b.r_total)
      else if a.r_truncated || b.r_truncated then finish Fuel_truncated_equal None
      else
        match (a.r_stop, b.r_stop) with
        | S_fuel, _ | _, S_fuel -> finish Fuel_truncated_equal None
        | S_fault _, S_fault _ -> finish Both_fault None
        | S_exit _, S_exit _ ->
            if String.equal a.r_out b.r_out then finish Equivalent None
            else
              finish (Diverged D_value)
                (Some
                   (mk_divergence D_value n
                      (Printf.sprintf "output differs (%d vs %d bytes)"
                         (String.length a.r_out) (String.length b.r_out))))
        | _ ->
            (* equal logs but different stop kinds cannot happen (the stop
               is itself the final event); keep the comparator total *)
            finish (Diverged D_kind)
              (Some (mk_divergence D_kind (max 0 (n - 1)) "terminal mismatch"))

(** {1 Metrics} *)

let publish ?(prefix = "eel.diff") (rp : report) =
  let c name = Metrics.incr (Metrics.counter (prefix ^ "." ^ name)) in
  c "runs";
  (match rp.rp_verdict with
  | Equivalent -> c "equivalent"
  | Fuel_truncated_equal -> c "fuel_truncated_equal"
  | Both_fault -> c "both_fault"
  | Contract_violation -> c "contract_violation"
  | Diverged cls ->
      c "diverged";
      c ("class." ^ dclass_name cls));
  match rp.rp_divergence with
  | Some dv ->
      Metrics.set
        (Metrics.gauge (prefix ^ ".last_divergence_pc"))
        (float_of_int dv.dv_pc)
  | None -> ()

let obs_kind_name : Emu.obs_event -> string = function
  | Emu.Ob_trap _ -> "trap"
  | Emu.Ob_store _ -> "store"
  | Emu.Ob_syscall _ -> "syscall"
  | Emu.Ob_exit _ -> "exit"
  | Emu.Ob_fault _ -> "fault"
  | Emu.Ob_fuel _ -> "fuel"

(* stable first-word tag of a fault message: "illegal", "misaligned",
   "memory", "division", ... *)
let fault_tag what =
  match String.index_opt what ' ' with
  | Some i -> String.sub what 0 i
  | None -> what

(** [coverage_signature rp] — the report compressed to a stable coverage
    key for the mutation scheduler: the verdict, refined by the diverging
    event's kind ([diverged:value-mismatch:store]) or, for both-fault, the
    fault category ([both-fault:illegal]). Finer than {!verdict_name} so
    rich mutation classes keep discovering new behaviour worth budget. *)
let coverage_signature rp =
  match rp.rp_verdict with
  | Diverged cls ->
      let kind =
        match rp.rp_divergence with
        | Some { dv_orig = Some ev; _ } -> ":" ^ obs_kind_name ev
        | Some { dv_edit = Some ev; _ } -> ":" ^ obs_kind_name ev
        | _ -> ""
      in
      "diverged:" ^ dclass_name cls ^ kind
  | Contract_violation -> (
      match rp.rp_divergence with
      | Some { dv_edit = Some ev; _ } ->
          "contract-violation:" ^ obs_kind_name ev
      | _ -> "contract-violation:check")
  | Both_fault -> (
      match rp.rp_stops with
      | S_fault wa, _ -> "both-fault:" ^ fault_tag wa
      | _, S_fault wb -> "both-fault:" ^ fault_tag wb
      | _ -> "both-fault")
  | v -> verdict_name v

(** {1 Image-level comparison and the round-trip oracle} *)

(* Load both images into address spaces of identical size, so the initial
   stack pointers (and hence all stack traffic) coincide. *)
let equalized_headroom a b =
  let ha = Sef.high_addr a and hb = Sef.high_addr b in
  let top = max ha hb + Emu.default_headroom in
  (top - ha, top - hb)

(** [compare_images ?fuel ?limit ?norm_b ?block_of a b] runs two arbitrary
    images under the shared fuel budget and compares their observable
    behaviour. Used directly by the fuzz driver (mutant vs. its own no-op
    edited form) and by tests seeding known semantics-changing mutants. *)
let compare_images ?fuel ?limit ?norm_b ?block_of (a : Sef.t) (b : Sef.t) :
    (report, Diag.error) result =
  Trace.with_span "diff.compare" @@ fun () ->
  let head_a, head_b = equalized_headroom a b in
  match execute ?fuel ?limit ~headroom:head_a a with
  | Error e -> Error e
  | Ok ra -> (
      match execute ?fuel ?limit ~headroom:head_b b with
      | Error e -> Error e
      | Ok rb ->
          let rp = compare_runs ?norm_b ?block_of ra rb in
          publish rp;
          Ok rp)

(** [identity_roundtrip ?fuel ?limit ?diag ?budget ~mach exe] — the paper's
    correctness claim, made executable. The executable is pushed through
    the whole pipeline with {e no} edits accumulated: open (symbol-table
    refinement), every routine's CFG built and the hidden-routine queue
    drained, layout, post-edit invariant verification ({!Eel.Edit.verify},
    automatic — violations surface as [Error (Invariant_error _)], never as
    exceptions), image emission. Then original and edited images run under
    the same fuel budget and must be event-equivalent.

    [Ok report] describes the comparison; [Error e] means some front-end
    stage refused the input with a structured diagnostic — the oracle
    degrades exactly like the rest of the never-crash front end. *)
let identity_roundtrip ?fuel ?limit ?diag ?budget ~mach (exe : Sef.t) :
    (report, Diag.error) result =
  Trace.with_span "diff.oracle" @@ fun () ->
  let front =
    Diag.guard (fun () ->
        match E.open_exe ?diag ?budget mach exe with
        | Error e -> Diag.fail e
        | Ok t ->
            (* force every CFG and drain hidden-routine discovery: the
               no-op edit must cover the whole program *)
            ignore (E.jump_stats t);
            let edited =
              Trace.with_span "diff.emit" (fun () -> E.to_edited_sef t ())
            in
            (t, edited))
  in
  match front with
  | Error e -> Error e
  | Ok (t, edited) ->
      (* an edited run that spills a code pointer (return address) observes
         the edited address; map it back before comparing *)
      let norm_b = E.inverse_address_norm t in
      let block_of pc = E.block_of_addr t pc in
      let head_a, head_b = equalized_headroom exe edited in
      (match
         Trace.with_span "diff.run.original" (fun () ->
             execute ?fuel ?limit ~headroom:head_a exe)
       with
      | Error e -> Error e
      | Ok ra -> (
          match
            Trace.with_span "diff.run.edited" (fun () ->
                execute ?fuel ?limit ~headroom:head_b edited)
          with
          | Error e -> Error e
          | Ok rb ->
              let rp = compare_runs ~norm_b ~block_of ra rb in
              publish rp;
              Ok rp))

(** {1 The contract oracle: verifying real edits}

    {!identity_roundtrip} certifies the no-op edit; {!verify_edit} certifies
    a {e real} one. The tool supplies its {!Contract} alongside the edited
    image; the oracle then:

    + runs the original with ground-truth profiling on;
    + runs the edited image with the contract installed as the emulator's
      record-time event filter, so declared instrumentation traffic
      (counter stores, trace-buffer appends, red-zone spills) never enters
      the log — what remains must match the original event-for-event;
    + normalizes the original's store addresses under the contract's
      [addr_norm] (SFI's clamp) and the edited side's values under the
      inverse address map, exactly like the identity oracle;
    + classifies any mismatching edited-side store to an address the
      original run never touched as a {!Contract_violation} — the edit
      leaked an undeclared side effect — rather than a program divergence;
    + on equivalence, runs the contract's post-run checks (qpt2's counter
      words vs the profile's ground truth), demoting a broken promise to
      {!Contract_violation} as well.

    Results are published under [eel.equiv.*]. *)

(** A {!report} plus how much edited-run traffic the contract masked —
    "equivalent" always comes with "and this much was masked to get there". *)
type edit_report = {
  er_report : report;
  er_masked : int;  (** edited-run events filtered under the contract *)
  er_masked_stores : int;  (** masked events that were stores *)
  er_masked_traps : int;  (** masked events that were traps *)
  er_masked_sys : int;
      (** masked syscall events: the edited run's filtered denials plus
          the original-side calls dropped under a declared suppression *)
  er_profile_orig : Emu.profile option;
      (** the original run's ground-truth profile (always collected) *)
  er_profile_edit : Emu.profile option;
      (** the edited run's profile, when [~profiles:true]; the overhead
          ledger diffs the two *)
}

(** [os] runs both sides under the OS layer with that world spec; [os_b]
    overrides the {e edited} side's spec (SFI interposition verifies the
    edited image under a deny policy while the original runs unrestricted,
    with the suppression contract-declared). *)
let verify_edit ?fuel ?limit ?(norm_b = fun v -> v) ?block_of ?pokes_b
    ?(profiles = false) ?os ?os_b ~(contract : Contract.t) (orig : Sef.t)
    (edited : Sef.t) : (edit_report, Diag.error) result =
  Trace.with_span "equiv.verify"
    ~args:[ ("tool", contract.Contract.ct_tool) ]
  @@ fun () ->
  let head_a, head_b = equalized_headroom orig edited in
  let os_edit = match os_b with Some _ -> os_b | None -> os in
  match
    Trace.with_span "equiv.run.original" (fun () ->
        execute ?fuel ?limit ~headroom:head_a ~profile:true ?os orig)
  with
  | Error e -> Error e
  | Ok ra -> (
      let keep t ev = not (Contract.declared contract ~sp:(Emu.sp t) ev) in
      match
        Trace.with_span "equiv.run.edited" (fun () ->
            execute ?fuel ?limit ~headroom:head_b ~profile:profiles
              ~filter:keep ?pokes:pokes_b ?os:os_edit edited)
      with
      | Error e -> Error e
      | Ok rb ->
          (* the original's events as the edited program would observe
             them: store addresses pushed through the edit's transform,
             syscall fds through the fd transform *)
          let ra =
            if
              contract.Contract.ct_addr_norm <> None
              || contract.Contract.ct_fd_norm <> None
            then
              {
                ra with
                r_events =
                  Array.map (Contract.normalize_orig contract) ra.r_events;
              }
            else ra
          in
          (* a declared syscall suppression removes the matching
             {e successful} calls from the original stream post-hoc (the
             edited side's denials were filtered at record time) *)
          let suppressed_orig = ref 0 in
          let ra =
            if contract.Contract.ct_sys_suppress = None then ra
            else begin
              let keep_evs =
                Array.of_list
                  (List.filter
                     (fun ev ->
                       if Contract.suppressed_orig contract ev then begin
                         incr suppressed_orig;
                         false
                       end
                       else true)
                     (Array.to_list ra.r_events))
              in
              {
                ra with
                r_events = keep_evs;
                r_total = ra.r_total - !suppressed_orig;
              }
            end
          in
          (* an edited-side store to an address the original run never
             stores to is instrumentation traffic, not the program; an
             edited-side syscall error return the original run never
             produces for that call — or a syscall number it never makes —
             is an undeclared interposition *)
          let orig_stores = Hashtbl.create 1024 in
          let orig_sys = Hashtbl.create 16 in
          let orig_sys_err = Hashtbl.create 16 in
          Array.iter
            (function
              | Emu.Ob_store { addr; _ } -> Hashtbl.replace orig_stores addr ()
              | Emu.Ob_syscall { num; err; _ } ->
                  Hashtbl.replace orig_sys num ();
                  if err then Hashtbl.replace orig_sys_err num ()
              | _ -> ())
            ra.r_events;
          let suspect = function
            | Emu.Ob_store { addr; _ } -> not (Hashtbl.mem orig_stores addr)
            | Emu.Ob_syscall { num; err; _ } ->
                (not (Hashtbl.mem orig_sys num))
                || (err && not (Hashtbl.mem orig_sys_err num))
            | _ -> false
          in
          let rp = compare_runs ~norm_b ?block_of ~suspect ra rb in
          let rp =
            match (rp.rp_verdict, ra.r_profile) with
            | Equivalent, Some profile -> (
                match Contract.run_checks contract ~profile ~mem:rb.r_mem with
                | Ok () -> rp
                | Error what ->
                    (* event streams matched but the instrumentation's own
                       output broke its promise *)
                    {
                      rp with
                      rp_verdict = Contract_violation;
                      rp_divergence =
                        Some
                          {
                            dv_class = D_contract;
                            dv_index = Array.length rb.r_events;
                            dv_pc = 0;
                            dv_block = None;
                            dv_what = what;
                            dv_orig = None;
                            dv_edit = None;
                            dv_reg_delta = [];
                          };
                    })
            | _ -> rp
          in
          publish ~prefix:"eel.equiv" rp;
          Metrics.incr ~by:rb.r_filtered
            (Metrics.counter "eel.equiv.masked_events");
          Ok
            {
              er_report = rp;
              er_masked = rb.r_filtered + !suppressed_orig;
              er_masked_stores = rb.r_filtered_stores;
              er_masked_traps = rb.r_filtered_traps;
              er_masked_sys = rb.r_filtered_syscalls + !suppressed_orig;
              er_profile_orig = ra.r_profile;
              er_profile_edit = rb.r_profile;
            })

(** {1 Rendering} *)

let pp_divergence fmt dv =
  Format.fprintf fmt "%s at event %d, pc 0x%x" (dclass_name dv.dv_class)
    dv.dv_index dv.dv_pc;
  (match dv.dv_block with
  | Some (rname, bid) -> Format.fprintf fmt " (%s, block %d)" rname bid
  | None -> ());
  Format.fprintf fmt ": %s" dv.dv_what;
  match dv.dv_reg_delta with
  | [] -> ()
  | ds ->
      let shown = List.filteri (fun i _ -> i < 6) ds in
      Format.fprintf fmt "; regs differ:";
      List.iter
        (fun (r, va, vb) ->
          Format.fprintf fmt " r%d=0x%x/0x%x" r va vb)
        shown;
      if List.length ds > 6 then
        Format.fprintf fmt " (+%d more)" (List.length ds - 6)

let pp_report fmt rp =
  let ea, eb = rp.rp_events and ia, ib = rp.rp_insns in
  Format.fprintf fmt "%s (events %d/%d, insns %d/%d)"
    (verdict_name rp.rp_verdict) ea eb ia ib;
  match rp.rp_divergence with
  | Some dv -> Format.fprintf fmt "@\n  %a" pp_divergence dv
  | None -> ()

(* machine-readable verdicts (eel_diff --json) *)

let esc s = Trace.json_escape s

let stop_to_json = function
  | S_exit c -> Printf.sprintf {|{"kind":"exit","code":%d}|} c
  | S_fault m -> Printf.sprintf {|{"kind":"fault","what":"%s"}|} (esc m)
  | S_fuel -> {|{"kind":"fuel"}|}

let divergence_to_json dv =
  let block =
    match dv.dv_block with
    | Some (rname, bid) -> Printf.sprintf {|["%s",%d]|} (esc rname) bid
    | None -> "null"
  in
  Printf.sprintf
    {|{"class":"%s","index":%d,"pc":%d,"block":%s,"what":"%s"}|}
    (dclass_name dv.dv_class) dv.dv_index dv.dv_pc block (esc dv.dv_what)

(** [report_to_json ?masked rp] — one report as a JSON object (verdict,
    per-side event/instruction totals, stops, masked-event count, and the
    first divergence when there is one). *)
let report_to_json ?(masked = 0) rp =
  let ea, eb = rp.rp_events and ia, ib = rp.rp_insns in
  let sa, sb = rp.rp_stops in
  Printf.sprintf
    {|{"verdict":"%s","events":[%d,%d],"insns":[%d,%d],"masked":%d,"stops":[%s,%s],"divergence":%s}|}
    (verdict_name rp.rp_verdict) ea eb ia ib masked (stop_to_json sa)
    (stop_to_json sb)
    (match rp.rp_divergence with
    | Some dv -> divergence_to_json dv
    | None -> "null")
