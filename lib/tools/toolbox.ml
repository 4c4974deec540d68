(** Toolbox — one door to every tool in lib/tools, for the equivalence
    oracle's drivers.

    [eel_diff --tool NAME], [eel_fuzz --diff --tool NAME], the benchmark
    harness and the tests all need the same four things from a tool: the
    edited image, the tool's {!Eel_equiv.Contract}, a value normalizer
    mapping edited code addresses back to original ones, and a CFG anchor
    for divergence reports. {!apply} packages them uniformly so a driver
    can iterate tools by name. *)

module E = Eel.Executable
module Contract = Eel_equiv.Contract

type applied = {
  ap_tool : string;
  ap_edited : Eel_sef.Sef.t;
  ap_contract : Contract.t;
  ap_norm_b : int -> int;  (** edited-side value normalizer *)
  ap_block_of : int -> (string * int) option;
  ap_sites : int;  (** instrumentation sites placed, for reporting *)
  ap_edited_addr : int -> int option;
      (** original instruction address → its edited location; the
          fault-injection campaign uses it to overwrite the edited form of
          an instruction the original run is known to execute *)
  ap_targets : unit -> (string * int * int) list;
      (** (label, word address, skew value): instrumentation words whose
          corruption the tool's own contract checks are guaranteed to
          catch — the count-skew fault class's menu. Built on demand:
          only the fault campaign reads it, and it labels every counter *)
  ap_growth : (string * int * int) list;
      (** per-routine static cost, [(name, original bytes, edited bytes)]
          ({!E.edited_growth}); empty for tools with no EEL placement
          (oldqpt patches in place through its own map) *)
}

(** Tool names {!apply} accepts, in presentation order. *)
let names = [ "qpt2"; "oldqpt"; "tracer"; "sfi"; "amemory"; "optprof" ]

let of_exec ?(targets = fun () -> []) tool (exec : E.t) edited contract sites =
  {
    ap_tool = tool;
    ap_edited = edited;
    ap_contract = contract;
    ap_norm_b = E.inverse_address_norm exec;
    ap_block_of = (fun a -> E.block_of_addr exec a);
    ap_sites = sites;
    ap_edited_addr = (fun a -> E.edited_addr exec a);
    ap_targets = targets;
    ap_growth = E.edited_growth exec;
  }

(** [apply name mach exe] instruments [exe] with the named tool and
    packages the result for the oracle. [Error _] is reserved for unknown
    tool names and a bad SFI segment; tool failures propagate as the front
    end's structured exceptions (callers run under
    {!Eel_robust.Diag.guard}).

    [sfi_base]/[sfi_size] configure SFI's sandbox: the size must be a
    positive power of two and the base a non-negative multiple of it. The
    default segment ([0, 64 MiB)) covers every address the emulator can
    reach in an oracle run, making the clamp the identity — the right
    configuration for equivalence checking, where the question is "does
    sandboxing change anything it should not?". *)
let apply ?(sfi_base = 0) ?(sfi_size = 1 lsl 26) name mach exe :
    (applied, string) result =
  if sfi_size <= 0 || sfi_size land (sfi_size - 1) <> 0 then
    Error (Printf.sprintf "sfi_size %d is not a positive power of two" sfi_size)
  else if sfi_base < 0 || sfi_base land (sfi_size - 1) <> 0 then
    Error
      (Printf.sprintf "sfi_base %d is not a non-negative multiple of sfi_size %d"
         sfi_base sfi_size)
  else
    match name with
    | "qpt2" ->
        let p = Qpt2.instrument mach exe in
        Ok
          (of_exec "qpt2" p.Qpt2.exec p.Qpt2.edited (Qpt2.contract p)
             (List.length p.Qpt2.counters)
             ~targets:(fun () -> Qpt2.fault_targets p))
    | "oldqpt" ->
        let p = Oldqpt.instrument exe in
        (* oldqpt is not EEL-based: no Executable.t to anchor blocks or map
           addresses, so its own rev_map stands in for both normalizers *)
        let fwd = Hashtbl.create 64 in
        Hashtbl.iter
          (fun edited orig ->
            if not (Hashtbl.mem fwd orig) then Hashtbl.add fwd orig edited)
          p.Oldqpt.rev_map;
        Ok
          {
            ap_tool = "oldqpt";
            ap_edited = p.Oldqpt.edited;
            ap_contract = Oldqpt.contract p;
            ap_norm_b = Oldqpt.inverse_address_norm p;
            ap_block_of = (fun _ -> None);
            ap_sites = List.length p.Oldqpt.counters;
            ap_edited_addr = (fun a -> Hashtbl.find_opt fwd a);
            ap_targets = (fun () -> Oldqpt.fault_targets p);
            ap_growth = [];
          }
    | "tracer" ->
        let p = Tracer.instrument mach exe in
        Ok
          (of_exec "tracer" p.Tracer.exec p.Tracer.edited (Tracer.contract p)
             p.Tracer.instrumented
             ~targets:(fun () -> Tracer.fault_targets p))
    | "sfi" ->
        let p = Sfi.instrument mach exe ~seg_base:sfi_base ~seg_size:sfi_size in
        Ok
          (of_exec "sfi" p.Sfi.exec p.Sfi.edited (Sfi.contract p) p.Sfi.guarded
             ~targets:(fun () -> Sfi.fault_targets p))
    | "amemory" ->
        let p = Amemory.instrument mach exe in
        Ok
          (of_exec "amemory" p.Amemory.exec p.Amemory.edited
             (Amemory.contract p) p.Amemory.instrumented
             ~targets:(fun () -> Amemory.fault_targets p))
    | "optprof" ->
        let p = Optprof.instrument mach exe in
        Ok
          (of_exec "optprof" p.Optprof.exec p.Optprof.edited
             (Optprof.contract p) p.Optprof.n_counters
             ~targets:(fun () -> Optprof.fault_targets p))
    | _ ->
        Error
          (Printf.sprintf "unknown tool %s (expected one of: %s)" name
             (String.concat ", " names))

(** {1 Measured application: apply + verify + overhead accounting} *)

module Diag = Eel_robust.Diag
module Diffexec = Eel_diffexec.Diffexec
module Emu = Eel_emu.Emu
module Ledger = Eel_obs.Ledger
module Sef = Eel_sef.Sef
module Os_spec = Eel_os.Spec
module Policy = Eel_os.Policy

type measured = {
  ms_applied : applied;
  ms_report : Diffexec.edit_report;
  ms_entry : Ledger.entry;
}

(* The ledger's zero-unexplained identity: every store instruction emits
   exactly one observable event, and an equivalent verdict means the edited
   run's unmasked events matched the original's event-for-event — so the
   edited side's surplus store *instructions* must equal the contract's
   masked-store count. Anything left over is overhead nobody declared.
   (Trap surplus is the masked-trap count by the same argument; the profile
   can't cross-check it because its trap class counts executed [ticc]s, not
   taken ones.) *)
let ledger_entry ~prog (ap : applied) (er : Diffexec.edit_report) orig =
  let verdict =
    Diffexec.verdict_name er.Diffexec.er_report.Diffexec.rp_verdict
  in
  let po = er.Diffexec.er_profile_orig in
  let pe = er.Diffexec.er_profile_edit in
  let stat f = function Some p -> f p | None -> 0 in
  let insns = stat (fun p -> p.Emu.p_insns) in
  let unexplained =
    match (verdict, po, pe) with
    | "equivalent", Some a, Some b ->
        Emu.store_ops b - Emu.store_ops a - er.Diffexec.er_masked_stores
    | _ -> 0
  in
  {
    Ledger.le_tool = ap.ap_tool;
    le_prog = prog;
    le_verdict = verdict;
    le_sites = ap.ap_sites;
    le_bytes_orig = Sef.image_size orig;
    le_bytes_edited = Sef.image_size ap.ap_edited;
    le_routines_touched =
      List.length (List.filter (fun (_, ob, eb) -> eb > ob) ap.ap_growth);
    le_insns_orig = insns po;
    le_insns_edited = insns pe;
    le_mem_orig = stat Emu.mem_ops po;
    le_mem_edited = stat Emu.mem_ops pe;
    le_stores_masked = er.Diffexec.er_masked_stores;
    le_traps_masked = er.Diffexec.er_masked_traps;
    le_sys_masked = er.Diffexec.er_masked_sys;
    le_unexplained = unexplained;
  }

(** {1 OS-mode verification} *)

(** SFI's syscall interposition table: writes may only reach the standard
    streams; a [write] to any other descriptor is a protection fault
    ([EPERM]), exactly as its store clamp confines addresses to the
    sandbox segment. *)
let sfi_policy = Policy.Deny_write_fd_above 2

(** [os_interpose ap spec] — the OS world each side of the verification
    runs against. Every tool's edited image runs in the same world as the
    original, except SFI: its edited side runs under {!sfi_policy}, and its
    contract declares the suppression so the oracle masks exactly the
    denials the policy makes — an undeclared denial stays a
    contract-violation verdict. *)
let os_interpose (ap : applied) spec =
  if ap.ap_tool <> "sfi" then (ap, spec)
  else
    let contract =
      {
        ap.ap_contract with
        Contract.ct_sys_suppress = Some (Policy.denies sfi_policy);
      }
    in
    ({ ap with ap_contract = contract }, Os_spec.with_policy spec sfi_policy)

(** [measure ~prog name mach exe] is {!apply} + {!Diffexec.verify_edit}
    with both sides profiled, folded into the overhead-ledger entry
    [ms_entry] for [(name, prog)] and published as its tool's
    [eel.ledger.<tool>.*] counters ({!Ledger.record}). This is the one
    door for drivers that want the paper's overhead tables: eel_report,
    eel_diff --tool, and the bench equiv sweep all come through here, so
    the per-tool counters add up (and merge at pool joins, like every
    metric) no matter which driver ran. *)
let measure ?fuel ?limit ?sfi_base ?sfi_size ?pokes_b ?os ~prog name mach exe
    : (measured, Diag.error) result =
  match
    Diag.guard (fun () ->
        match apply ?sfi_base ?sfi_size name mach exe with
        | Ok ap -> ap
        | Error what -> Diag.fail (Diag.Exe_error { what }))
  with
  | Error e -> Error e
  | Ok ap -> (
      let ap, os_b =
        match os with
        | None -> (ap, None)
        | Some spec ->
            let ap, spec_b = os_interpose ap spec in
            (ap, Some spec_b)
      in
      match
        Diffexec.verify_edit ?fuel ?limit ?pokes_b ~profiles:true ?os ?os_b
          ~norm_b:ap.ap_norm_b ~block_of:ap.ap_block_of
          ~contract:ap.ap_contract exe ap.ap_edited
      with
      | Error e -> Error e
      | Ok er ->
          let entry = ledger_entry ~prog ap er exe in
          Ledger.record entry;
          Ok { ms_applied = ap; ms_report = er; ms_entry = entry })
