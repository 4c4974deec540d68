(** Systematic fault injection against the verification stack itself
    (ROADMAP: "contract-guided mutation").

    PRs 3–4 built the oracle — lockstep differential execution plus edit
    contracts — and the clean corpus verifies under it. But a green oracle
    over clean inputs proves nothing about the oracle's {e blind spots}: a
    clobbering snippet, a counter placed on live data, or a contract that
    quietly under-declares would all sail through if [verify_edit] had a
    hole shaped like them. This module manufactures exactly those known-bad
    inputs, deterministically, and demands the oracle flag every one.

    Three attack surfaces:

    - {e instrumentation mutation} (the edit lies): the edited image is
      re-patched at sites the original run provably executes — a stray
      store into live low memory, a clobbered register, an off-by-one spill
      just past the red zone, a wild trap — or the tool's own counter words
      are skewed mid-run through the emulator's fault hooks
      ({!Eel_emu.Emu.poke}).
    - {e contract mutation} (the declaration lies): a declared region is
      forgotten, a phantom region masks the program's own stores, a program
      trap number is claimed as instrumentation traffic, a store-address
      transform is claimed that the edit never applies (see
      {!Eel_equiv.Contract}'s surgery helpers).
    - {e environment faults}: fuel exhaustion at exact boundaries, image
      bit-flips, tiny observation logs, tiny work budgets, trap storms,
      wild poke plans — under the never-crash guarantee: typed
      {!Diag} errors or classified verdicts, never exceptions.

    Every fault is addressed by a {e site index} into a per-class site
    list, so a reproducer is four values — (tool, program, class, sites) —
    and rebuilding it is deterministic. {!triage} dedups flagged trials by
    (tool, divergence class, anchor pc) and {!minimize} shrinks each to a
    single site; {!repro_to_json}/{!spec_of_json} round-trip reproducers
    through the JSON artifacts CI uploads. *)

module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module Diffexec = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Toolbox = Eel_tools.Toolbox
module Contract = Eel_equiv.Contract
module Insn = Eel_sparc.Insn
module Regs = Eel_sparc.Regs
module Json = Eel_obs.Json
module Metrics = Eel_obs.Metrics

let mach = Eel_sparc.Mach.mach

(** {1 Fault classes} *)

type fclass =
  | Stray_store  (** edited insn becomes a store into live low memory *)
  | Clobber_reg  (** edited insn becomes an [%o0]-clobbering add *)
  | Redzone_spill  (** edited insn becomes a spill one slot past the zone *)
  | Wild_trap  (** edited insn becomes a trap the program never issues *)
  | Count_skew  (** an instrumentation word is corrupted mid-run *)
  | Drop_syscall  (** an executed OS-trap insn becomes a nop: dropped call *)
  | Undeclared_deny
      (** edited side runs under a denying interposition policy with no
          declared suppression — the "undeclared deny" lie on a live
          world *)
  | Forget_region  (** contract forgets a declared region *)
  | Mask_store  (** contract claims a region over live program data *)
  | Mask_trap  (** contract claims a program trap as instrumentation *)
  | Mask_sys  (** contract claims a program {e syscall} as its own *)
  | Phantom_norm  (** contract claims an addr transform the edit lacks *)

let all_classes =
  [
    Stray_store; Clobber_reg; Redzone_spill; Wild_trap; Count_skew;
    Drop_syscall; Undeclared_deny; Forget_region; Mask_store; Mask_trap;
    Mask_sys; Phantom_norm;
  ]

let class_name = function
  | Stray_store -> "stray-store"
  | Clobber_reg -> "clobber-reg"
  | Redzone_spill -> "redzone-spill"
  | Wild_trap -> "wild-trap"
  | Count_skew -> "count-skew"
  | Drop_syscall -> "drop-syscall"
  | Undeclared_deny -> "undeclared-deny"
  | Forget_region -> "forget-region"
  | Mask_store -> "mask-store"
  | Mask_trap -> "mask-trap"
  | Mask_sys -> "mask-sys"
  | Phantom_norm -> "phantom-norm"

let class_of_name s =
  List.find_opt (fun c -> class_name c = s) all_classes

(** Which of the tentpole's attack surfaces a class belongs to. *)
let surface = function
  | Stray_store | Clobber_reg | Redzone_spill | Wild_trap | Count_skew
  | Drop_syscall ->
      "edit"
  | Undeclared_deny | Forget_region | Mask_store | Mask_trap | Mask_sys
  | Phantom_norm ->
      "contract"

(** {1 Site discovery}

    Faults are only worth injecting where the program provably goes: a
    clobber in dead code is undetectable {e by design}, not an oracle blind
    spot. One profiled run of the {e original} image yields the executed
    trap sites (mapped to their edited addresses — that is where the bad
    word lands), the program's own store addresses (targets for the
    masking lie), and its trap numbers. *)

type inst = {
  i_tool : string;
  i_prog : string;
  i_orig : Sef.t;
  i_ap : Toolbox.applied;
  i_traps : (int * int) list;
      (** (edited address of an executed trap insn, its trap number),
          in first-execution order, deduplicated *)
  i_stores : int list;  (** distinct original-run store addresses *)
  i_nums : int list;  (** distinct trap numbers, first-seen order *)
  i_os : Eel_os.Spec.t option;  (** the OS world, for OS-mode programs *)
  i_sys : (int * int) list;
      (** (edited address of an executed OS-trap insn, its syscall
          number), first-execution order, deduplicated *)
  i_sys_nums : int list;  (** distinct syscall numbers, first-seen order *)
  i_sys_deny : bool;
      (** the run made a call the write-denying policy would refuse *)
  i_live_regions : int list;
      (** indices into the contract's regions that the {e edited} run
          actually stores into — forgetting a region nobody wrote is
          undetectable by design, not an oracle blind spot *)
}

(* cap per-class site lists so full-set arming and greedy minimization stay
   bounded on store- or counter-heavy programs *)
let max_sites = 6

let take n l = List.filteri (fun i _ -> i < n) l

(** [instrument ~fuel ?os tool (prog, exe)] applies [tool] and discovers
    the injectable sites from one profiled run of the original; [os] runs
    it against an OS world, adding the syscall-surface sites. *)
let instrument ~fuel ?os tool (prog, exe) : (inst, string) result =
  match
    Diag.guard (fun () ->
        match Toolbox.apply tool mach exe with
        | Ok ap -> ap
        | Error m -> Diag.fail (Diag.Exe_error { what = m }))
  with
  | Error e -> Error (Diag.error_message e)
  | Ok ap -> (
      (* the discovery run must see the same memory geometry verify_edit
         will use, or stack store addresses would not line up *)
      let head_a, head_b =
        Diffexec.equalized_headroom exe ap.Toolbox.ap_edited
      in
      (* one raw edited run (no contract filter): which declared regions
         does the instrumentation actually store into here? *)
      let live_regions =
        let regions = ap.Toolbox.ap_contract.Contract.ct_regions in
        if regions = [] then []
        else
          match
            Diffexec.execute ~fuel ~headroom:head_b ?os
              ap.Toolbox.ap_edited
          with
          | Error _ -> []
          | Ok rb ->
              Diffexec.recycle rb;
              List.mapi (fun i r -> (i, r)) regions
              |> List.filter_map (fun (i, r) ->
                     let hit = ref false in
                     Array.iter
                       (function
                         | Emu.Ob_store { addr; _ }
                           when Contract.in_region r addr ->
                             hit := true
                         | _ -> ())
                       rb.Diffexec.r_events;
                     if !hit then Some i else None)
      in
      match Diffexec.execute ~fuel ~headroom:head_a ?os exe with
      | Error e -> Error (Diag.error_message e)
      | Ok r ->
          Diffexec.recycle r;
          let traps = ref [] and stores = ref [] and nums = ref [] in
          let sys = ref [] and sys_nums = ref [] and sys_deny = ref false in
          let seen_pc = Hashtbl.create 16 in
          let seen_addr = Hashtbl.create 64 in
          let seen_sys_pc = Hashtbl.create 16 in
          Array.iter
            (function
              | Emu.Ob_trap { pc; num; _ } ->
                  if not (Hashtbl.mem seen_pc pc) then (
                    Hashtbl.add seen_pc pc ();
                    match ap.Toolbox.ap_edited_addr pc with
                    | Some epc -> traps := (epc, num) :: !traps
                    | None -> ());
                  if not (List.mem num !nums) then nums := num :: !nums
              | Emu.Ob_syscall { pc; num; a0; _ } ->
                  if not (Hashtbl.mem seen_sys_pc pc) then (
                    Hashtbl.add seen_sys_pc pc ();
                    match ap.Toolbox.ap_edited_addr pc with
                    | Some epc -> sys := (epc, num) :: !sys
                    | None -> ());
                  if not (List.mem num !sys_nums) then
                    sys_nums := num :: !sys_nums;
                  if Eel_os.Policy.denies Toolbox.sfi_policy num a0 then
                    sys_deny := true
              | Emu.Ob_store { addr; _ } ->
                  if not (Hashtbl.mem seen_addr addr) then (
                    Hashtbl.add seen_addr addr ();
                    stores := addr :: !stores)
              | _ -> ())
            r.Diffexec.r_events;
          Ok
            {
              i_tool = tool;
              i_prog = prog;
              i_orig = exe;
              i_ap = ap;
              i_traps = List.rev !traps;
              i_stores = List.rev !stores;
              i_nums = List.rev !nums;
              i_os = os;
              i_sys = List.rev !sys;
              i_sys_nums = List.rev !sys_nums;
              i_sys_deny = !sys_deny;
              i_live_regions = live_regions;
            })

(** {1 Arming a fault}

    A {e site} is an index into the class's site list for this
    instrumented program; {!arm} turns a set of sites into concrete verify
    inputs: a (possibly re-patched copy of the) edited image, a (possibly
    lying) contract, and a poke plan. *)

(* hand-assembled injected words; [Insn.encode] keeps them honest *)
let stray_addr = 64

let word_stray =
  Insn.encode
    (Insn.Mem
       { op = Insn.St; rs1 = Regs.g0; op2 = Insn.O_imm stray_addr; rd = Regs.g1 })

let word_clobber =
  Insn.encode
    (Insn.Alu { op = Insn.Add; rs1 = Regs.o0; op2 = Insn.O_imm 13; rd = Regs.o0 })

(* one word below the declared 64-byte red zone: sp-68 is program territory *)
let word_redzone =
  Insn.encode
    (Insn.Mem
       {
         op = Insn.St;
         rs1 = Regs.sp;
         op2 = Insn.O_imm (-(Eel.Snippet.red_zone + 4));
         rd = Regs.g1;
       })

let word_wild_trap ~avoid =
  let num = if avoid = 3 then 2 else 3 in
  Insn.encode (Insn.Ticc { cond = Insn.CA; rs1 = Regs.g0; op2 = Insn.O_imm num })

(* [add %g0, 0, %g0]: the nop that drops a syscall *)
let word_nop =
  Insn.encode
    (Insn.Alu { op = Insn.Add; rs1 = Regs.g0; op2 = Insn.O_imm 0; rd = Regs.g0 })

(* [Drop_syscall]'s menu: only calls whose loss leaves the program
   terminating and observably different. Dropping an [open] or [read]
   leaves a stale register driving the I/O loop, so the edited run
   spins to fuel exhaustion — the oracle rightly reports truncation,
   not divergence, and the trial proves nothing. Dropping a [write],
   [close] or [exit] keeps the read-driven control flow intact and
   surfaces as a missing event. *)
let droppable_sys (t : inst) =
  take max_sites
    (List.filter
       (fun (_, num) ->
         List.mem num
           [ Eel_os.Abi.sys_write; Eel_os.Abi.sys_close; Eel_os.Abi.sys_exit ])
       t.i_sys)

(** The class's site menu: one human-readable description per site.
    An empty list means the class does not apply to this instrumented
    program (SFI declares no regions and exposes no counters). *)
let sites (t : inst) cls : string list =
  let trap_sites () =
    take max_sites
      (List.map
         (fun (epc, num) -> Printf.sprintf "trap %d site at edited 0x%x" num epc)
         t.i_traps)
  in
  match cls with
  | Stray_store | Clobber_reg | Redzone_spill | Wild_trap -> trap_sites ()
  | Count_skew ->
      take max_sites
        (List.map (fun (label, _, _) -> label) (t.i_ap.Toolbox.ap_targets ()))
  | Drop_syscall ->
      List.map
        (fun (epc, num) ->
          Printf.sprintf "os syscall %d site at edited 0x%x" num epc)
        (droppable_sys t)
  | Undeclared_deny ->
      if t.i_sys_deny then
        [ "deny write-to-fd>2 with no declared suppression" ]
      else []
  | Mask_sys ->
      List.map
        (fun n -> Printf.sprintf "mask program syscall %d" n)
        t.i_sys_nums
  | Forget_region ->
      (* only regions the edited run stores into: forgetting a region
         nobody wrote is undetectable by design, not an oracle gap *)
      let regions = t.i_ap.Toolbox.ap_contract.Contract.ct_regions in
      List.map
        (fun i ->
          let r : Contract.region = List.nth regions i in
          "forget region " ^ r.Contract.rg_name)
        t.i_live_regions
  | Mask_store ->
      take max_sites
        (List.map
           (fun a -> Printf.sprintf "mask program store at 0x%x" a)
           t.i_stores)
  | Mask_trap ->
      List.map (fun n -> Printf.sprintf "mask program trap %d" n) t.i_nums
  | Phantom_norm ->
      if t.i_stores = [] then []
      else [ "claim addr transform (xor 4) the edit does not apply" ]

type armed = {
  a_edited : Sef.t;
  a_contract : Contract.t;
  a_pokes : Emu.poke list;
  a_os_b : Eel_os.Spec.t option;
      (** edited-side OS world override ([Undeclared_deny]) *)
  a_desc : string;
}

(** [arm t cls idxs] builds the faulted trial for site set [idxs] (indices
    into [sites t cls]; out-of-range indices are ignored). *)
let arm (t : inst) cls idxs : armed =
  let contract = t.i_ap.Toolbox.ap_contract in
  let descs = sites t cls in
  let chosen = List.filter (fun i -> i >= 0 && i < List.length descs) idxs in
  let desc =
    String.concat "; " (List.map (fun i -> List.nth descs i) chosen)
  in
  let base =
    { a_edited = t.i_ap.Toolbox.ap_edited; a_contract = contract;
      a_pokes = []; a_os_b = None; a_desc = desc }
  in
  let patch word_of =
    let edited = Mutate.copy t.i_ap.Toolbox.ap_edited in
    List.iter
      (fun i ->
        let epc, num = List.nth t.i_traps i in
        ignore (Sef.patch32 edited epc (word_of ~avoid:num)))
      chosen;
    { base with a_edited = edited }
  in
  match cls with
  | Stray_store -> patch (fun ~avoid:_ -> word_stray)
  | Clobber_reg -> patch (fun ~avoid:_ -> word_clobber)
  | Redzone_spill -> patch (fun ~avoid:_ -> word_redzone)
  | Wild_trap -> patch (fun ~avoid -> word_wild_trap ~avoid)
  | Drop_syscall ->
      let edited = Mutate.copy t.i_ap.Toolbox.ap_edited in
      let menu = droppable_sys t in
      List.iter
        (fun i ->
          let epc, _ = List.nth menu i in
          ignore (Sef.patch32 edited epc word_nop))
        chosen;
      { base with a_edited = edited }
  | Undeclared_deny ->
      if chosen = [] then base
      else
        {
          base with
          a_os_b =
            Option.map
              (fun s -> Eel_os.Spec.with_policy s Toolbox.sfi_policy)
              t.i_os;
        }
  | Mask_sys ->
      let c =
        List.fold_left
          (fun c i -> Contract.claim_sys c (List.nth t.i_sys_nums i))
          contract chosen
      in
      { base with a_contract = c }
  | Count_skew ->
      let targets = take max_sites (t.i_ap.Toolbox.ap_targets ()) in
      let pokes =
        List.map
          (fun i ->
            let _, addr, value = List.nth targets i in
            { Emu.pk_at = 0; pk_addr = addr; pk_value = value })
          chosen
      in
      { base with a_pokes = pokes }
  | Forget_region ->
      (* menu indices name live regions; map back to contract indices,
         descending, so earlier removals don't shift later ones *)
      let region_idxs = List.map (List.nth t.i_live_regions) chosen in
      let c =
        List.fold_left
          (fun c i -> Contract.forget_region c i)
          contract
          (List.sort (fun a b -> compare b a) region_idxs)
      in
      { base with a_contract = c }
  | Mask_store ->
      let c =
        List.fold_left
          (fun c i ->
            Contract.claim_region c
              (Contract.region ~name:"phantom"
                 ~lo:(List.nth t.i_stores i) ~size:4))
          contract chosen
      in
      { base with a_contract = c }
  | Mask_trap ->
      let c =
        List.fold_left
          (fun c i -> Contract.claim_trap c (List.nth t.i_nums i))
          contract chosen
      in
      { base with a_contract = c }
  | Phantom_norm ->
      if chosen = [] then base
      else
        { base with
          a_contract = Contract.claim_addr_norm contract (fun a -> a lxor 4) }

(** {1 Running one trial} *)

type attempt = {
  at_flagged : bool;  (** the oracle flagged the fault (any divergence) *)
  at_verdict : string;  (** verdict, [error:<kind>], or [crash:<what>] *)
  at_dclass : string;  (** divergence class name; [""] when none *)
  at_anchor : int;  (** divergence anchor pc; 0 when none *)
  at_signature : string;  (** coverage key for the guided hunt *)
  at_crash : bool;
}

(** [attempt ~fuel t a] runs the faulted trial under the contract oracle.
    Crashes are data — the never-crash guarantee is asserted by counting
    them, not by dying. *)
let attempt ~fuel (t : inst) (a : armed) : attempt =
  match
    try
      `R
        (Diffexec.verify_edit ~fuel ~norm_b:t.i_ap.Toolbox.ap_norm_b
           ~block_of:t.i_ap.Toolbox.ap_block_of ~pokes_b:a.a_pokes
           ?os:t.i_os ?os_b:a.a_os_b ~contract:a.a_contract t.i_orig
           a.a_edited)
    with
    | Stack_overflow -> `Crash "Stack_overflow"
    | exn -> `Crash (Printexc.to_string exn)
  with
  | `Crash what ->
      {
        at_flagged = false;
        at_verdict = "crash:" ^ what;
        at_dclass = "";
        at_anchor = 0;
        at_signature = "crash";
        at_crash = true;
      }
  | `R (Error e) ->
      let kind = Diag.error_kind e in
      {
        at_flagged = false;
        at_verdict = "error:" ^ kind;
        at_dclass = "";
        at_anchor = 0;
        at_signature = "rejected:" ^ kind;
        at_crash = false;
      }
  | `R (Ok er) ->
      let rp = er.Diffexec.er_report in
      let flagged = Diffexec.is_divergence rp.Diffexec.rp_verdict in
      let dclass, anchor =
        match rp.Diffexec.rp_divergence with
        | Some dv ->
            (Diffexec.dclass_name dv.Diffexec.dv_class, dv.Diffexec.dv_pc)
        | None -> ("", 0)
      in
      let signature =
        Diffexec.coverage_signature rp
        ^ if flagged then Printf.sprintf "@0x%x" anchor else ""
      in
      {
        at_flagged = flagged;
        at_verdict = Diffexec.verdict_name rp.Diffexec.rp_verdict;
        at_dclass = dclass;
        at_anchor = anchor;
        at_signature = signature;
        at_crash = false;
      }

(** {1 Reproducers and triage} *)

type repro = {
  rx_tool : string;
  rx_prog : string;
  rx_class : fclass;
  rx_sites : int list;  (** minimized site set (a singleton after triage) *)
  rx_desc : string;
  rx_verdict : string;
  rx_dclass : string;
  rx_anchor : int;
}

(** [minimize ~fuel t cls idxs] greedily shrinks a flagged site set to a
    single site: the first site that reproduces a divergence on its own
    wins. Falls back to the full set if no single site reproduces (a
    genuinely conjunctive fault — none of the current classes are, but the
    triage stage must not lose a reproducer to that assumption). *)
let minimize ~fuel (t : inst) cls idxs : int list * attempt option =
  match idxs with
  | [] | [ _ ] -> (idxs, None)
  | _ -> (
      let single =
        List.find_map
          (fun i ->
            let at = attempt ~fuel t (arm t cls [ i ]) in
            if at.at_flagged then Some (i, at) else None)
          idxs
      in
      match single with
      | Some (i, at) -> ([ i ], Some at)
      | None -> (idxs, None))

(** [triage rs] — dedup by (tool, divergence class, anchor pc), keeping
    the first reproducer of each equivalence class. *)
let triage (rs : repro list) : repro list =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun r ->
      let key = (r.rx_tool, r.rx_dclass, r.rx_anchor) in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.add seen key ();
        true))
    rs

let repro_to_json r =
  Printf.sprintf
    {|{"tool":"%s","program":"%s","class":"%s","sites":[%s],"desc":"%s","verdict":"%s","dclass":"%s","anchor_pc":%d}|}
    r.rx_tool r.rx_prog (class_name r.rx_class)
    (String.concat "," (List.map string_of_int r.rx_sites))
    (Eel_obs.Json.escape r.rx_desc)
    r.rx_verdict r.rx_dclass r.rx_anchor

(** What {!replay} needs back out of a reproducer artifact. *)
type spec = {
  sp_tool : string;
  sp_prog : string;
  sp_class : fclass;
  sp_sites : int list;
}

let spec_of_json (j : Json.t) : (spec, string) result =
  let str k =
    match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  in
  match (str "tool", str "program", Option.bind (str "class") class_of_name) with
  | Some tool, Some prog, Some cls ->
      let sites =
        match Json.member "sites" j with
        | Some (Json.Arr xs) ->
            List.filter_map
              (function Json.Num n -> Some (int_of_float n) | _ -> None)
              xs
        | _ -> []
      in
      if sites = [] then Error "reproducer has no sites"
      else Ok { sp_tool = tool; sp_prog = prog; sp_class = cls; sp_sites = sites }
  | _ -> Error "reproducer is missing tool/program/class"

(* resolve a program name across both corpora, with its OS world *)
let lookup_prog prog : (Sef.t * Eel_os.Spec.t option) option =
  match List.assoc_opt prog (Corpus.all ()) with
  | Some exe -> Some (exe, None)
  | None ->
      List.find_map
        (fun (n, exe, spec) -> if n = prog then Some (exe, Some spec) else None)
        (Corpus.all_os ())

(** [replay ~fuel s] deterministically rebuilds a reproducer and re-runs
    the oracle; returns the fresh attempt (flagged = reproduced) plus the
    trial description. *)
let replay ~fuel (s : spec) : (attempt * string, string) result =
  match lookup_prog s.sp_prog with
  | None -> Error (Printf.sprintf "unknown corpus program %s" s.sp_prog)
  | Some (exe, os) -> (
      match instrument ~fuel ?os s.sp_tool (s.sp_prog, exe) with
      | Error m -> Error m
      | Ok t ->
          let a = arm t s.sp_class s.sp_sites in
          Ok (attempt ~fuel t a, a.a_desc))

(** {1 The campaign} *)

(** One (tool × fault-class) cell of the canonical detection matrix. *)
type cell = {
  cl_tool : string;
  cl_prog : string;
  cl_class : fclass;
  cl_sites : int;  (** sites armed in the full-set trial *)
  cl_flagged : bool;
  cl_verdict : string;
  cl_repro : repro option;  (** minimized, present iff flagged *)
}

(* the canonical matrix program: recursion, branches, stores, two trap
   numbers — every non-OS fault class has live sites on it *)
let matrix_prog = "fib"

(* the OS matrix program: open/read/write/close over a real file, with
   writes the deny policy refuses — every OS-surface class has live sites *)
let os_matrix_prog = "os-copy"

let instrument_all ~fuel tools =
  let progs = Corpus.all () in
  let exe = List.assoc matrix_prog progs in
  let os_exe, os_spec =
    match lookup_prog os_matrix_prog with
    | Some (exe, Some spec) -> (exe, spec)
    | _ -> failwith ("missing os corpus program " ^ os_matrix_prog)
  in
  List.concat_map
    (fun tool ->
      [
        (tool, instrument ~fuel tool (matrix_prog, exe));
        (tool, instrument ~fuel ~os:os_spec tool (os_matrix_prog, os_exe));
      ])
    tools

(** [matrix ~fuel insts] — for every tool and every applicable fault
    class: arm {e all} sites, demand a flagged verdict, then minimize to a
    single-site reproducer. The acceptance gate is
    [List.for_all (fun c -> c.cl_flagged) cells]. *)
let matrix ~fuel (insts : (string * (inst, string) result) list) : cell list =
  List.concat_map
    (fun (tool, it) ->
      match it with
      | Error m ->
          [
            {
              cl_tool = tool;
              cl_prog = matrix_prog;
              cl_class = Stray_store;
              cl_sites = 0;
              cl_flagged = false;
              cl_verdict = "error:" ^ m;
              cl_repro = None;
            };
          ]
      | Ok t ->
          List.filter_map
            (fun cls ->
              let menu = sites t cls in
              if menu = [] then None
              else
                let idxs = List.init (List.length menu) Fun.id in
                let full = attempt ~fuel t (arm t cls idxs) in
                let repro =
                  if not full.at_flagged then None
                  else
                    let min_sites, min_at = minimize ~fuel t cls idxs in
                    let at = Option.value ~default:full min_at in
                    let a = arm t cls min_sites in
                    Some
                      {
                        rx_tool = tool;
                        rx_prog = t.i_prog;
                        rx_class = cls;
                        rx_sites = min_sites;
                        rx_desc = a.a_desc;
                        rx_verdict = at.at_verdict;
                        rx_dclass = at.at_dclass;
                        rx_anchor = at.at_anchor;
                      }
                in
                Some
                  {
                    cl_tool = tool;
                    cl_prog = t.i_prog;
                    cl_class = cls;
                    cl_sites = List.length idxs;
                    cl_flagged = full.at_flagged;
                    cl_verdict = full.at_verdict;
                    cl_repro = repro;
                  })
            all_classes)
    insts

(** [hunt ~fuel ~budget insts] — the coverage-guided stage: the scheduler
    runs over (tool × fault-class) arms with sites cycled within each arm,
    hunting {e distinct violation signatures}
    (verdict refined by divergence kind and anchor pc) exactly as the SEF
    fuzzing loop hunts diagnostic signatures. Returns the flagged
    single-site reproducers, the distinct-signature count, the attempt
    count, and how many trials crashed. *)
let hunt ~fuel ~budget (insts : (string * (inst, string) result) list) :
    repro list * int * int * int =
  let good =
    Array.of_list
      (List.filter_map
         (fun (tool, it) ->
           match it with Ok t -> Some (tool, t) | Error _ -> None)
         insts)
  in
  (* arms are (inst index, class): a tool appears once per instrumented
     program (fib and the OS matrix program), so the index — not the tool
     name — addresses the instrumentation *)
  let arms =
    List.concat_map
      (fun gi ->
        let _, t = good.(gi) in
        List.filter_map
          (fun cls -> if sites t cls = [] then None else Some (gi, cls))
          all_classes)
      (List.init (Array.length good) Fun.id)
  in
  if arms = [] || budget <= 0 then ([], 0, 0, 0)
  else begin
    let sched =
      Sched.make ~prefix:"eel.inject.cover"
        ~label:(fun (gi, cls) ->
          let tool, t = good.(gi) in
          Printf.sprintf "%s:%s:%s" tool t.i_prog (class_name cls))
        (Array.of_list arms)
    in
    let repros = ref [] and crashes = ref 0 in
    for _ = 1 to budget do
      let (gi, cls) as a = Sched.next sched in
      let tool, t = good.(gi) in
      let menu = sites t cls in
      let site = Sched.attempts_of sched a mod List.length menu in
      let armed = arm t cls [ site ] in
      let at = attempt ~fuel t armed in
      if at.at_crash then incr crashes;
      if at.at_flagged then
        repros :=
          {
            rx_tool = tool;
            rx_prog = t.i_prog;
            rx_class = cls;
            rx_sites = [ site ];
            rx_desc = armed.a_desc;
            rx_verdict = at.at_verdict;
            rx_dclass = at.at_dclass;
            rx_anchor = at.at_anchor;
          }
          :: !repros;
      ignore (Sched.observe sched a ~signature:at.at_signature)
    done;
    (List.rev !repros, Sched.distinct sched, budget, !crashes)
  end

(** [clean_sweep ~fuel tools] — the false-positive gate: every tool over
    every corpus program (base and OS-mode), {e unmodified}, must verify
    without a divergence or violation. OS-mode trials go through
    {!Toolbox.measure} so SFI gets its interposition world and declared
    suppression, exactly as the drivers run it. Returns (trials, false
    violations, crashes). *)
let clean_sweep ~fuel tools : int * int * int =
  let progs = Corpus.all () in
  let os_progs = Corpus.all_os () in
  let total = ref 0 and bad = ref 0 and crashes = ref 0 in
  List.iter
    (fun tool ->
      List.iter
        (fun (prog, exe) ->
          incr total;
          match
            try
              `R
                (Diag.guard (fun () ->
                     match Toolbox.apply tool mach exe with
                     | Ok ap -> ap
                     | Error m -> Diag.fail (Diag.Exe_error { what = m })))
            with exn -> `Crash (Printexc.to_string exn)
          with
          | `Crash _ -> incr crashes
          | `R (Error _) -> incr bad
          | `R (Ok ap) -> (
              match
                try
                  `R
                    (Diffexec.verify_edit ~fuel ~norm_b:ap.Toolbox.ap_norm_b
                       ~block_of:ap.Toolbox.ap_block_of
                       ~contract:ap.Toolbox.ap_contract exe
                       ap.Toolbox.ap_edited)
                with exn -> `Crash (Printexc.to_string exn)
              with
              | `Crash _ -> incr crashes
              | `R (Error _) -> incr bad
              | `R (Ok er) ->
                  if
                    Diffexec.is_divergence
                      er.Diffexec.er_report.Diffexec.rp_verdict
                  then (
                    ignore prog;
                    incr bad)))
        progs;
      List.iter
        (fun (prog, exe, spec) ->
          incr total;
          match
            try `R (Toolbox.measure ~fuel ~os:spec ~prog tool mach exe)
            with exn -> `Crash (Printexc.to_string exn)
          with
          | `Crash _ -> incr crashes
          | `R (Error _) -> incr bad
          | `R (Ok ms) ->
              if ms.Toolbox.ms_entry.Eel_obs.Ledger.le_verdict <> "equivalent"
              then incr bad)
        os_progs)
    tools;
  (!total, !bad, !crashes)

(** {1 Environment faults}

    No detection demanded here — a bit-flip may be semantically dead, a
    fuel boundary is truncation by definition. What is demanded is the
    never-crash guarantee: every trial returns a verdict or a typed
    [Diag] error. *)

let storm_src =
  {|
        mov 200, %l0
loop:   mov 65, %o0
        ta 3
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 1
        nop
|}

(** [env_sweep ~seed ~fuel ()] returns (trials, crashes). *)
let env_sweep ~seed ~fuel () : int * int =
  let trials = ref 0 and crashes = ref 0 in
  let guard f =
    incr trials;
    try ignore (f ())
    with exn ->
      incr crashes;
      Printf.eprintf "env trial %d crashed: %s\n%!" !trials (Printexc.to_string exn)
  in
  let progs = Corpus.all () in
  let exe = List.assoc matrix_prog progs in
  match instrument ~fuel "qpt2" (matrix_prog, exe) with
  | Error _ ->
      (* front end refused the clean corpus program: count it and stop —
         the matrix stage will report the real failure *)
      (1, 1)
  | Ok t ->
      let verify ?fuel:f ?limit ?pokes_b edited =
        Diffexec.verify_edit
          ~fuel:(Option.value ~default:fuel f)
          ?limit ?pokes_b ~norm_b:t.i_ap.Toolbox.ap_norm_b
          ~contract:t.i_ap.Toolbox.ap_contract t.i_orig edited
      in
      let edited = t.i_ap.Toolbox.ap_edited in
      (* fuel exhaustion at exact boundaries, including around the
         original run's full length *)
      let n =
        match Diffexec.execute ~fuel exe with
        | Ok r ->
            Diffexec.recycle r;
            r.Diffexec.r_insns
        | Error _ -> 64
      in
      List.iter
        (fun f -> guard (fun () -> verify ~fuel:(max 1 f) edited))
        [ 1; 2; 3; 17; n - 1; n; n + 1 ];
      (* tiny observation logs *)
      List.iter
        (fun limit -> guard (fun () -> verify ~limit edited))
        [ 1; 4; 64 ];
      (* image bit-flips in the edited text, through the full load path *)
      for k = 0 to 5 do
        guard (fun () ->
            let r = Mutate.rng (seed + k) in
            let bytes = Mutate.apply r Mutate.Bit_flip_text (Mutate.copy edited) in
            match Sef.load bytes with
            | Error _ -> ()
            | Ok mut -> ignore (verify mut))
      done;
      (* bit-flipped originals pushed through carve + edit (the front end
         under Diag.guard), not just the emulator *)
      for k = 0 to 3 do
        guard (fun () ->
            let r = Mutate.rng (seed + 100 + k) in
            let bytes = Mutate.apply r Mutate.Bit_flip_text (Mutate.copy exe) in
            match Sef.load bytes with
            | Error _ -> ()
            | Ok mut ->
                ignore
                  (Diag.guard (fun () ->
                       match Toolbox.apply "qpt2" mach mut with
                       | Ok ap -> ap
                       | Error m -> Diag.fail (Diag.Exe_error { what = m }))))
      done;
      (* wild poke plans: out of range, misaligned, negative, mid-run text
         corruption — all must degrade, never raise *)
      guard (fun () ->
          verify
            ~pokes_b:
              [
                { Emu.pk_at = 0; pk_addr = -4; pk_value = 1 };
                { Emu.pk_at = 1; pk_addr = max_int - 3; pk_value = 1 };
                { Emu.pk_at = 2; pk_addr = 0x10001; pk_value = 1 };
                { Emu.pk_at = 10; pk_addr = exe.Sef.entry; pk_value = 0 };
                { Emu.pk_at = 50; pk_addr = exe.Sef.entry + 8; pk_value = 0xFFFFFFFF };
              ]
            edited);
      (* tiny work budgets through the whole front end *)
      List.iter
        (fun b ->
          guard (fun () ->
              Diffexec.identity_roundtrip ~fuel
                ~budget:(Diag.budget ~stage:"inject-env" b)
                ~mach exe))
        [ 64; 4096; 1 lsl 20 ];
      (* trap storm under a tiny observation log *)
      guard (fun () ->
          match Eel_sparc.Asm.assemble storm_src with
          | Error m -> failwith m
          | Ok storm -> (
              match instrument ~fuel "qpt2" ("storm", storm) with
              | Error _ -> ()
              | Ok st ->
                  ignore
                    (Diffexec.verify_edit ~fuel ~limit:128
                       ~norm_b:st.i_ap.Toolbox.ap_norm_b
                       ~contract:st.i_ap.Toolbox.ap_contract storm
                       st.i_ap.Toolbox.ap_edited)));
      (!trials, !crashes)

(** {1 The whole campaign} *)

type outcome = {
  o_cells : cell list;
  o_repros : repro list;  (** deduped, minimized, matrix + hunt *)
  o_injected : int;  (** matrix cells armed *)
  o_caught : int;  (** matrix cells flagged *)
  o_crashes : int;  (** crashes anywhere in the campaign *)
  o_hunt_attempts : int;
  o_hunt_distinct : int;
  o_clean_total : int;
  o_clean_bad : int;  (** clean-corpus false violations (must be 0) *)
  o_env_trials : int;
}

(** Did the campaign meet the acceptance bar? 100% detection, zero
    crashes, zero false violations. *)
let passed o =
  o.o_caught = o.o_injected && o.o_injected > 0 && o.o_crashes = 0
  && o.o_clean_bad = 0

let publish (o : outcome) =
  let g name v = Metrics.set (Metrics.gauge ("eel.inject." ^ name)) (float_of_int v) in
  g "injected" o.o_injected;
  g "caught" o.o_caught;
  g "crashes" o.o_crashes;
  g "clean_bad" o.o_clean_bad;
  g "hunt_distinct" o.o_hunt_distinct;
  g "reproducers" (List.length o.o_repros);
  List.iter
    (fun c ->
      g
        (Printf.sprintf "%s.%s" c.cl_tool (class_name c.cl_class))
        (if c.cl_flagged then 1 else 0))
    o.o_cells

(** [campaign ?seed ?fuel ?budget ()] — matrix, guided hunt, clean sweep
    and environment sweep, in that order; reproducers triaged across the
    matrix and the hunt. *)
let campaign ?(seed = 42) ?(fuel = Diffexec.default_fuel) ?(budget = 48) () :
    outcome =
  let insts = instrument_all ~fuel Toolbox.names in
  let cells = matrix ~fuel insts in
  let hunt_repros, hunt_distinct, hunt_attempts, hunt_crashes =
    hunt ~fuel ~budget insts
  in
  let clean_total, clean_bad, clean_crashes =
    clean_sweep ~fuel Toolbox.names
  in
  let env_trials, env_crashes = env_sweep ~seed ~fuel () in
  let matrix_crashes =
    List.length
      (List.filter
         (fun c ->
           String.length c.cl_verdict >= 6
           && String.sub c.cl_verdict 0 6 = "crash:")
         cells)
  in
  let repros =
    triage (List.filter_map (fun c -> c.cl_repro) cells @ hunt_repros)
  in
  let o =
    {
      o_cells = cells;
      o_repros = repros;
      o_injected = List.length cells;
      o_caught = List.length (List.filter (fun c -> c.cl_flagged) cells);
      o_crashes = matrix_crashes + hunt_crashes + clean_crashes + env_crashes;
      o_hunt_attempts = hunt_attempts;
      o_hunt_distinct = hunt_distinct;
      o_clean_total = clean_total;
      o_clean_bad = clean_bad;
      o_env_trials = env_trials;
    }
  in
  publish o;
  o
