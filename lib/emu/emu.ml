(** A SPARC V8 (integer subset) emulator.

    The paper ran original and edited executables on real SPARC hardware;
    this emulator is the repository's stand-in (see DESIGN.md). It implements
    the pc/npc delayed-control-transfer model exactly — including annulled
    delay slots — so that EEL's delay-slot CFG normalization and delay-slot
    refolding are tested against real architectural behaviour, not a
    simplification.

    Besides executing programs, the emulator serves as {e ground truth} for
    every editing experiment: it counts dynamic instructions (the basis of
    the Active Memory slowdown experiment E6), records memory events and
    per-pc execution counts (validating qpt2's edge profiles), and checks
    that edited executables produce byte-identical observable output.

    System-call convention: [ta n] with arguments in %o0–%o2 and result in
    %o0 (the trap number selects the call, statically visible to EEL):

    - [ta 1] — exit; %o0 is the exit code
    - [ta 2] — putint: print %o0 as signed decimal plus newline
    - [ta 3] — putchar: print the byte in %o0
    - [ta 4] — write: print %o1 bytes starting at address %o0
    - [ta 5] — brk: set the heap break to %o0; returns it in %o0
    - [ta 7] — cycles: return the dynamic instruction count in %o0 *)

open Eel_sparc
module W = Eel_util.Word

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

type event =
  | Ev_exec of { pc : int; word : int }
  | Ev_load of { pc : int; addr : int; width : int }
  | Ev_store of { pc : int; addr : int; width : int }

(** {1 Observable events}

    The differential oracle (lib/diffexec) compares two executions by their
    {e observable} behaviour, not their instruction streams: system calls
    with their arguments, stores with address and value, and how the run
    ended. Every way a run can end — [ta 1] exit, a machine {!Fault}, fuel
    exhaustion — flows through the same constructor set, so an event log
    always terminates in exactly one of {!Ob_exit}, {!Ob_fault} or
    {!Ob_fuel} and a comparator never has to reconcile events against
    out-of-band exceptions.

    The [pc] carried by each event is the address the {e emitting} image
    executed at; original and edited images run the same program at
    different addresses, so comparators must treat [pc] as reporting
    metadata, not as part of the observable payload. *)

type obs_event =
  | Ob_trap of { pc : int; num : int; arg : int }
      (** a [ta n] system call; [arg] is %o0 at trap time *)
  | Ob_store of { pc : int; addr : int; width : int; value : int }
      (** for [std], [value] is the even register of the pair *)
  | Ob_syscall of {
      pc : int;
      num : int;  (** OS syscall number (already decoded from the immediate) *)
      a0 : int;  (** %o0 at trap time — fd / path address / exit code *)
      a1 : int;
      a2 : int;
      ret : int;  (** %o0 after the call: result, or errno when [err] *)
      err : bool;  (** the carry flag the call left behind *)
      data : int;
          (** checksum of the bytes actually transferred (reads/writes), 0
              otherwise — catches a same-length-different-bytes divergence
              without logging payloads *)
    }
      (** an OS-layer system call dispatched by an installed trap handler
          (see {!set_trap_handler}); the full call/return pair as one
          event, so the differential oracle compares syscall {e streams} *)
  | Ob_exit of { pc : int; code : int }  (** [ta 1] *)
  | Ob_fault of { pc : int; what : string }  (** machine fault (see {!Fault}) *)
  | Ob_fuel of { pc : int }  (** the fuel budget ran out at [pc] *)

let obs_pc = function
  | Ob_trap { pc; _ }
  | Ob_store { pc; _ }
  | Ob_syscall { pc; _ }
  | Ob_exit { pc; _ }
  | Ob_fault { pc; _ }
  | Ob_fuel { pc } ->
      pc

let pp_obs fmt = function
  | Ob_trap { pc; num; arg } ->
      Format.fprintf fmt "trap %d (arg=0x%x) at 0x%x" num arg pc
  | Ob_store { pc; addr; width; value } ->
      Format.fprintf fmt "store%d [0x%x]=0x%x at 0x%x" width addr value pc
  | Ob_syscall { pc; num; a0; a1; a2; ret; err; data } ->
      Format.fprintf fmt "syscall %d (0x%x, 0x%x, 0x%x) -> %s%d [data=0x%x] at 0x%x"
        num a0 a1 a2
        (if err then "E" else "")
        ret data pc
  | Ob_exit { pc; code } -> Format.fprintf fmt "exit %d at 0x%x" code pc
  | Ob_fault { pc; what } -> Format.fprintf fmt "fault at 0x%x: %s" pc what
  | Ob_fuel { pc } -> Format.fprintf fmt "out of fuel at 0x%x" pc

(** A bounded observable-event log. The first [limit] events are retained
    verbatim; later ones are counted but dropped, so a hostile or
    store-heavy program cannot drive the oracle into unbounded allocation.
    [obs_total > List.length (obs_events l)] tells a comparator the log was
    truncated (comparisons on a truncated log are prefix comparisons). *)
type obs_log = {
  ol_limit : int;
  ol_events : obs_event Eel_util.Dyn.t;
  mutable ol_total : int;
  mutable ol_filtered : int;
      (** events suppressed by an installed {!set_obs_filter} filter; they
          consume neither the bound nor [ol_total], so a filtered log
          compares length-for-length against an unfiltered one *)
  mutable ol_filtered_stores : int;  (** filtered events that were stores *)
  mutable ol_filtered_traps : int;  (** filtered events that were traps *)
  mutable ol_filtered_syscalls : int;
      (** filtered events that were OS syscalls *)
}

let default_obs_limit = 65536

let obs_log ?(limit = default_obs_limit) () =
  {
    ol_limit = max 0 limit;
    ol_events = Eel_util.Dyn.create ();
    ol_total = 0;
    ol_filtered = 0;
    ol_filtered_stores = 0;
    ol_filtered_traps = 0;
    ol_filtered_syscalls = 0;
  }

let obs_record l ev =
  l.ol_total <- l.ol_total + 1;
  if Eel_util.Dyn.length l.ol_events < l.ol_limit then
    Eel_util.Dyn.push l.ol_events ev

(** Retained events, in execution order. *)
let obs_events l = Eel_util.Dyn.to_list l.ol_events

let obs_events_array l = Eel_util.Dyn.to_array l.ol_events

(** Total events observed, including any dropped past the bound. *)
let obs_total l = l.ol_total

let obs_truncated l = l.ol_total > Eel_util.Dyn.length l.ol_events

(** Events an installed filter suppressed (0 when no filter ran). *)
let obs_filtered l = l.ol_filtered

(** Breakdown of {!obs_filtered} by event kind — the overhead ledger's
    "extra stores" / "extra traps" columns read these directly. *)
let obs_filtered_stores l = l.ol_filtered_stores

let obs_filtered_traps l = l.ol_filtered_traps

let obs_filtered_syscalls l = l.ol_filtered_syscalls

(** {1 Execution profiling}

    The emulator is the ground truth for every editing experiment; a
    {!profile} captures that ground truth as data a tool's own measurements
    can be validated against (ISSUE 2): per-basic-block execution counts
    (qpt2's edge profiles must be consistent with them), the dynamic
    instruction-class mix, fuel consumed, and memory-operation counts.

    A {e block entry} is an instruction reached non-sequentially — the
    target of a taken control transfer, or the first instruction executed.
    Those addresses are exactly the leaders of the dynamic basic blocks. *)

let iclass_names =
  [| "alu"; "branch"; "call"; "jump"; "load"; "store"; "sethi"; "trap"; "other" |]

let iclass_of = function
  | Insn.Alu _ -> 0
  | Insn.Bicc _ -> 1
  | Insn.Call _ -> 2
  | Insn.Jmpl _ -> 3
  | Insn.Mem { op; _ } -> if Insn.mem_is_store op then 5 else 4
  | Insn.Sethi _ -> 6
  | Insn.Ticc _ -> 7
  | Insn.Invalid _ | Insn.Unimp _ | Insn.Rdy _ | Insn.Wry _ -> 8

(** One node of the calling-context tree: a routine entry address reached
    by a call, with the dynamic instructions (and class mix) attributed to
    that context and the contexts called from it. *)
type cct = {
  cc_entry : int;  (** arrival pc of the call target; -1 at the root *)
  mutable cc_self : int;
  cc_classes : int array;  (** indexed like {!iclass_names} *)
  cc_children : (int, cct) Hashtbl.t;  (** callee entry pc -> context *)
}

type cframe = { cf_node : cct; cf_ret : int (* expected return address *) }

type profile = {
  mutable p_insns : int;  (** fuel consumed (dynamic instructions) *)
  mutable p_block_entries : int;  (** non-sequential arrivals *)
  p_block_counts : (int, int) Hashtbl.t;  (** block-leader pc -> entries *)
  p_pc_counts : (int, int) Hashtbl.t;  (** pc -> execution count *)
  p_class_counts : int array;  (** indexed like {!iclass_names} *)
  mutable p_last_pc : int;
  p_root : cct;  (** calling-context tree root (the entry routine) *)
  mutable p_cur : cct;  (** context currently executing *)
  mutable p_stack : cframe list;  (** shadow call stack (callers of cur) *)
  mutable p_depth : int;
  mutable p_pending_call : int;
      (** return address of a just-executed call, [min_int] when none; the
          next block entry within the DCTI window is its callee *)
  mutable p_pending_ret : bool;
  mutable p_pending_at : int;  (** [p_insns] when the pending flag was set *)
}

let new_cct entry =
  {
    cc_entry = entry;
    cc_self = 0;
    cc_classes = Array.make (Array.length iclass_names) 0;
    cc_children = Hashtbl.create 4;
  }

let create_profile () =
  let root = new_cct (-1) in
  {
    p_insns = 0;
    p_block_entries = 0;
    p_block_counts = Hashtbl.create 256;
    p_pc_counts = Hashtbl.create 1024;
    p_class_counts = Array.make (Array.length iclass_names) 0;
    p_last_pc = min_int;
    p_root = root;
    p_cur = root;
    p_stack = [];
    p_depth = 0;
    p_pending_call = min_int;
    p_pending_ret = false;
    p_pending_at = 0;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some n -> Hashtbl.replace tbl key (n + 1)
  | None -> Hashtbl.add tbl key 1

(* Shadow-stack depth cap: beyond it, callee instructions are attributed to
   the capped context instead of pushing (runaway recursion stays bounded;
   returns past the cap still unwind by matching return addresses). *)
let max_cct_depth = 512

(* A pending call/return explains a block entry only if it fired within the
   transfer's own DCTI window (the transfer plus its delay slot). *)
let pending_live p = p.p_insns - p.p_pending_at <= 2

let profile_step p ~pc insn =
  p.p_insns <- p.p_insns + 1;
  bump p.p_pc_counts pc;
  if pc <> p.p_last_pc + 4 then begin
    p.p_block_entries <- p.p_block_entries + 1;
    bump p.p_block_counts pc;
    (* call/return bookkeeping: non-sequential arrival is where a pending
       transfer lands *)
    if p.p_pending_call <> min_int && pending_live p then begin
      if p.p_depth < max_cct_depth then begin
        let child =
          match Hashtbl.find_opt p.p_cur.cc_children pc with
          | Some c -> c
          | None ->
              let c = new_cct pc in
              Hashtbl.add p.p_cur.cc_children pc c;
              c
        in
        p.p_stack <- { cf_node = p.p_cur; cf_ret = p.p_pending_call } :: p.p_stack;
        p.p_depth <- p.p_depth + 1;
        p.p_cur <- child
      end
    end
    else if p.p_pending_ret && pending_live p then begin
      (* pop to the frame expecting this return address; unwinding through
         intermediate frames handles tail-call escapes, and a return to an
         address no frame expects (e.g. a computed jump) pops nothing *)
      let rec unwind stack depth =
        match stack with
        | fr :: rest when fr.cf_ret = pc -> Some (fr.cf_node, rest, depth - 1)
        | _ :: rest -> unwind rest (depth - 1)
        | [] -> None
      in
      match unwind p.p_stack p.p_depth with
      | Some (node, rest, depth) ->
          p.p_cur <- node;
          p.p_stack <- rest;
          p.p_depth <- depth
      | None -> ()
    end;
    p.p_pending_call <- min_int;
    p.p_pending_ret <- false
  end;
  p.p_last_pc <- pc;
  let k = iclass_of insn in
  p.p_class_counts.(k) <- p.p_class_counts.(k) + 1;
  p.p_cur.cc_self <- p.p_cur.cc_self + 1;
  p.p_cur.cc_classes.(k) <- p.p_cur.cc_classes.(k) + 1;
  (* arm call/return tracking off the instruction just recorded: call and
     call-through-register (jmpl leaving the return address in %o7/%i7)
     push on landing; any other jmpl is a potential return *)
  match insn with
  | Insn.Call _ ->
      p.p_pending_call <- pc + 8;
      p.p_pending_at <- p.p_insns
  | Insn.Jmpl { rd; _ } ->
      if rd = 15 || rd = 31 then begin
        p.p_pending_call <- pc + 8;
        p.p_pending_at <- p.p_insns
      end
      else begin
        p.p_pending_ret <- true;
        p.p_pending_at <- p.p_insns
      end
  | _ -> ()

(** Times the block led by [pc] was entered via a control transfer (or
    program start); 0 for addresses only ever reached by fall-through. *)
let block_count p pc = Option.value ~default:0 (Hashtbl.find_opt p.p_block_counts pc)

(** Times the instruction at [pc] was executed. *)
let pc_count p pc = Option.value ~default:0 (Hashtbl.find_opt p.p_pc_counts pc)

let distinct_blocks p = Hashtbl.length p.p_block_counts

(** Dynamic memory-instruction count (loads + stores). *)
let mem_ops p = p.p_class_counts.(4) + p.p_class_counts.(5)

(** Dynamic store-instruction count. Each store instruction emits exactly
    one observable event, so under an equivalent verdict the edited run's
    store surplus must equal the contract's masked-store count — the
    ledger's zero-unexplained cross-check. *)
let store_ops p = p.p_class_counts.(5)

let load_ops p = p.p_class_counts.(4)

(** Dynamic instruction mix as [(class, count)] in {!iclass_names} order. *)
let class_mix p =
  Array.to_list (Array.mapi (fun i n -> (iclass_names.(i), n)) p.p_class_counts)

(** The calling-context tree recorded by {!profile_step}: root is the entry
    routine; children are keyed by callee entry pc. *)
let profile_cct p = p.p_root

(** [profile_hotspot ?name_of ?root ?prefix p] converts the calling-context
    tree into a named {!Eel_obs.Hotspot.t}: [name_of] renders a context's
    entry pc (default hex), [root] names the entry routine, and [prefix]
    frames (e.g. the program name) wrap the whole tree so many programs can
    merge into one flamegraph. *)
let profile_hotspot ?name_of ?(root = "<entry>") ?(prefix = []) p =
  let name_of =
    match name_of with Some f -> f | None -> Printf.sprintf "0x%x"
  in
  let h = Eel_obs.Hotspot.create ~classes:iclass_names () in
  let rec walk rev_stack node =
    if node.cc_self > 0 then
      Eel_obs.Hotspot.add h ~stack:(List.rev rev_stack)
        ~classes:node.cc_classes ~self:node.cc_self ();
    (* iteration order is irrelevant: Hotspot sums commute *)
    Hashtbl.iter
      (fun entry child -> walk (name_of entry :: rev_stack) child)
      node.cc_children
  in
  walk (root :: List.rev prefix) p.p_root;
  h

(** [publish_profile p] surfaces the profile in the {!Eel_obs.Metrics}
    registry under [<prefix>.*] so traces, tools and the benchmark harness
    read emulator ground truth from the same namespace as every other
    metric. *)
let publish_profile ?(prefix = "emu") p =
  let g name v =
    Eel_obs.Metrics.set
      (Eel_obs.Metrics.gauge (prefix ^ "." ^ name))
      (float_of_int v)
  in
  g "insns" p.p_insns;
  g "block_entries" p.p_block_entries;
  g "distinct_blocks" (distinct_blocks p);
  g "mem_ops" (p.p_class_counts.(4) + p.p_class_counts.(5));
  Array.iteri (fun i n -> g ("class." ^ iclass_names.(i)) n) p.p_class_counts

type t = {
  mem : Bytes.t;
  regs : int array;  (** 34 entries: 32 GPRs + icc + y *)
  mutable pc : int;
  mutable npc : int;
  mutable exited : int option;
  mutable ninsns : int;
  mutable nloads : int;
  mutable nstores : int;
  mutable brk : int;
  output : Buffer.t;
  mutable hook : (event -> unit) option;
  mutable obs : obs_log option;  (** observable-event sink; [None] = free *)
  mutable obs_filter : (obs_event -> bool) option;
      (** when installed, an event is recorded only if the filter returns
          [true]; rejected events are tallied in the log's filtered count.
          The equivalence oracle uses this to drop an edit contract's
          declared side effects at record time (spill traffic below the
          stack pointer can only be recognized while [sp] is live). *)
  mutable profile : profile option;
  mutable text_lo : int;
  mutable text_hi : int;
  code : Insn.t array;
      (** the predecode table: one slot per word of the text span, indexed
          by [(pc - code_lo) / 4]; [[||]] when predecoding is off (or the
          text geometry ruled it out). A slot is decoded the first time it
          is fetched; until then it holds a shared "not decoded" sentinel,
          so read it only through {!code_insn}. Kept coherent with [mem] by
          {!invalidate_code}: a store landing on a decoded word resets it to
          the sentinel, so self-modifying code behaves exactly as the
          decode-per-step path. *)
  code_lo : int;  (** base address of [code]; meaningless when empty *)
  mutable pokes : poke list;
      (** pending environment faults, sorted by [pk_at]; see {!set_pokes} *)
  mutable alt_run : (int -> unit) option;
      (** alternate execution engine (the tier-2 block compiler installs
          itself here; see lib/emu/tier2.ml). {!run} dispatches to it with
          the fuel budget {e only} when no per-instruction hook, no
          profile and no poke plan is armed — those demand the
          interpreter's per-step visibility, so an armed one silently
          forces tier-1. The engine must leave [pc]/[npc]/[ninsns]
          materialized whenever it raises or returns, and must raise
          {!Fault} / {!Out_of_fuel} exactly as the interpreter would. *)
  mutable on_invalidate : (int -> unit) option;
      (** notified with the word-aligned address every time a store or
          poke lands on a decoded slot of the predecode table
          ({!invalidate_code}); the tier-2 code cache drops compiled
          blocks covering it. *)
  mutable trap_handler : (t -> int -> bool) option;
      (** optional OS layer (lib/os): consulted before the builtin [ta n]
          dispatch with the {e raw} trap number; returning [true] means the
          trap was handled (registers/memory/exit already updated and any
          {!Ob_syscall} event emitted), [false] falls through to the
          builtin convention. See {!set_trap_handler}. *)
}

(** A deterministic environment fault: when the machine has executed
    [pk_at] instructions, the 32-bit word at [pk_addr] is overwritten with
    [pk_value] — before the next instruction runs. Pokes model corruption
    arriving from {e outside} the program (the fault-injection campaign's
    image bit-flips and counter-skew attacks), so they are applied directly
    to memory: no observable event is recorded, no store count ticks. The
    predecode table {e is} kept coherent (a poke into text must
    change what executes, exactly like a program store would). A poke whose
    address is out of range or misaligned is dropped silently — a fault
    plan can never crash the machine. *)
and poke = { pk_at : int; pk_addr : int; pk_value : int }

(** Default extra space above the loaded image: heap + stack. *)
let default_headroom = 8 * 1024 * 1024

let stack_size = 1024 * 1024

(** Refuse to build images larger than this (a hostile section placed near
    the top of the 32-bit address space must fault, not drive [Bytes.make]
    into a multi-gigabyte allocation). *)
let max_image_bytes = 1024 * 1024 * 1024

(** Refuse to predecode text segments wider than this many words (16 MB of
    text). Hostile SEF geometry — a tiny text section at a huge vaddr next
    to one at a low vaddr — must not drive [Array.init] into a giant
    allocation; past the cap the emulator silently falls back to
    decode-per-step, which is always correct. *)
let max_predecode_words = 4 * 1024 * 1024

(** The predecode table's "not decoded" slot. No 32-bit word decodes to
    [Invalid (-1)] ([Insn.decode] masks its input), and slots are compared
    with [==], so a decoded word is never mistaken for it. {!code_insn}
    never returns it: no tier can execute it. *)
let undecoded = Insn.Invalid (-1)

(** [load ?headroom ?predecode exe] builds a machine state with [exe]'s
    sections copied into a flat memory image, the stack pointer at the top
    of memory, and pc at the entry point. Raises {!Fault} when the image
    cannot be built: sections with negative geometry, contents shorter than
    the declared size, or an address space larger than {!max_image_bytes}.

    With [predecode] (the default) the text span gets a predecode table
    whose slots are decoded on first fetch, so {!step} calls [Insn.decode]
    once per executed word rather than once per step, and loading decodes
    no word of text that never runs (an edited image's text span also
    covers the data regions between [.text] and [.eel.text]).
    [~predecode:false] keeps the decode-per-step behaviour (the benchmark
    harness measures one against the other). *)
let load ?(headroom = default_headroom) ?(predecode = true)
    (exe : Eel_sef.Sef.t) =
  let high = Eel_sef.Sef.high_addr exe in
  let size = high + headroom in
  if size < 0 || size > max_image_bytes then
    fault "image too large: sections end at 0x%x" high;
  let mem = Bytes.make size '\000' in
  List.iter
    (fun (s : Eel_sef.Sef.section) ->
      if s.sec_kind <> Eel_sef.Sef.Bss then (
        if s.vaddr < 0 || s.size < 0 || s.vaddr + s.size > size then
          fault "section %s does not fit the image: vaddr=0x%x size=%d"
            s.sec_name s.vaddr s.size;
        if Bytes.length s.contents < s.size then
          fault "section %s declares %d bytes but stores %d" s.sec_name s.size
            (Bytes.length s.contents);
        Bytes.blit s.contents 0 mem s.vaddr s.size))
    exe.sections;
  let regs = Array.make Regs.num_regs 0 in
  regs.(Regs.sp) <- W.mask (size - 64) land lnot 7;
  let text_lo, text_hi =
    match Eel_sef.Sef.text_sections exe with
    | [] -> (0, 0)
    | ss ->
        ( List.fold_left (fun a (s : Eel_sef.Sef.section) -> min a s.vaddr) max_int ss,
          List.fold_left
            (fun a (s : Eel_sef.Sef.section) -> max a (s.vaddr + s.size))
            0 ss )
  in
  let code =
    (* predecode only clean geometry: word-aligned base, inside the image,
       under the size cap; anything else falls back to decode-per-step *)
    if
      predecode && text_hi > text_lo
      && text_lo land 3 = 0
      && text_hi <= Bytes.length mem
      && (text_hi - text_lo) / 4 <= max_predecode_words
    then Array.make ((text_hi - text_lo) / 4) undecoded
    else [||]
  in
  {
    mem;
    regs;
    pc = exe.entry;
    npc = exe.entry + 4;
    exited = None;
    ninsns = 0;
    nloads = 0;
    nstores = 0;
    brk = high;
    output = Buffer.create 256;
    hook = None;
    obs = None;
    obs_filter = None;
    profile = None;
    text_lo;
    text_hi;
    code;
    code_lo = text_lo;
    pokes = [];
    alt_run = None;
    on_invalidate = None;
    trap_handler = None;
  }

(** [set_obs t log] installs (or, with [None], removes) the observable-event
    sink. With no sink installed the interpreter loop performs a single
    [match] per potential event and allocates nothing. *)
let set_obs t log = t.obs <- log

(** [set_obs_filter t f] installs (or removes) the record-time event filter;
    it only matters while an observable-event sink is installed. *)
let set_obs_filter t f = t.obs_filter <- f

(** [set_profile t p] installs (or removes) a ground-truth profile sink,
    like {!run_exe}'s [?profile] but usable on an already-loaded machine. *)
let set_profile t p = t.profile <- p

let obs_of t = t.obs

(* route an event through the filter; callers guard on [t.obs] first so the
   no-sink path allocates nothing *)
let obs_emit t ev =
  match t.obs with
  | None -> ()
  | Some l -> (
      match t.obs_filter with
      | Some keep when not (keep ev) -> (
          l.ol_filtered <- l.ol_filtered + 1;
          match ev with
          | Ob_store _ -> l.ol_filtered_stores <- l.ol_filtered_stores + 1
          | Ob_trap _ -> l.ol_filtered_traps <- l.ol_filtered_traps + 1
          | Ob_syscall _ ->
              l.ol_filtered_syscalls <- l.ol_filtered_syscalls + 1
          | _ -> ())
      | _ -> obs_record l ev)

let reg t r = if r = Regs.g0 then 0 else t.regs.(r)

let set_reg t r v = if r <> Regs.g0 then t.regs.(r) <- W.mask v

let check_addr t addr width =
  if addr < 0 || addr + width > Bytes.length t.mem then
    fault "memory access out of range: addr=0x%x width=%d pc=0x%x" addr width t.pc;
  if addr land (min width 4 - 1) <> 0 then
    fault "misaligned %d-byte access at 0x%x (pc=0x%x)" width addr t.pc

let load_mem t addr width ~signed =
  check_addr t addr width;
  let byte i = Char.code (Bytes.get t.mem (addr + i)) in
  let v =
    match width with
    | 1 -> byte 0
    | 2 -> (byte 0 lsl 8) lor byte 1
    | 4 -> Eel_util.Bytebuf.get32_be t.mem addr
    | _ -> assert false
  in
  if signed then W.mask (W.sext (width * 8) v) else v

(* {!code_insn}'s slow path, kept out of line *)
let decode_slot t idx =
  let insn =
    Insn.decode (Eel_util.Bytebuf.get32_be t.mem (t.code_lo + (idx lsl 2)))
  in
  Array.unsafe_set t.code idx insn;
  insn

(** [code_insn t idx] is the instruction in predecode slot [idx], which
    must be in range: decoded from [mem] and cached on first use. Inlined,
    so a fetch of a decoded slot costs one compare over a plain array
    read. *)
let[@inline] code_insn t idx =
  let insn = Array.unsafe_get t.code idx in
  if insn != undecoded then insn else decode_slot t idx

(* [check_addr] enforces natural alignment, so no store crosses a 4-byte
   boundary: a store touches exactly the word containing [addr], and
   resetting that one slot keeps the predecode table coherent. A slot that
   was never decoded needs nothing, not even the tier-2 notification: a
   compiled block covers only words its scanner read through
   {!code_insn}, so every covered word is decoded. *)
let invalidate_code t addr =
  let idx = (addr - t.code_lo) asr 2 in
  if idx >= 0 && idx < Array.length t.code && t.code.(idx) != undecoded then begin
    t.code.(idx) <- undecoded;
    match t.on_invalidate with None -> () | Some f -> f (t.code_lo + (idx lsl 2))
  end

let store_mem t addr width v =
  check_addr t addr width;
  (match width with
  | 1 -> Bytes.set t.mem addr (Char.chr (v land 0xFF))
  | 2 ->
      Bytes.set t.mem addr (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set t.mem (addr + 1) (Char.chr (v land 0xFF))
  | 4 -> Eel_util.Bytebuf.set32_be t.mem addr (W.mask v)
  | _ -> assert false);
  invalidate_code t addr

(** [set_pokes t ps] installs a fault plan (see {!poke}); the plan is
    consumed as {!run} reaches each poke's instruction count. Replaces any
    pending plan. *)
let set_pokes t ps =
  t.pokes <- List.stable_sort (fun a b -> compare a.pk_at b.pk_at) ps

(* drain every poke that has come due; bounds are checked here, not
   trusted, so a hostile plan degrades to a no-op instead of raising *)
let rec apply_pokes t =
  match t.pokes with
  | { pk_at; pk_addr; pk_value } :: rest when t.ninsns >= pk_at ->
      t.pokes <- rest;
      (* [addr <= len - 4], not [addr + 4 <= len]: the sum overflows for a
         hostile plan poking near max_int *)
      if pk_addr >= 0 && pk_addr <= Bytes.length t.mem - 4 && pk_addr land 3 = 0
      then (
        Eel_util.Bytebuf.set32_be t.mem pk_addr (W.mask pk_value);
        invalidate_code t pk_addr);
      apply_pokes t
  | _ -> ()

(** {1 Condition codes} *)

let icc_logic r =
  (if W.mask r land 0x8000_0000 <> 0 then 8 else 0) lor if W.mask r = 0 then 4 else 0

let icc_add a b r =
  let n = if r land 0x8000_0000 <> 0 then 8 else 0 in
  let z = if r = 0 then 4 else 0 in
  let v =
    if lnot (a lxor b) land (a lxor r) land 0x8000_0000 <> 0 then 2 else 0
  in
  let c = if a + b > 0xFFFF_FFFF then 1 else 0 in
  n lor z lor v lor c

let icc_sub a b r =
  let n = if r land 0x8000_0000 <> 0 then 8 else 0 in
  let z = if r = 0 then 4 else 0 in
  let v = if (a lxor b) land (a lxor r) land 0x8000_0000 <> 0 then 2 else 0 in
  let c = if a < b then 1 else 0 in
  n lor z lor v lor c

(** {1 System calls} *)

let builtin_syscall t num =
  (* trap and exit flow through the same observable-event constructor set
     as faults and fuel exhaustion; the match guard keeps the no-sink path
     allocation-free *)
  (match t.obs with
  | None -> ()
  | Some _ ->
      obs_emit t (Ob_trap { pc = t.pc; num; arg = reg t Regs.o0 });
      if num = 1 then
        obs_emit t (Ob_exit { pc = t.pc; code = reg t Regs.o0 land 0xFF }));
  match num with
  | 1 -> t.exited <- Some (reg t Regs.o0 land 0xFF)
  | 2 ->
      Buffer.add_string t.output (string_of_int (W.signed (reg t Regs.o0)));
      Buffer.add_char t.output '\n'
  | 3 -> Buffer.add_char t.output (Char.chr (reg t Regs.o0 land 0xFF))
  | 4 ->
      let addr = reg t Regs.o0 and len = reg t Regs.o1 in
      if addr < 0 || len < 0 || addr + len > Bytes.length t.mem then
        fault "write syscall out of range";
      Buffer.add_string t.output (Bytes.sub_string t.mem addr len)
  | 5 ->
      let nb = reg t Regs.o0 in
      if nb > t.brk && nb < Bytes.length t.mem - stack_size then t.brk <- nb;
      set_reg t Regs.o0 t.brk
  | 7 -> set_reg t Regs.o0 t.ninsns
  | n -> fault "unknown syscall %d at pc=0x%x" n t.pc

(* an installed OS-layer handler gets first refusal on every trap number;
   a [false] return falls through to the builtin convention above, so OS
   programs can still use e.g. [ta 2] (putint) for debugging output *)
let syscall t num =
  match t.trap_handler with
  | Some h when h t num -> ()
  | _ -> builtin_syscall t num

(** [set_trap_handler t h] installs (or, with [None], removes) an OS-layer
    trap handler (see {!type:t}'s [trap_handler]). *)
let set_trap_handler t h = t.trap_handler <- h

(** {1 Execution} *)

(* Fetch the instruction at [pc] (assumed word-aligned): a bounds-checked
   read of the predecode table, falling back to decode-per-step for
   addresses outside it (or when predecoding is off). {!code_insn}'s
   [unsafe_get] is guarded by the [idx] range check. *)
let fetch_insn t pc =
  let idx = (pc - t.code_lo) asr 2 in
  if idx >= 0 && idx < Array.length t.code then code_insn t idx
  else begin
    if pc < 0 || pc + 4 > Bytes.length t.mem then fault "pc out of range 0x%x" pc;
    Insn.decode (Eel_util.Bytebuf.get32_be t.mem pc)
  end

(* Execute a fetched instruction at [pc] and advance pc/npc. *)
let exec_insn t pc insn =
  (* default successor state *)
  let next_pc = ref t.npc in
  let next_npc = ref (t.npc + 4) in
  (match insn with
  | Insn.Invalid w -> fault "illegal instruction 0x%08x at pc=0x%x" w pc
  | Insn.Unimp i -> fault "unimp 0x%x executed at pc=0x%x" i pc
  | Insn.Sethi { rd; imm22 } -> set_reg t rd (imm22 lsl 10)
  | Insn.Rdy { rd } -> set_reg t rd t.regs.(Regs.y)
  | Insn.Wry { rs1; op2 } ->
      let v2 = match op2 with Insn.O_imm i -> W.mask i | Insn.O_reg r -> reg t r in
      t.regs.(Regs.y) <- reg t rs1 lxor v2
  | Insn.Alu { op; rs1; op2; rd } -> (
      let a = reg t rs1 in
      let b = match op2 with Insn.O_imm i -> W.mask i | Insn.O_reg r -> reg t r in
      let set v = set_reg t rd v in
      let setcc v = t.regs.(Regs.icc) <- v in
      match op with
      | Insn.Add | Insn.Save | Insn.Restore -> set (W.add a b)
      | Insn.Sub -> set (W.sub a b)
      | Insn.And -> set (a land b)
      | Insn.Or -> set (a lor b)
      | Insn.Xor -> set (a lxor b)
      | Insn.Andn -> set (a land W.mask (lnot b))
      | Insn.Orn -> set (a lor W.mask (lnot b))
      | Insn.Xnor -> set (W.mask (lnot (a lxor b)))
      | Insn.Addcc ->
          let r = W.add a b in
          set r;
          setcc (icc_add a b r)
      | Insn.Subcc ->
          let r = W.sub a b in
          set r;
          setcc (icc_sub a b r)
      | Insn.Andcc ->
          let r = a land b in
          set r;
          setcc (icc_logic r)
      | Insn.Orcc ->
          let r = a lor b in
          set r;
          setcc (icc_logic r)
      | Insn.Xorcc ->
          let r = a lxor b in
          set r;
          setcc (icc_logic r)
      | Insn.Sll -> set (W.sll a b)
      | Insn.Srl -> set (W.srl a b)
      | Insn.Sra -> set (W.sra a b)
      | Insn.Umul ->
          let p = a * b in
          t.regs.(Regs.y) <- W.mask (p lsr 32);
          set (W.mask p)
      | Insn.Smul ->
          let p = W.signed a * W.signed b in
          t.regs.(Regs.y) <- p asr 32 land W.mask32;
          set (W.mask p)
      | Insn.Udiv ->
          if b = 0 then fault "division by zero at pc=0x%x" pc;
          let dividend = (t.regs.(Regs.y) lsl 32) lor a in
          set (W.mask (dividend / b))
      | Insn.Sdiv ->
          if b = 0 then fault "division by zero at pc=0x%x" pc;
          (* signed divide of Y:rs1; we use Y's sign as the dividend sign *)
          let hi = W.signed t.regs.(Regs.y) in
          let dividend = (hi * 4294967296) + a in
          set (W.of_signed (dividend / W.signed b)))
  | Insn.Bicc { cond; annul; disp22 } ->
      let target = W.add pc (disp22 * 4) in
      if cond = Insn.CA then
        if annul then (
          (* ba,a: delay slot annulled, jump immediately *)
          next_pc := target;
          next_npc := target + 4)
        else next_npc := target
      else if cond = Insn.CN then (
        if annul then (
          (* bn,a: skip the delay slot *)
          next_pc := t.npc + 4;
          next_npc := t.npc + 8))
      else if Insn.cond_eval cond t.regs.(Regs.icc) then next_npc := target
      else if annul then (
        (* untaken annulled conditional: squash delay slot *)
        next_pc := t.npc + 4;
        next_npc := t.npc + 8)
  | Insn.Call { disp30 } ->
      set_reg t Regs.o7 pc;
      next_npc := W.add pc (disp30 * 4)
  | Insn.Jmpl { rs1; op2; rd } ->
      let b = match op2 with Insn.O_imm i -> W.mask i | Insn.O_reg r -> reg t r in
      let target = W.add (reg t rs1) b in
      set_reg t rd pc;
      next_npc := target
  | Insn.Ticc { cond; rs1; op2 } ->
      let taken =
        cond = Insn.CA || Insn.cond_eval cond t.regs.(Regs.icc)
      in
      if taken then (
        let b = match op2 with Insn.O_imm i -> i | Insn.O_reg r -> reg t r in
        syscall t (reg t rs1 + b))
  | Insn.Mem { op; rs1; op2; rd } -> (
      let b = match op2 with Insn.O_imm i -> W.mask i | Insn.O_reg r -> reg t r in
      let addr = W.add (reg t rs1) b in
      let width = Insn.mem_width op in
      if Insn.mem_is_store op then (
        t.nstores <- t.nstores + 1;
        (match t.hook with
        | None -> ()
        | Some f -> f (Ev_store { pc; addr; width }));
        match t.obs with
        | None -> ()
        | Some _ -> obs_emit t (Ob_store { pc; addr; width; value = reg t rd }))
      else (
        t.nloads <- t.nloads + 1;
        match t.hook with
        | None -> ()
        | Some f -> f (Ev_load { pc; addr; width }));
      match op with
      | Insn.Ld -> set_reg t rd (load_mem t addr 4 ~signed:false)
      | Insn.Ldub -> set_reg t rd (load_mem t addr 1 ~signed:false)
      | Insn.Ldsb -> set_reg t rd (load_mem t addr 1 ~signed:true)
      | Insn.Lduh -> set_reg t rd (load_mem t addr 2 ~signed:false)
      | Insn.Ldsh -> set_reg t rd (load_mem t addr 2 ~signed:true)
      | Insn.Ldd ->
          (* SPARC: rd must be even; an odd pair would run past %r31 into
             the emulator's icc/y slots *)
          if rd land 1 <> 0 then fault "ldd with odd rd %%r%d at pc=0x%x" rd pc;
          set_reg t rd (load_mem t addr 4 ~signed:false);
          set_reg t (rd + 1) (load_mem t (addr + 4) 4 ~signed:false)
      | Insn.St -> store_mem t addr 4 (reg t rd)
      | Insn.Stb -> store_mem t addr 1 (reg t rd)
      | Insn.Sth -> store_mem t addr 2 (reg t rd)
      | Insn.Std ->
          if rd land 1 <> 0 then fault "std with odd rd %%r%d at pc=0x%x" rd pc;
          store_mem t addr 4 (reg t rd);
          store_mem t (addr + 4) 4 (reg t (rd + 1))));
  t.pc <- !next_pc;
  t.npc <- !next_npc

(** Execute a single instruction (at [t.pc]). *)
let step t =
  let pc = t.pc in
  if pc land 3 <> 0 then fault "misaligned pc 0x%x" pc;
  (* construct the event only when a hook is installed: neither the event
     record nor the word read may cost anything on the plain path *)
  (match t.hook with
  | None -> ()
  | Some f ->
      if pc < 0 || pc + 4 > Bytes.length t.mem then
        fault "pc out of range 0x%x" pc;
      f (Ev_exec { pc; word = Eel_util.Bytebuf.get32_be t.mem pc }));
  let insn = fetch_insn t pc in
  t.ninsns <- t.ninsns + 1;
  (match t.profile with None -> () | Some p -> profile_step p ~pc insn);
  exec_insn t pc insn

(* {!step} with the hook/profile option matches hoisted out: the inner loop
   for machines with neither installed (the common case for the fuzz and
   differential pipelines, which observe through the obs sink instead). *)
let step_plain t =
  let pc = t.pc in
  if pc land 3 <> 0 then fault "misaligned pc 0x%x" pc;
  let insn = fetch_insn t pc in
  t.ninsns <- t.ninsns + 1;
  exec_insn t pc insn

exception Out_of_fuel

type result = {
  exit_code : int;
  insns : int;
  loads : int;
  stores : int;
  out : string;
}

(** [run ?fuel t] executes until exit. Raises {!Fault} on machine faults and
    {!Out_of_fuel} after [fuel] instructions (default 200M). When an
    observable-event sink is installed, faults and fuel exhaustion are
    recorded in the log (as {!Ob_fault} / {!Ob_fuel}) before the exception
    propagates, so the log always carries the run's terminal event. *)
let run ?(fuel = 200_000_000) t =
  try
    (* dispatch once: the per-step hook/profile matches are paid only by
       machines that actually installed one *)
    (match (t.hook, t.profile) with
    | None, None when t.pokes = [] -> (
        (* an attached tier-2 engine takes over only here: hooks,
           profiles and poke plans need per-instruction interpretation *)
        match t.alt_run with
        | Some engine -> engine fuel
        | None ->
            while t.exited = None do
              if t.ninsns >= fuel then raise Out_of_fuel;
              step_plain t
            done)
    | None, None ->
        (* a fault plan is pending: same fast stepper, plus the due-poke
           check; once the plan drains the check is a single comparison *)
        while t.exited = None do
          if t.ninsns >= fuel then raise Out_of_fuel;
          if t.pokes <> [] then apply_pokes t;
          step_plain t
        done
    | _ ->
        while t.exited = None do
          if t.ninsns >= fuel then raise Out_of_fuel;
          if t.pokes <> [] then apply_pokes t;
          step t
        done);
    {
      exit_code = Option.get t.exited;
      insns = t.ninsns;
      loads = t.nloads;
      stores = t.nstores;
      out = Buffer.contents t.output;
    }
  with
  | Fault what as e ->
      (match t.obs with
      | None -> ()
      | Some l -> obs_record l (Ob_fault { pc = t.pc; what }));
      raise e
  | Out_of_fuel as e ->
      (match t.obs with
      | None -> ()
      | Some l -> obs_record l (Ob_fuel { pc = t.pc }));
      raise e

(** {1 Inquiry accessors (for the differential oracle)} *)

let output t = Buffer.contents t.output

let insns_executed t = t.ninsns

(** Current stack pointer — live machine state, for record-time filters
    that must recognize red-zone (below-sp) spill traffic. *)
let sp t = t.regs.(Regs.sp)

(** A copy of the register file (32 GPRs followed by icc and y). *)
let registers t = Array.copy t.regs

(** [run_exe ?fuel ?hook ?profile ?predecode exe] loads and runs an
    executable. [profile] collects ground-truth execution statistics (see
    {!profile}); when absent the per-instruction profiling cost is a single
    match. [~predecode:false] disables the predecoded fast path (see
    {!load}). *)
let run_exe ?fuel ?hook ?profile ?predecode exe =
  let t = Eel_obs.Trace.with_span "emu.load" (fun () -> load ?predecode exe) in
  t.hook <- hook;
  t.profile <- profile;
  let r = Eel_obs.Trace.with_span "emu.run" (fun () -> run ?fuel t) in
  (r, t)
