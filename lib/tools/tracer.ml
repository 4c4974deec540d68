(** Address tracer — qpt's second mode (paper §1: "profiling and tracing
    tools, such as MIPS's pixie or qpt, edit executables to record execution
    frequencies or trace memory references").

    Before every editable load and store, a snippet appends the effective
    address to an in-memory trace buffer through a bump pointer. The trace
    is validated against the emulator's own memory-event stream (the ground
    truth a hardware-level tracer would see). The buffer wraps at a
    power-of-two size, so long runs are safe; tests use runs that fit. *)

module E = Eel.Executable
module C = Eel.Cfg
module Snippet = Eel.Snippet
module Instr = Eel_arch.Instr
module Template = Eel_arch.Template

type t = {
  edited : Eel_sef.Sef.t;
  exec : E.t;  (** the analyzed executable (address maps, CFG anchors) *)
  buf_addr : int;  (** trace buffer base *)
  buf_size : int;
  ptr_addr : int;  (** bump pointer (byte offset within the buffer) *)
  instrumented : int;
  skipped_uneditable : int;
}

(* Appends %v0 (the site's effective address, computed by the word
   {!Ea.word} puts first) to the buffer and advances the bump pointer,
   wrapping it with [mask]. *)
let trace_body =
  {|
        sethi %hi($ptr), %v1
        ld [%v1 + %lo($ptr)], %v2
        sethi %hi($buf), %v3
        or %v3, %lo($buf), %v3
        st %v0, [%v3 + %v2]
        add %v2, 4, %v2
        sethi %hi($mask), %v3
        or %v3, %lo($mask), %v3
        and %v2, %v3, %v2
        sethi %hi($ptr), %v1
        st %v2, [%v1 + %lo($ptr)]
|}

(** [instrument mach exe] adds address tracing to every editable memory
    reference. [buf_size] must be a power of two (default 1 MiB). *)
let instrument ?(buf_size = 1 lsl 20) mach exe =
  if buf_size land (buf_size - 1) <> 0 then invalid_arg "tracer: buffer size";
  let t = E.read_contents mach exe in
  let buf_addr = E.reserve_data t buf_size in
  let ptr_addr = E.reserve_data t 4 in
  let ea = Ea.word mach in
  let body =
    Snippet.template mach
      ~params:[ ("buf", buf_addr); ("ptr", ptr_addr); ("mask", buf_size - 1) ]
      trace_body
  in
  let instrumented = ref 0 and skipped = ref 0 in
  let do_routine (r : E.routine) =
    let g = E.control_flow_graph t r in
    let ed = E.editor t r in
    List.iter
      (fun (b : C.block) ->
        if b.C.reachable && not b.C.is_data then
          Array.iteri
            (fun idx (_, (i : Instr.t)) ->
              if Instr.is_memory i then
                if not b.C.editable then incr skipped
                else (
                  Eel.Edit.add_before ed b idx
                    (Snippet.of_template (Template.concat (ea i) body));
                  incr instrumented))
            b.C.instrs)
      (C.blocks g);
    E.produce_edited_routine t r
  in
  E.iter_routines t do_routine;
  {
    edited = E.to_edited_sef t ();
    exec = t;
    buf_addr;
    buf_size;
    ptr_addr;
    instrumented = !instrumented;
    skipped_uneditable = !skipped;
  }

(** Extract the recorded addresses from the memory of a finished run. *)
let trace (tr : t) (mem : Bytes.t) =
  let n = Eel_util.Bytebuf.get32_be mem tr.ptr_addr / 4 in
  List.init n (fun k -> Eel_util.Bytebuf.get32_be mem (tr.buf_addr + (4 * k)))

(** The tool's edit contract: stores land in the trace buffer and its bump
    pointer (plus snippet spill slots); when every memory reference was
    instrumented and the buffer did not wrap, the number of recorded
    entries must equal the original run's dynamic memory-instruction
    count. *)
let contract (tr : t) =
  let regions =
    [
      Eel_equiv.Contract.region ~name:"trace buffer" ~lo:tr.buf_addr
        ~size:tr.buf_size;
      Eel_equiv.Contract.region ~name:"trace pointer" ~lo:tr.ptr_addr ~size:4;
    ]
  in
  let check =
    {
      Eel_equiv.Contract.ck_name = "trace-length-matches-profile";
      ck_run =
        (fun ~profile ~mem ->
          let entries = Eel_util.Bytebuf.get32_be mem tr.ptr_addr / 4 in
          let truth = Eel_emu.Emu.mem_ops profile in
          if tr.skipped_uneditable = 0 && 4 * truth < tr.buf_size then
            if entries = truth then Ok ()
            else
              Error
                (Printf.sprintf
                   "trace has %d entries, original run executed %d memory \
                    instructions"
                   entries truth)
          else if entries <= truth then Ok ()
          else
            Error
              (Printf.sprintf
                 "trace has %d entries but only %d memory instructions ran"
                 entries truth));
    }
  in
  Eel_equiv.Contract.make "tracer" ~regions ~red_zone:Snippet.red_zone
    ~checks:[ check ]

(** Fault-campaign target: only the bump pointer is cross-validated (buffer
    {e contents} are not promised word-for-word, so corrupting a buffer
    slot is undetectable by design and not offered). Starting the pointer
    at 8 inflates the entry count past the ground-truth memory-op count on
    both branches of the length check. *)
let fault_targets (tr : t) = [ ("trace pointer", tr.ptr_addr, 8) ]
