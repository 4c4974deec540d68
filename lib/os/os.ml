(** The OS layer: a syscall dispatcher keyed off [ta] immediates in the
    {!Abi} window, over a deterministic in-memory file system. [install]
    plugs it into an {!Emu.t} as the optional trap handler; every
    dispatched call emits one {!Emu.Ob_syscall} event through the obs
    sink, so the differential oracle compares syscall streams the same
    way it compares stores.

    Dispatch discipline, per call:
    - the interposition {!Policy} is consulted first; a denial takes the
      error return path ([carry] set, errno in %o0) with the call's side
      effect fully suppressed;
    - success clears the carry flag and returns the result in %o0;
    - failure sets carry and returns the errno in %o0;
    - in-window numbers with no call assigned fail [EINVAL] — the error
      path is itself part of the observable surface;
    - immediates outside the window are not handled (the emulator falls
      through to its builtin debug traps). *)

open Eel_sparc
module Emu = Eel_emu.Emu

type state = {
  st_spec : Spec.t;
  st_fs : Fs.t;
  st_fds : Fdtab.t;
  mutable st_sys : int;  (** dispatched OS syscalls (including errors) *)
  mutable st_denied : int;  (** calls suppressed by the policy *)
}

let fresh spec =
  {
    st_spec = spec;
    st_fs = Fs.create spec.Spec.sp_files;
    st_fds = Fdtab.create ~stdin:spec.Spec.sp_stdin;
    st_sys = 0;
    st_denied = 0;
  }

(* cheap order-sensitive checksum of transferred bytes: catches a
   same-args-same-length-different-payload divergence without logging the
   payload itself *)
let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := ((!acc * 131) + Char.code c) land 0x3FFF_FFFF) s;
  !acc

let set_carry (t : Emu.t) = t.regs.(Regs.icc) <- t.regs.(Regs.icc) lor 1
let clear_carry (t : Emu.t) = t.regs.(Regs.icc) <- t.regs.(Regs.icc) land lnot 1

(* guest-memory accessors for syscall buffers; out-of-range arguments are
   machine faults, mirroring the builtin write trap *)
let read_guest (t : Emu.t) addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    Emu.fault "syscall buffer out of range: addr=0x%x len=%d pc=0x%x" addr len
      t.pc;
  Bytes.sub_string t.mem addr len

let write_guest (t : Emu.t) addr s =
  let len = String.length s in
  if addr < 0 || addr + len > t.size then
    Emu.fault "syscall buffer out of range: addr=0x%x len=%d pc=0x%x" addr len
      t.pc;
  Bytes.blit_string s 0 t.mem addr len;
  Emu.mark t.marks addr len;
  (* keep the predecoded code array coherent, word by word, exactly as a
     program store would (a read(2) into text is self-modifying code) *)
  let lo = addr land lnot 3 and hi = addr + len in
  let w = ref lo in
  while !w < hi do
    Emu.invalidate_code t !w;
    w := !w + 4
  done

let max_path = 256

(* a path argument is a NUL-terminated string; an unterminated or
   out-of-range one is ENOENT (hostile pointers are error returns, not
   crashes, on the path lookup surface) *)
let read_path (t : Emu.t) addr =
  if addr < 0 || addr >= t.size then None
  else
    let limit = min (addr + max_path) t.size in
    let rec scan i =
      if i >= limit then None
      else if Bytes.get t.mem i = '\000' then
        Some (Bytes.sub_string t.mem addr (i - addr))
      else scan (i + 1)
    in
    scan addr

type outcome = Ret of int * int  (** result, data checksum *) | Err of int

let dispatch st (t : Emu.t) num a0 a1 a2 =
  match Policy.check st.st_spec.Spec.sp_policy ~num ~a0 with
  | Policy.Deny errno ->
      st.st_denied <- st.st_denied + 1;
      Err errno
  | Policy.Allow ->
      if num = Abi.sys_exit then begin
        t.exited <- Some (a0 land 0xFF);
        Ret (a0, 0)
      end
      else if num = Abi.sys_read then begin
        match Fdtab.get st.st_fds a0 with
        | Some (Fdtab.Fd_stdin s) ->
            let got = ref "" in
            if a2 > 0 then begin
              let n = min a2 (String.length s.data - s.pos) in
              if n > 0 then begin
                got := String.sub s.data s.pos n;
                s.pos <- s.pos + n
              end
            end;
            write_guest t a1 !got;
            Ret (String.length !got, checksum !got)
        | Some (Fdtab.Fd_file f) when not f.writable ->
            let got = Fs.read f.file ~pos:f.pos ~len:a2 in
            f.pos <- f.pos + String.length got;
            write_guest t a1 got;
            Ret (String.length got, checksum got)
        | Some Fdtab.Fd_out | Some (Fdtab.Fd_file _) | None -> Err Abi.ebadf
      end
      else if num = Abi.sys_write then begin
        match Fdtab.get st.st_fds a0 with
        | Some Fdtab.Fd_out ->
            let s = read_guest t a1 a2 in
            Buffer.add_string t.output s;
            Ret (a2, checksum s)
        | Some (Fdtab.Fd_file f) when f.writable ->
            let s = read_guest t a1 a2 in
            Fs.write f.file ~pos:f.pos s;
            f.pos <- f.pos + a2;
            Ret (a2, checksum s)
        | Some (Fdtab.Fd_stdin _) | Some (Fdtab.Fd_file _) | None ->
            Err Abi.ebadf
      end
      else if num = Abi.sys_open then begin
        match read_path t a0 with
        | None -> Err Abi.enoent
        | Some path ->
            let target =
              if a1 = Abi.o_wronly then
                Some
                  (Fdtab.Fd_file
                     { file = Fs.create_file st.st_fs path; pos = 0; writable = true })
              else
                match Fs.lookup st.st_fs path with
                | Some file -> Some (Fdtab.Fd_file { file; pos = 0; writable = false })
                | None -> None
            in
            (match target with
            | None -> Err Abi.enoent
            | Some tgt -> (
                match Fdtab.alloc st.st_fds tgt with
                | Some fd -> Ret (fd, 0)
                | None -> Err Abi.emfile))
      end
      else if num = Abi.sys_close then begin
        if Fdtab.close st.st_fds a0 then Ret (0, 0) else Err Abi.ebadf
      end
      else if num = Abi.sys_brk then begin
        if a0 > t.brk && a0 < t.size - Emu.stack_size then
          t.brk <- a0;
        Ret (t.brk, 0)
      end
      else Err Abi.einval

(** The trap handler: [true] = this trap was an OS syscall and has been
    fully handled (including its {!Emu.Ob_syscall} event); [false] falls
    through to the emulator's builtin convention. *)
let handle st (t : Emu.t) imm =
  match Abi.num_of_trap_imm imm with
  | None -> false
  | Some num ->
      st.st_sys <- st.st_sys + 1;
      let a0 = Emu.reg t Regs.o0
      and a1 = Emu.reg t Regs.o1
      and a2 = Emu.reg t Regs.o2 in
      let ret, err, data =
        match dispatch st t num a0 a1 a2 with
        | Ret (r, d) ->
            clear_carry t;
            Emu.set_reg t Regs.o0 r;
            (r, false, d)
        | Err errno ->
            set_carry t;
            Emu.set_reg t Regs.o0 errno;
            (errno, true, 0)
      in
      (match t.obs with
      | None -> ()
      | Some _ ->
          Emu.obs_emit t
            (Emu.Ob_syscall { pc = t.pc; num; a0; a1; a2; ret; err; data });
          if num = Abi.sys_exit && not err then
            Emu.obs_emit t (Emu.Ob_exit { pc = t.pc; code = a0 land 0xFF }));
      true

(** [install t spec] builds fresh OS state from [spec] (snapshot/reset:
    nothing survives from any earlier run) and installs its dispatcher as
    [t]'s trap handler. Returns the state for post-run inquiry. *)
let install (t : Emu.t) spec =
  let st = fresh spec in
  Emu.set_trap_handler t (Some (handle st));
  st

let sys_count st = st.st_sys
let denied_count st = st.st_denied

(** Contents of a file in the (post-run) file system, for tests. *)
let file_contents st name = Option.map Fs.contents (Fs.lookup st.st_fs name)
