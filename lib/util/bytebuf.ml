(** Little-endian binary readers and writers.

    The SEF executable format ({!Eel_sef}) and the raw text/data section
    contents are serialized with these helpers. Machine words inside the text
    segment are {e big-endian} (SPARC convention) and use the [*_be] variants;
    file-format metadata is little-endian. *)

(** {1 Writing} *)

let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w16 buf v =
  w8 buf v;
  w8 buf (v lsr 8)

let w32 buf v =
  w8 buf v;
  w8 buf (v lsr 8);
  w8 buf (v lsr 16);
  w8 buf (v lsr 24)

(** [w64 buf v] writes every bit of an OCaml int: the low 32 bits, then
    the rest (sign-extended). *)
let w64 buf v =
  w32 buf v;
  w32 buf (v asr 32)

let w32_be buf v =
  w8 buf (v lsr 24);
  w8 buf (v lsr 16);
  w8 buf (v lsr 8);
  w8 buf v

(** [wstr buf s] writes a length-prefixed (u16) string. *)
let wstr buf s =
  w16 buf (String.length s);
  Buffer.add_string buf s

let wbytes buf (b : bytes) = Buffer.add_bytes buf b

(** {1 Reading}

    A reader is a mutable cursor over a [string]. All read functions raise
    {!Truncated} on short input, carrying the cursor position and the
    wanted/available byte counts so format-level code can turn the failure
    into a precise structured diagnostic. *)

type reader = { src : string; mutable pos : int }

(** Raised when a read runs past the end of the input. [context] names the
    reader primitive, [offset] is the cursor position, [wanted] the bytes the
    read needed and [available] how many remained. *)
exception
  Truncated of { context : string; offset : int; wanted : int; available : int }

let () =
  Printexc.register_printer (function
    | Truncated { context; offset; wanted; available } ->
        Some
          (Printf.sprintf
             "Bytebuf.Truncated(%s: at offset %d wanted %d bytes, %d available)"
             context offset wanted available)
    | _ -> None)

let truncated r context wanted =
  raise
    (Truncated
       { context; offset = r.pos; wanted; available = String.length r.src - r.pos })

let reader src = { src; pos = 0 }

let eof r = r.pos >= String.length r.src

let r8 r =
  if r.pos >= String.length r.src then truncated r "r8" 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r16 r =
  let a = r8 r in
  let b = r8 r in
  a lor (b lsl 8)

let r32 r =
  let a = r16 r in
  let b = r16 r in
  a lor (b lsl 16)

let rstr r =
  let n = r16 r in
  if r.pos + n > String.length r.src then truncated r "rstr" n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rbytes r n =
  if n < 0 then truncated r "rbytes" n;
  if r.pos + n > String.length r.src then truncated r "rbytes" n;
  let b = Bytes.of_string (String.sub r.src r.pos n) in
  r.pos <- r.pos + n;
  b

(** {1 In-place big-endian word access (for text segments)} *)

let get32_be (b : bytes) off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let set32_be (b : bytes) off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))
