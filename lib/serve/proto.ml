(** The serve wire protocol: JSONL jobs over a stdin pipe.

    One JSON object per line on stdin, one response object per line on
    stdout, responses in input order. A job names a tool and an executable
    source:

    {v
    {"id": "j1", "tool": "qpt2", "corpus": "fib"}
    {"id": "j2", "tool": "sfi", "gen": {"seed": 9, "routines": 10, "style": "sunpro"}}
    {"id": "j3", "tool": "tracer", "file": "prog.sef", "fuel": 500000}
    {"id": "j4", "tool": "amemory", "sef_hex": "23204546..."}
    v}

    - [tool] (required): one of {!Eel_tools.Toolbox.names}.
    - exactly one source: [corpus] (a {!Eel_diffexec.Corpus} program name,
      including the OS-mode [os-*] programs), [gen] (a deterministic
      {!Eel_workload.Gen} workload; style ["os"] selects the I/O-bound
      OS-mode generator), [file] (a SEF path resolved in the daemon's
      cwd), or [sef_hex] (a hex-encoded SEF image inline — the
      pipe-friendly way to ship an executable that exists nowhere on
      disk). OS-mode sources carry their {!Eel_os.Spec} world implicitly:
      the corpus entry (or generator seed) determines it, and its digest
      participates in the result-cache key.
    - [id] (optional): echoed in the response; defaults to ["job-<n>"].
    - [fuel], [sfi_base], [sfi_size] (optional): forwarded to
      {!Eel_tools.Toolbox.measure}. [fuel] must be positive; a bad SFI
      segment is the job's error, from {!Eel_tools.Toolbox.apply}.

    Responses are deliberately deterministic (no wall-clock fields), so the
    response stream is byte-identical at any [EEL_JOBS]; timing lives in
    the stderr summary and the [--stats] JSON. *)

module Json = Eel_obs.Json

type src =
  | S_corpus of string
  | S_file of string
  | S_gen of { seed : int; routines : int; style : string }
  | S_inline of string  (** raw SEF container bytes, already un-hexed *)

type job = {
  j_id : string;
  j_tool : string;
  j_src : src;
  j_fuel : int option;
  j_sfi_base : int option;
  j_sfi_size : int option;
}

(* ---- hex codec (for sef_hex) ---- *)

let hex_encode (s : string) =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_decode (s : string) : (string, string) result =
  let n = String.length s in
  if n mod 2 <> 0 then Error "sef_hex: odd length"
  else
    let nib c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.to_string out)
      else
        match (nib s.[i], nib s.[i + 1]) with
        | Some hi, Some lo ->
            Bytes.set out (i / 2) (Char.chr ((hi lsl 4) lor lo));
            go (i + 2)
        | _ -> Error (Printf.sprintf "sef_hex: bad digit at offset %d" i)
    in
    go 0

(* ---- JSON emission ---- *)

let json_str s = "\"" ^ Json.escape s ^ "\""

(* ---- parsing ---- *)

(* only the integers a double holds exactly: past 2^53, [int_of_float]
   of a JSON number is not the number written *)
let num_field j name : (int option, string) result =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 0x1p53 ->
      Ok (Some (int_of_float f))
  | Some _ ->
      Error (Printf.sprintf "field %S must be an integer of magnitude at most 2^53" name)

let str_field j name : (string option, string) result =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let ( let* ) = Result.bind

let src_of_json j : (src, string) result =
  let* corpus = str_field j "corpus" in
  let* file = str_field j "file" in
  let* sef_hex = str_field j "sef_hex" in
  let gen = Json.member "gen" j in
  let named =
    List.filter_map Fun.id
      [
        Option.map (fun s -> `Corpus s) corpus;
        Option.map (fun s -> `File s) file;
        Option.map (fun s -> `Hex s) sef_hex;
        Option.map (fun g -> `Gen g) gen;
      ]
  in
  match named with
  | [ `Corpus name ] -> Ok (S_corpus name)
  | [ `File path ] -> Ok (S_file path)
  | [ `Hex hex ] ->
      let* raw = hex_decode hex in
      Ok (S_inline raw)
  | [ `Gen g ] ->
      let* seed = num_field g "seed" in
      let* routines = num_field g "routines" in
      let* style = str_field g "style" in
      let style = Option.value style ~default:"gcc" in
      if style <> "gcc" && style <> "sunpro" && style <> "os" then
        Error
          (Printf.sprintf
             "gen.style %S: expected \"gcc\", \"sunpro\" or \"os\"" style)
      else
        Ok
          (S_gen
             {
               seed = Option.value seed ~default:42;
               routines = Option.value routines ~default:8;
               style;
             })
  | [] -> Error "job needs one of: corpus, file, gen, sef_hex"
  | _ -> Error "job has more than one source (corpus/file/gen/sef_hex)"

(** [job_of_json ~seq j] — validate one decoded job object; [seq] numbers
    the default id. *)
let job_of_json ~seq j : (job, string) result =
  match j with
  | Json.Obj _ ->
      let* tool = str_field j "tool" in
      let* tool =
        match tool with
        | None -> Error "job is missing required field \"tool\""
        | Some t when List.mem t Eel_tools.Toolbox.names -> Ok t
        | Some t ->
            Error
              (Printf.sprintf "unknown tool %S (expected one of: %s)" t
                 (String.concat ", " Eel_tools.Toolbox.names))
      in
      let* src = src_of_json j in
      let* id = str_field j "id" in
      let* fuel = num_field j "fuel" in
      let* () =
        match fuel with
        | Some f when f <= 0 -> Error "field \"fuel\" must be positive"
        | _ -> Ok ()
      in
      let* sfi_base = num_field j "sfi_base" in
      let* sfi_size = num_field j "sfi_size" in
      Ok
        {
          j_id = Option.value id ~default:(Printf.sprintf "job-%d" seq);
          j_tool = tool;
          j_src = src;
          j_fuel = fuel;
          j_sfi_base = sfi_base;
          j_sfi_size = sfi_size;
        }
  | _ -> Error "job line is not a JSON object"

let job_of_line ~seq line : (job, string) result =
  match Json.parse line with
  | Error m -> Error (Printf.sprintf "bad JSON: %s" m)
  | Ok j -> job_of_json ~seq j

(** Render a job back to one protocol line ([eel_batch --emit] uses this to
    write corpora that feed straight into [eel_serve]). *)
let job_to_line (j : job) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf {|{"id": %s, "tool": %s|} (json_str j.j_id) (json_str j.j_tool));
  (match j.j_src with
  | S_corpus name -> Buffer.add_string buf (Printf.sprintf {|, "corpus": %s|} (json_str name))
  | S_file path -> Buffer.add_string buf (Printf.sprintf {|, "file": %s|} (json_str path))
  | S_inline raw ->
      Buffer.add_string buf (Printf.sprintf {|, "sef_hex": %s|} (json_str (hex_encode raw)))
  | S_gen { seed; routines; style } ->
      Buffer.add_string buf
        (Printf.sprintf {|, "gen": {"seed": %d, "routines": %d, "style": %s}|} seed
           routines (json_str style)));
  Option.iter (fun f -> Buffer.add_string buf (Printf.sprintf {|, "fuel": %d|} f)) j.j_fuel;
  Option.iter (fun v -> Buffer.add_string buf (Printf.sprintf {|, "sfi_base": %d|} v)) j.j_sfi_base;
  Option.iter (fun v -> Buffer.add_string buf (Printf.sprintf {|, "sfi_size": %d|} v)) j.j_sfi_size;
  Buffer.add_char buf '}';
  Buffer.contents buf

(** Human label for the job's executable, used in reports and the ledger. *)
let prog_name (j : job) =
  match j.j_src with
  | S_corpus name -> name
  | S_file path -> Filename.basename path
  | S_gen { seed; routines; style } -> Printf.sprintf "gen-%s-s%d-r%d" style seed routines
  | S_inline raw -> Printf.sprintf "inline-%s" (String.sub (Digest.to_hex (Digest.string raw)) 0 8)
