(* trace_check — validate the observability layer's export files (the
   Makefile's trace-smoke / report-smoke gates). The format is sniffed:

     - Chrome trace_event JSON (a traceEvents array): every event needs a
       name, a known phase, a non-negative timestamp, and a non-negative
       duration on complete ("X") events;
     - speedscope JSON (a "$schema" pointing at speedscope): non-empty
       named frames, and for every sampled profile each sample's frame
       indices in range, one non-negative weight per sample, and
       endValue - startValue equal to the weight sum;
     - collapsed-stack flamegraph text (anything that is not JSON): every
       line is "frame;frame;... count" with a positive integer count.

   --total N additionally asserts the file's stack totals (speedscope
   weight sum / collapsed count sum) equal N — drivers pass the profile's
   dynamic instruction count so an export that silently dropped samples
   fails the gate. Exits 0 with a one-line summary per file on success;
   exits 1 with the first problem otherwise. *)

module Json = Eel_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("trace_check: " ^ m); exit 1) fmt

let check_chrome path root =
  let events =
    match Json.member "traceEvents" root with
    | Some (Json.Arr evs) -> evs
    | Some _ -> fail "%s: traceEvents is not an array" path
    | None -> fail "%s: no traceEvents member" path
  in
  let spans = ref 0 and instants = ref 0 in
  List.iteri
    (fun i ev ->
      let str key =
        match Json.member key ev with
        | Some (Json.Str s) -> s
        | _ -> fail "event %d: missing string %S" i key
      in
      let num key =
        match Json.member key ev with
        | Some (Json.Num n) -> n
        | _ -> fail "event %d: missing number %S" i key
      in
      let name = str "name" in
      if name = "" then fail "event %d: empty name" i;
      if num "ts" < 0. then fail "event %d (%s): negative ts" i name;
      match str "ph" with
      | "X" ->
          incr spans;
          if num "dur" < 0. then fail "event %d (%s): negative dur" i name
      | "i" -> incr instants
      | ph -> fail "event %d (%s): unexpected phase %S" i name ph)
    events;
  if !spans = 0 then fail "%s: no complete (ph=X) span events" path;
  Printf.printf "trace_check: %s ok (%d spans, %d instants)\n" path !spans
    !instants

let check_speedscope path root ~total =
  let nframes =
    match Json.member "shared" root with
    | Some shared -> (
        match Json.member "frames" shared with
        | Some (Json.Arr frames) ->
            if frames = [] then fail "%s: empty frames table" path;
            List.iteri
              (fun i f ->
                match Json.member "name" f with
                | Some (Json.Str s) when s <> "" -> ()
                | _ -> fail "%s: frame %d has no name" path i)
              frames;
            List.length frames
        | _ -> fail "%s: shared.frames is not an array" path)
    | None -> fail "%s: no shared.frames table" path
  in
  let profiles =
    match Json.member "profiles" root with
    | Some (Json.Arr ps) when ps <> [] -> ps
    | _ -> fail "%s: no profiles" path
  in
  let grand = ref 0 in
  List.iteri
    (fun pi prof ->
      let samples =
        match Json.member "samples" prof with
        | Some (Json.Arr s) -> s
        | _ -> fail "%s: profile %d: no samples array" path pi
      in
      let weights =
        match Json.member "weights" prof with
        | Some (Json.Arr w) -> w
        | _ -> fail "%s: profile %d: no weights array" path pi
      in
      if List.length samples <> List.length weights then
        fail "%s: profile %d: %d samples but %d weights" path pi
          (List.length samples) (List.length weights);
      List.iteri
        (fun si s ->
          match s with
          | Json.Arr frames ->
              if frames = [] then
                fail "%s: profile %d sample %d: empty stack" path pi si;
              List.iter
                (function
                  | Json.Num f ->
                      let fi = int_of_float f in
                      if float_of_int fi <> f || fi < 0 || fi >= nframes then
                        fail
                          "%s: profile %d sample %d: frame index %g out of \
                           range [0,%d)"
                          path pi si f nframes
                  | _ ->
                      fail "%s: profile %d sample %d: non-numeric frame" path
                        pi si)
                frames
          | _ -> fail "%s: profile %d sample %d: not an array" path pi si)
        samples;
      let wsum =
        List.fold_left
          (fun acc w ->
            match w with
            | Json.Num n when n >= 0. -> acc + int_of_float n
            | Json.Num _ -> fail "%s: profile %d: negative weight" path pi
            | _ -> fail "%s: profile %d: non-numeric weight" path pi)
          0 weights
      in
      (match (Json.member "startValue" prof, Json.member "endValue" prof) with
      | Some (Json.Num sv), Some (Json.Num ev) ->
          if int_of_float ev - int_of_float sv <> wsum then
            fail "%s: profile %d: endValue-startValue %d <> weight sum %d"
              path pi
              (int_of_float ev - int_of_float sv)
              wsum
      | _ -> fail "%s: profile %d: missing startValue/endValue" path pi);
      grand := !grand + wsum)
    profiles;
  (match total with
  | Some t when t <> !grand ->
      fail "%s: stack total %d <> expected dynamic instructions %d" path
        !grand t
  | _ -> ());
  Printf.printf "trace_check: %s ok (speedscope, %d frames, total %d)\n" path
    nframes !grand

let check_collapsed path src ~total =
  let lines =
    String.split_on_char '\n' src |> List.filter (fun l -> l <> "")
  in
  if lines = [] then fail "%s: empty collapsed-stack file" path;
  let grand = ref 0 in
  List.iteri
    (fun i line ->
      match String.rindex_opt line ' ' with
      | None -> fail "%s: line %d: no count field" path (i + 1)
      | Some sp ->
          let stack = String.sub line 0 sp in
          let count = String.sub line (sp + 1) (String.length line - sp - 1) in
          (match int_of_string_opt count with
          | Some n when n > 0 -> grand := !grand + n
          | _ -> fail "%s: line %d: bad count %S" path (i + 1) count);
          if stack = "" then fail "%s: line %d: empty stack" path (i + 1);
          List.iter
            (fun frame ->
              if frame = "" then
                fail "%s: line %d: empty frame in %S" path (i + 1) stack)
            (String.split_on_char ';' stack))
    lines;
  (match total with
  | Some t when t <> !grand ->
      fail "%s: stack total %d <> expected dynamic instructions %d" path
        !grand t
  | _ -> ());
  Printf.printf "trace_check: %s ok (collapsed, %d stacks, total %d)\n" path
    (List.length lines) !grand

let () =
  let total = ref None in
  let paths = ref [] in
  Cli.main "trace_check"
    ~usage:
      "trace_check [--total N] FILE...: validate Chrome trace / speedscope / \
       collapsed-stack exports"
    ~anon:(fun p -> paths := p :: !paths)
    [
      ( "--total",
        Arg.Int (fun n -> total := Some n),
        "N require stack totals to equal N dynamic instructions \
         (speedscope/collapsed only)" );
    ]
  @@ fun _ ->
  let paths = List.rev !paths in
  if paths = [] then raise (Arg.Bad "missing FILE");
  List.iter
    (fun path ->
      let src =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.parse src with
      | Ok root -> (
          match (Json.member "traceEvents" root, Json.member "$schema" root) with
          | Some _, _ -> check_chrome path root
          | None, Some (Json.Str schema)
            when String.length schema >= 10
                 && String.lowercase_ascii schema |> fun s ->
                    let rec find i =
                      i + 10 <= String.length s
                      && (String.sub s i 10 = "speedscope" || find (i + 1))
                    in
                    find 0 ->
              check_speedscope path root ~total:!total
          | _ -> fail "%s: JSON but neither Chrome trace nor speedscope" path)
      | Error _ -> check_collapsed path src ~total:!total)
    paths;
  0
