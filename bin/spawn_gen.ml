(* spawn_gen — elaborate a machine description and generate the
   machine-specific OCaml layer from it (paper §4).

   Prints the conciseness comparison the paper reports: description lines
   vs generated lines vs the handwritten equivalent. *)

let count_file_loc path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  ( s,
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           String.length l > 0 && l.[0] <> '!'
           && not (String.length l >= 2 && String.sub l 0 2 = "(*"))
         (String.split_on_char '\n' s)) )

let () =
  let desc = ref None and out = ref None in
  Cli.main "spawn_gen"
    ~usage:
      "spawn_gen [-o FILE] [DESCRIPTION]  -- generate machine-specific code \
       from a description (default descriptions/sparc.spawn)"
    ~anon:(Cli.one_arg desc)
    [ ("-o", Arg.String (fun f -> out := Some f), "FILE write generated code") ]
  @@ fun _ ->
  let desc = Option.value !desc ~default:"descriptions/sparc.spawn" in
  let el = Eel_spawn.Smach.load_description desc in
  let code = Eel_spawn.Codegen.generate el in
  (match !out with
  | Some path ->
      let oc = open_out path in
      output_string oc code;
      close_out oc;
      Printf.printf "wrote %s\n" path
  | None -> ());
  let _, desc_loc = count_file_loc desc in
  let gen_loc = Eel_spawn.Codegen.loc_of_string code in
  Printf.printf "description:    %4d non-comment lines (%s)\n" desc_loc desc;
  Printf.printf "generated code: %4d non-comment lines\n" gen_loc;
  Printf.printf "instructions described: %d\n" (List.length el.Eel_spawn.Elab.pats);
  0
