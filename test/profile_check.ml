(* Field-by-field comparison of two ground-truth profiles, shared by the
   emulator and oracle suites: every execution tier must record the same
   profile as the tier-1 interpreter. A profile is rendered as one line per
   fact (scalars, class mix, sorted pc and block counts), so a mismatch
   reports the first fact that differs. *)

module Emu = Eel_emu.Emu

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let lines (p : Emu.profile) =
  let scalars =
    [
      Printf.sprintf "insns %d" p.Emu.p_insns;
      Printf.sprintf "block_entries %d" p.Emu.p_block_entries;
      Printf.sprintf "last_pc %d" p.Emu.p_last_pc;
      "classes " ^ ints p.Emu.p_class_counts;
    ]
  in
  let counts what tbl =
    List.map (fun (k, v) -> Printf.sprintf "%s 0x%x %d" what k v) (sorted tbl)
  in
  scalars @ counts "pc" p.Emu.p_pc_counts @ counts "block" p.Emu.p_block_counts

let check what (expected : Emu.profile) (actual : Emu.profile) =
  let rec first i = function
    | e :: es, a :: as_ -> if e = a then first (i + 1) (es, as_) else Some (i, e, a)
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<missing>")
    | [], a :: _ -> Some (i, "<missing>", a)
  in
  match first 0 (lines expected, lines actual) with
  | None -> ()
  | Some (i, e, a) ->
      Alcotest.failf "%s: profile line %d differs: expected %S, got %S" what i
        e a
