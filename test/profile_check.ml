(* Field-by-field comparison of two ground-truth profiles, shared by the
   emulator and oracle suites: every execution tier must record the same
   profile as the tier-1 interpreter. A profile is rendered as one line per
   fact (scalars, pending call/return state, sorted pc and block counts,
   class mix, and every calling-context node by its path from the root),
   so a mismatch reports the first fact that differs. *)

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
      Printf.sprintf "pending call=%d ret=%b at=%d" p.Emu.p_pending_call
        p.Emu.p_pending_ret p.Emu.p_pending_at;
      Printf.sprintf "depth %d cur 0x%x stack %s" p.Emu.p_depth
        p.Emu.p_cur.Emu.cc_entry
        (String.concat ","
           (List.map (fun f -> string_of_int f.Emu.cf_ret) p.Emu.p_stack));
      "classes " ^ ints p.Emu.p_class_counts;
    ]
  in
  let counts what tbl =
    List.map (fun (k, v) -> Printf.sprintf "%s 0x%x %d" what k v) (sorted tbl)
  in
  let rec cct path (n : Emu.cct) acc =
    let path = Printf.sprintf "%s/0x%x" path n.Emu.cc_entry in
    let acc =
      Printf.sprintf "cct %s self=%d classes=%s" path n.Emu.cc_self
        (ints n.Emu.cc_classes)
      :: acc
    in
    List.fold_left
      (fun acc (_, child) -> cct path child acc)
      acc (sorted n.Emu.cc_children)
  in
  scalars
  @ counts "pc" p.Emu.p_pc_counts
  @ counts "block" p.Emu.p_block_counts
  @ List.rev (cct "" p.Emu.p_root [])

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

(* Deepest calling context below the root. *)
let rec cct_depth (n : Emu.cct) =
  Hashtbl.fold (fun _ c d -> max d (1 + cct_depth c)) n.Emu.cc_children 0
