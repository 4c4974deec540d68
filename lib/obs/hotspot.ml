(** Calling-context hot-path attribution.

    A {!t} is a tree of string-named frames; each node carries the dynamic
    instructions attributed directly to that calling context ([self]) plus a
    per-instruction-class breakdown. A run's calling-context tree converts
    into one ({!Eel_emu.Cct.hotspot} names its pc-keyed contexts); drivers
    {!merge} many runs into one tree and render the result as a routine
    table, a collapsed-stack flamegraph, or speedscope JSON.

    Everything here is integer sums over deterministic inputs, so merging
    commutes: a parallel sweep's per-run trees, merged in any order, give
    the same tree as a serial sweep, and every renderer sorts its output,
    so exports are byte-identical at any domain count. *)

type node = {
  mutable n_self : int;  (** instructions attributed directly to this node *)
  mutable n_classes : int array;
  n_children : (string, node) Hashtbl.t;
}
(** [n_classes] may be shorter than the tree's class-name table (nodes from
    before a merge widened it); sums pad on demand. *)

type t = { mutable t_class_names : string array; t_root : node }

let new_node ncls =
  { n_self = 0; n_classes = Array.make ncls 0; n_children = Hashtbl.create 4 }

let create ?(classes = [||]) () =
  { t_class_names = classes; t_root = new_node (Array.length classes) }

let class_names t = t.t_class_names

let rec node_total n =
  Hashtbl.fold (fun _ c acc -> acc + node_total c) n.n_children n.n_self

(** Total dynamic instructions recorded in the tree. *)
let total t = node_total t.t_root

let is_empty t = total t = 0 && Hashtbl.length t.t_root.n_children = 0

(* Frame names become path components of the collapsed-stack format, where
   [';'] separates frames and the final [' '] separates path from weight. *)
let sanitize name =
  if String.exists (fun c -> c = ';' || c = ' ' || c = '\n' || c = '\t') name
  then
    String.map (fun c -> if c = ';' || Char.code c <= 0x20 then '_' else c) name
  else name

(* Sum [src] into [node.n_classes], widening the destination if needed. *)
let add_node_classes node src =
  let n = Array.length src in
  if n > 0 then begin
    if Array.length node.n_classes < n then begin
      let wide = Array.make n 0 in
      Array.blit node.n_classes 0 wide 0 (Array.length node.n_classes);
      node.n_classes <- wide
    end;
    for i = 0 to n - 1 do
      node.n_classes.(i) <- node.n_classes.(i) + src.(i)
    done
  end

(** [add t ~stack ~self ()] attributes [self] dynamic instructions to the
    calling context [stack] (outermost frame first). [classes], when given,
    must follow [t]'s class-name ordering. *)
let add t ~stack ?classes ~self () =
  let ncls = Array.length t.t_class_names in
  let rec descend node = function
    | [] -> node
    | name :: rest ->
        let name = sanitize name in
        let child =
          match Hashtbl.find_opt node.n_children name with
          | Some c -> c
          | None ->
              let c = new_node ncls in
              Hashtbl.add node.n_children name c;
              c
        in
        descend child rest
  in
  let node = descend t.t_root stack in
  node.n_self <- node.n_self + self;
  match classes with None -> () | Some cs -> add_node_classes node cs

(** Merge [src] into [into] (commutative integer sums; [src] unchanged). *)
let merge ~into src =
  if Array.length into.t_class_names = 0 then
    into.t_class_names <- src.t_class_names;
  let rec go dst s =
    dst.n_self <- dst.n_self + s.n_self;
    add_node_classes dst s.n_classes;
    Hashtbl.iter
      (fun name c ->
        let d =
          match Hashtbl.find_opt dst.n_children name with
          | Some d -> d
          | None ->
              let d = new_node (Array.length into.t_class_names) in
              Hashtbl.add dst.n_children name d;
              d
        in
        go d c)
      s.n_children
  in
  go into.t_root src.t_root

(** {1 Per-routine aggregation} *)

type rstat = {
  rs_name : string;
  rs_self : int;  (** instructions executed in the routine itself *)
  rs_total : int;  (** self plus everything called from it *)
  rs_classes : int array;  (** class mix of [rs_self] *)
}

(** Collapse the context tree to per-routine rows. [rs_self] sums a
    routine's direct instructions over every context it appears in;
    [rs_total] counts each subtree only at the routine's outermost
    occurrence on a path, so recursion (fib calling fib) is not
    double-counted. Rows sort by descending total, then name. *)
let routines t =
  let ncls = Array.length t.t_class_names in
  let stats : (string, rstat ref) Hashtbl.t = Hashtbl.create 64 in
  let stat name =
    match Hashtbl.find_opt stats name with
    | Some r -> r
    | None ->
        let r =
          ref
            {
              rs_name = name;
              rs_self = 0;
              rs_total = 0;
              rs_classes = Array.make ncls 0;
            }
        in
        Hashtbl.add stats name r;
        r
  in
  let rec walk ancestors name node =
    let r = stat name in
    let cs = !r.rs_classes in
    let n = min (Array.length cs) (Array.length node.n_classes) in
    for i = 0 to n - 1 do
      cs.(i) <- cs.(i) + node.n_classes.(i)
    done;
    let total_inc =
      if List.mem name ancestors then 0 else node_total node
    in
    r :=
      {
        !r with
        rs_self = !r.rs_self + node.n_self;
        rs_total = !r.rs_total + total_inc;
      };
    Hashtbl.iter (walk (name :: ancestors)) node.n_children
  in
  Hashtbl.iter (walk []) t.t_root.n_children;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.sort (fun a b ->
         match compare b.rs_total a.rs_total with
         | 0 -> compare a.rs_name b.rs_name
         | c -> c)

(** {1 Exports} *)

(* Leaf-weighted paths: every node with self > 0 contributes one sample,
   sorted lexicographically by joined path so output is stable. *)
let samples t =
  let acc = ref [] in
  let rec walk rev_path node =
    if node.n_self > 0 then acc := (List.rev rev_path, node.n_self) :: !acc;
    Hashtbl.iter (fun name c -> walk (name :: rev_path) c) node.n_children
  in
  Hashtbl.iter (fun name c -> walk [ name ] c) t.t_root.n_children;
  List.sort
    (fun (pa, _) (pb, _) -> compare (String.concat ";" pa) (String.concat ";" pb))
    !acc

(** Collapsed-stack ("folded") flamegraph lines: ["main;fib;fib 42\n"]. *)
let collapsed t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (path, w) ->
      Buffer.add_string buf (String.concat ";" path);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int w);
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf

(** Speedscope file-format JSON (one "sampled" profile weighted in
    instructions, not time). Frames are deduplicated by name and sorted;
    samples follow {!collapsed} order. *)
let speedscope_json ?(name = "eel profile") t =
  let samples = samples t in
  let frame_tbl = Hashtbl.create 64 in
  List.iter
    (fun (path, _) ->
      List.iter (fun f -> Hashtbl.replace frame_tbl f ()) path)
    samples;
  let frames =
    Hashtbl.fold (fun f () acc -> f :: acc) frame_tbl [] |> List.sort compare
  in
  let index = Hashtbl.create 64 in
  List.iteri (fun i f -> Hashtbl.add index f i) frames;
  let endv = List.fold_left (fun acc (_, w) -> acc + w) 0 samples in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n";
  Buffer.add_string buf " \"shared\": {\"frames\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "{\"name\": \"%s\"}" (Json.escape f)))
    frames;
  Buffer.add_string buf "]},\n \"profiles\": [{\"type\": \"sampled\", ";
  Buffer.add_string buf
    (Printf.sprintf "\"name\": \"%s\", \"unit\": \"none\", " (Json.escape name));
  Buffer.add_string buf
    (Printf.sprintf "\"startValue\": 0, \"endValue\": %d,\n  \"samples\": ["
       endv);
  List.iteri
    (fun i (path, _) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_char buf '[';
      List.iteri
        (fun j f ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (Hashtbl.find index f)))
        path;
      Buffer.add_char buf ']')
    samples;
  Buffer.add_string buf "],\n  \"weights\": [";
  List.iteri
    (fun i (_, w) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (string_of_int w))
    samples;
  Buffer.add_string buf "]}],\n";
  Buffer.add_string buf
    (Printf.sprintf " \"name\": \"%s\", \"exporter\": \"eel\"}\n"
       (Json.escape name));
  Buffer.contents buf
