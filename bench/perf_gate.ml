(* The pair gate's decision (`make perf-regress`, driven by
   bench/regress.ml), apart from the runs it judges. The job benchmark
   runs on the parent commit and on the change in alternating pairs; each
   workload x end-to-end metric of BENCHMARK.json is judged on its own:

     - the change fails a metric when its median is worse than the
       parent's by more than the metric's `bound` AND it lost at least
       [min_lost] of the [pairs] pairs (ties count for neither side);
     - two checks read the change's runs alone: warm_mixed serves at
       least [warm_over_cold] x cold_mixed's median jobs/s, and a traced
       long_run reads emu.run.mips_block >= emu.run.mips_predecode.

   Everything here is pure, so test_obs drives it on synthetic tables. *)

module Json = Eel_obs.Json

(* 6 pairs take about 7 minutes, inside a 10-minute CI step; a slowdown
   past a bound must lose 5 of them, which noise rarely does *)
let pairs = 6
let seed = 11

(** Each workload's run length, in seconds: long enough that a run holds
    at least 100 timed jobs, so its p90 has ten samples beyond it.
    long_run serves about 25 jobs/s and edit_only about 20; at 3 s their
    p90s rested on five or six samples and gave false failures. *)
let seconds = function "long_run" -> 6 | "edit_only" -> 8 | _ -> 3
let min_lost = 5
let warm_over_cold = 3.0

(* --- inputs ---------------------------------------------------------- *)

type metric = { m_name : string; m_higher : bool; m_bound : float }

(** One jobbench run: its result line, the last line it prints. *)
type run = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

exception Malformed of string

let get name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Malformed name)

let str = function Json.Str s -> Some s | _ -> None
let num = function Json.Num n -> Some n | _ -> None
let arr = function Json.Arr l -> Some l | _ -> None
let obj = function Json.Obj kvs -> Some kvs | _ -> None

let parse f src =
  Result.bind (Json.parse src) (fun root ->
      try Ok (f root) with Malformed name -> Error ("missing or malformed field " ^ name))

(** The workload names and end-to-end metrics of a BENCHMARK.json. *)
let parse_spec =
  parse (fun root ->
      ( List.map (get "name" str) (get "workloads" arr root),
        List.map
          (fun e ->
            let m_higher =
              match get "better" str e with
              | "higher" -> true
              | "lower" -> false
              | _ -> raise (Malformed "better")
            in
            { m_name = get "name" str e; m_higher; m_bound = get "bound" num e })
          (get "end_to_end" arr root) ))

let parse_run =
  parse (fun root ->
      {
        correct = get "correct" (function Json.Bool b -> Some b | _ -> None) root;
        attempted = int_of_float (get "attempted" num root);
        failed = int_of_float (get "failed" num root);
        values = List.map (fun (k, v) -> (k, get "value" num v)) (get "metrics" obj root);
      })

let value name r = List.assoc_opt name r.values

(* --- the decision ---------------------------------------------------- *)

(** Quantile [p] of a non-empty sample, interpolated between ranks. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let h = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

type spread = { median : float; q1 : float; q3 : float }

let spread xs = { median = median xs; q1 = quantile 0.25 xs; q3 = quantile 0.75 xs }

type row = {
  r_workload : string;
  r_metric : metric;
  r_parent : spread;
  r_change : spread;
  r_won : int;  (** pairs where the change was better *)
  r_lost : int;  (** pairs where the change was worse *)
  r_fail : bool;
  r_jobs : (int * int) list;  (** jobs each pair's (parent, change) run attempted *)
}

(** Judge metric [m] of [workload] on its [(parent, change)] pairs; [jobs]
    is what each pair's runs attempted. *)
let judge ~workload ~jobs m prs =
  let better a b = if m.m_higher then a > b else a < b in
  let count f = List.length (List.filter (fun (p, c) -> f p c) prs) in
  let p = spread (List.map fst prs) and c = spread (List.map snd prs) in
  (* how much worse the change's median is, as a fraction of the parent's *)
  let d = if m.m_higher then p.median -. c.median else c.median -. p.median in
  let worse = if d = 0. then 0. else d /. Float.abs p.median in
  let lost = count (fun p c -> better p c) in
  {
    r_workload = workload;
    r_metric = m;
    r_parent = p;
    r_change = c;
    r_won = count (fun p c -> better c p);
    r_lost = lost;
    r_fail = worse > m.m_bound && lost >= min_lost;
    r_jobs = jobs;
  }

(** A workload's runs, as [(parent, change)] pairs. *)
type table = (string * (run * run) list) list

(** One row per workload x metric; a metric missing from any run (the
    parent predates it) is left out. *)
let rows metrics (table : table) =
  List.concat_map
    (fun (workload, prs) ->
      List.filter_map
        (fun m ->
          let v r = List.assoc m.m_name r.values in
          match List.map (fun (p, c) -> (v p, v c)) prs with
          | [] | (exception Not_found) -> None
          | vs ->
              let jobs = List.map (fun (p, c) -> (p.attempted, c.attempted)) prs in
              Some (judge ~workload ~jobs m vs))
        metrics)
    table

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

(** warm_mixed must serve at least [warm_over_cold] x cold_mixed's
    jobs/s, medians of the change's runs in [table]. *)
let warm_check (table : table) =
  let name = Printf.sprintf "warm_mixed >= %gx cold_mixed jobs/s" warm_over_cold in
  let med w =
    Option.bind (List.assoc_opt w table) (fun prs ->
        match List.filter_map (fun (_, c) -> value "jobs_per_s" c) prs with
        | [] -> None
        | xs -> Some (median xs))
  in
  match (med "warm_mixed", med "cold_mixed") with
  | Some w, Some c ->
      check name (w >= warm_over_cold *. c)
        (Printf.sprintf "%.1f vs %.1f jobs/s (%.2fx)" w c (w /. c))
  | _ -> check name false "no warm_mixed or cold_mixed jobs_per_s"

(** The block tier must not run slower than the predecode tier in a
    traced long_run run of the change. *)
let tier_check traced =
  let name = "long_run mips_block >= mips_predecode" in
  match (value "emu.run.mips_block" traced, value "emu.run.mips_predecode" traced) with
  | Some b, Some p -> check name (b >= p) (Printf.sprintf "%.1f vs %.1f MIPS" b p)
  | _ -> check name false "traced long_run printed no emu.run.mips_* values"

(** The names of what failed: "workload metric" rows, then checks. *)
let failures rows checks =
  List.filter_map
    (fun r -> if r.r_fail then Some (r.r_workload ^ " " ^ r.r_metric.m_name) else None)
    rows
  @ List.filter_map (fun c -> if c.c_ok then None else Some c.c_name) checks

(* --- output ---------------------------------------------------------- *)

(* three significant figures, as the EXPERIMENTS tables print them *)
let sig3 x =
  if x = 0. || not (Float.is_finite x) then Printf.sprintf "%g" x
  else
    let e = int_of_float (Float.floor (Float.log10 (Float.abs x))) in
    Printf.sprintf "%.*f" (max 0 (2 - e)) x

(* Each workload's first row: they all carry the same runs. *)
let per_workload rows =
  let rec go seen = function
    | [] -> []
    | r :: rest ->
        if List.mem r.r_workload seen then go seen rest else r :: go (r.r_workload :: seen) rest
  in
  go [] rows

(** The pair table as Markdown, in the layout of EXPERIMENTS.md, then
    each run's length and job count (jobs attempted, set-up included). *)
let table_lines rows =
  let cell s = Printf.sprintf "%s [%s–%s]" (sig3 s.median) (sig3 s.q1) (sig3 s.q3) in
  let counts f r = String.concat " " (List.map (fun pc -> string_of_int (f pc)) r.r_jobs) in
  ("| workload/seed | metric | parent | change | change/parent | won |"
  :: "|---|---|---|---|---|---|"
  :: List.map
       (fun r ->
         Printf.sprintf "| %s/%d | %s | %s | %s | %s | %d/%d |%s" r.r_workload seed
           r.r_metric.m_name (cell r.r_parent) (cell r.r_change)
           (if r.r_parent.median = 0. then "-"
            else Printf.sprintf "%.3f" (r.r_change.median /. r.r_parent.median))
           r.r_won pairs
           (if r.r_fail then " FAIL" else ""))
       rows)
  @ ""
    :: "| workload | run | parent jobs per run | change jobs per run |"
    :: "|---|---|---|---|"
    :: List.map
         (fun r ->
           Printf.sprintf "| %s | %d s | %s | %s |" r.r_workload (seconds r.r_workload)
             (counts fst r) (counts snd r))
         (per_workload rows)

(** The gate run as JSON: both commits, the machine, and per workload x
    metric each side's median/q1/q3 and the pairs the change won and lost. *)
let to_json ~parent ~change ~machine ~cores ~wall_s rows checks =
  let q = Json.escape in
  let spread s = Printf.sprintf {|{"median": %.6g, "q1": %.6g, "q3": %.6g}|} s.median s.q1 s.q3 in
  let metric r =
    Printf.sprintf
      {|"%s": {"better": "%s", "bound": %g, "parent": %s, "change": %s, "won": %d, "lost": %d, "fail": %b}|}
      (q r.r_metric.m_name)
      (if r.r_metric.m_higher then "higher" else "lower")
      r.r_metric.m_bound (spread r.r_parent) (spread r.r_change) r.r_won r.r_lost r.r_fail
  in
  let ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]" in
  let workload w =
    Printf.sprintf "\"%s\": {\n   \"seconds\": %d, \"jobs\": {\"parent\": %s, \"change\": %s},\n   %s}"
      (q w.r_workload) (seconds w.r_workload)
      (ints (List.map fst w.r_jobs))
      (ints (List.map snd w.r_jobs))
      (String.concat ",\n   "
         (List.map metric (List.filter (fun r -> r.r_workload = w.r_workload) rows)))
  in
  let check c =
    Printf.sprintf {|{"name": "%s", "pass": %b, "detail": "%s"}|} (q c.c_name) c.c_ok (q c.c_detail)
  in
  Printf.sprintf
    {|{"parent": "%s", "change": "%s", "machine": "%s", "cores": %d,
 "seed": %d, "pairs": %d, "min_lost": %d, "wall_s": %.1f, "pass": %b,
 "workloads": {
  %s},
 "checks": [
  %s]}
|}
    (q parent) (q change) (q machine) cores seed pairs min_lost wall_s
    (failures rows checks = [])
    (String.concat ",\n  " (List.map workload (per_workload rows)))
    (String.concat ",\n  " (List.map check checks))
