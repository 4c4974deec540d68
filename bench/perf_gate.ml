(* The perf-regression gate's pass/fail decision (`make perf-regress`,
   bench/regress.ml), apart from the measurement it judges: a fresh perf
   point against the committed baseline BENCH_perf.json, per-metric
   thresholds.

   Checks:
     - absolute: the predecoded path must not be slower than
       decode-per-step (speedup >= 1.0) — same invariant as perf-smoke —
       and the tier-2 block engine must not be slower than the predecoded
       dispatch loop (speedup_block >= 1.0);
     - relative: fresh predecode speedup >= baseline speedup * (1 - TOL),
       and likewise for the tier-2 speedup when the baseline has one
       (a seeded >=20% throughput regression must fail the default 12%);
     - informational: absolute MIPS is machine-dependent, so a large drop
       (>50% below baseline) only warns;
     - scaling: per-domain speedup_vs_1 within 25% of the baseline point,
       skipped for points tagged "contended": true (measured with more
       domains than cores: GC-handshake slowdown, not regression), on
       1-core machines and 1-core baselines, and on request. *)

module Json = Eel_obs.Json

(* --- baseline parsing ------------------------------------------------ *)

type base_point = { bp_jobs : int; bp_speedup : float; bp_contended : bool }

type baseline = {
  b_cores : int;
  b_speedup : float;
  b_speedup_block : float option;
      (** tier-2 vs predecode; None in pre-tier-2 baselines *)
  b_mips_on : float;
  b_points : base_point list;
}

let num ctx = function
  | Some (Json.Num n) -> n
  | _ -> failwith ("baseline: missing number " ^ ctx)

let parse_baseline src =
  match Json.parse src with
  | Error m -> failwith ("baseline: not valid JSON: " ^ m)
  | Ok root ->
      let throughput =
        match Json.member "throughput" root with
        | Some t -> t
        | None -> failwith "baseline: no throughput"
      in
      let on =
        match Json.member "predecode_on" throughput with
        | Some v -> v
        | None -> failwith "baseline: no predecode_on"
      in
      let points =
        match Json.member "scaling" root with
        | Some sc -> (
            match Json.member "points" sc with
            | Some (Json.Arr ps) ->
                List.map
                  (fun p ->
                    {
                      bp_jobs = int_of_float (num "jobs" (Json.member "jobs" p));
                      bp_speedup =
                        num "speedup_vs_1" (Json.member "speedup_vs_1" p);
                      bp_contended =
                        (match Json.member "contended" p with
                        | Some (Json.Bool b) -> b
                        | _ -> false);
                    })
                  ps
            | _ -> [])
        | None -> []
      in
      {
        b_cores = int_of_float (num "cores" (Json.member "cores" root));
        b_speedup = num "speedup" (Json.member "speedup" throughput);
        b_speedup_block =
          (match Json.member "speedup_block" throughput with
          | Some (Json.Num n) -> Some n
          | _ -> None);
        b_mips_on = num "mips" (Json.member "mips" on);
        b_points = points;
      }

(* --- the decision ---------------------------------------------------- *)

(** One freshly measured perf point, as the throughput checks read it. *)
type fresh = { f_speedup : float; f_speedup_block : float; f_mips_on : float }

type verdict = Pass | Fail | Skip | Warn

type check = { c_name : string; c_verdict : verdict; c_detail : string }

let verdict_name = function
  | Pass -> "PASS"
  | Fail -> "FAIL"
  | Skip -> "SKIP"
  | Warn -> "WARN"

let gated name ok detail =
  { c_name = name; c_verdict = (if ok then Pass else Fail); c_detail = detail }

(** The throughput checks of a fresh point against [base] at tolerance
    [tol] (a fraction). *)
let throughput_checks ~tol base f =
  let floor b = b *. (1.0 -. tol) in
  [
    gated "predecode not slower than decode" (f.f_speedup >= 1.0)
      (Printf.sprintf "%.2fx" f.f_speedup);
    gated "throughput speedup vs baseline"
      (f.f_speedup >= floor base.b_speedup)
      (Printf.sprintf "%.2fx vs %.2fx (floor %.2fx)" f.f_speedup base.b_speedup
         (floor base.b_speedup));
    gated "tier-2 not slower than predecode" (f.f_speedup_block >= 1.0)
      (Printf.sprintf "%.2fx" f.f_speedup_block);
    (match base.b_speedup_block with
    | None ->
        {
          c_name = "tier-2 speedup vs baseline";
          c_verdict = Skip;
          c_detail = "baseline predates the block tier";
        }
    | Some b ->
        gated "tier-2 speedup vs baseline"
          (f.f_speedup_block >= floor b)
          (Printf.sprintf "%.2fx vs %.2fx (floor %.2fx)" f.f_speedup_block b
             (floor b)));
  ]
  @
  if f.f_mips_on < base.b_mips_on *. 0.5 then
    [
      {
        c_name = "absolute MIPS";
        c_verdict = Warn;
        c_detail =
          Printf.sprintf "%.1f MIPS vs baseline %.1f (machine-dependent, not gated)"
            f.f_mips_on base.b_mips_on;
      };
    ]
  else []

(** Why the scaling checks cannot run on a machine with [cores] cores
    against [base] ([skip]: asked to skip them), or [None] when they can. *)
let scaling_skip ~cores ~skip base =
  if base.b_points = [] then Some "baseline has no sweep points"
  else if cores <= 1 || base.b_cores <= 1 then
    Some "1-core run: sweep measures GC-handshake contention, not scaling"
  else if List.exists (fun p -> p.bp_contended) base.b_points then
    Some "baseline sweep points tagged contended"
  else if skip then Some "EEL_REGRESS_SCALING=skip"
  else None

(** The domain counts to sweep on [cores] cores: the baseline's points
    that fit. *)
let scaling_jobs ~cores base =
  List.filter_map
    (fun p -> if (not p.bp_contended) && p.bp_jobs <= cores then Some p.bp_jobs else None)
    base.b_points

(** The scaling checks of fresh [(domains, speedup_vs_1)] points. *)
let scaling_checks base fresh =
  List.filter_map
    (fun (j, speedup) ->
      Option.map
        (fun p ->
          gated
            (Printf.sprintf "scaling speedup at %d domains" j)
            (speedup >= p.bp_speedup *. 0.75)
            (Printf.sprintf "%.2fx vs %.2fx" speedup p.bp_speedup))
        (List.find_opt (fun p -> p.bp_jobs = j) base.b_points))
    fresh

let failures checks =
  List.filter_map
    (fun c -> if c.c_verdict = Fail then Some c.c_name else None)
    checks
