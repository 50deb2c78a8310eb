(* The churn workload: one crash-recovery session each for Algorithms 2
   and 3 on a long ring, through [Session.campaign].  Correct means no
   self-healing detector fired.  The traced run replays every session
   through [Session.run] and adds a short leg on a smaller ring for the
   ring-size scaling of the per-activation cost. *)

module Session = Asyncolor_churn.Session
module Stats = Asyncolor_workload.Stats
module Obs = Asyncolor_obs.Obs

type instance = {
  n : int;
  horizon : int;
  scaling_n : int;
  scaling_horizon : int;
  iteration_s : float;  (** nominal wall time of one untraced iteration *)
}

let configs inst =
  List.map
    (fun algo -> { Session.default with algo; n = inst.n; horizon = inst.horizon })
    [ Session.A2; Session.A3 ]

let setup inst () =
  let cfgs = configs inst in
  List.iter Session.validate_config cfgs;
  cfgs

let campaigns ?obs ~seed cfgs =
  List.map (fun cfg -> Session.campaign ~jobs:1 ?obs cfg ~seed ~sessions:1 ()) cfgs

let summary = function
  | None -> "-"
  | Some (s : Stats.summary) ->
      Printf.sprintf "count=%d min=%d p50=%d p95=%d p99=%d max=%d mean=%.4f" s.count s.min
        s.p50 s.p95 s.p99 s.max s.mean

let digest reports =
  String.concat "\n"
    (List.map
       (fun (r : Session.report) ->
         Printf.sprintf
           "algo=%s n=%d activations=%d crashes=%d recoveries=%d epochs=%d \
            violations=%d\n  recovery latency (activations): %s\n  repair radius: %s"
           (Session.algo_name r.cfg.algo) r.cfg.n r.total_activations r.total_crashes
           r.total_recoveries
           (List.fold_left (fun a (s : Session.result) -> a + s.epochs) 0 r.results)
           (List.length r.violations) (summary r.latency) (summary r.radius))
       reports)

(* A session is an op of the verdict: it fails when a detector fired (or,
   with [expect_wrong], when none did). *)
let failed_sessions (opts : Bench.opts) reports =
  List.fold_left
    (fun acc (r : Session.report) ->
      acc
      + List.length
          (List.filter
             (fun (s : Session.result) -> (s.violations <> []) <> opts.expect_wrong)
             r.results))
    0 reports

let sessions reports = List.fold_left (fun a (r : Session.report) -> a + r.sessions) 0 reports

let activations reports =
  List.fold_left (fun a (r : Session.report) -> a + r.total_activations) 0 reports

let run_untraced (opts : Bench.opts) inst =
  Bench.untraced ~seconds:opts.seconds ~iteration_s:inst.iteration_s ~setup:(setup inst)
    ~iteration:(fun cfgs ->
      let t0 = Meter.now () in
      let reports, words = Bench.with_words (fun () -> campaigns ~seed:opts.seed cfgs) in
      let dt = Meter.seconds_since t0 in
      {
        Bench.verdict_s = dt;
        ops = activations reports;
        ops_s = dt;
        words;
        attempted = sessions reports;
        failed = failed_sessions opts reports;
        digest = digest reports;
        extra = [];
      })

(* Per-session replay through [Session.run]: (results, ns, words). *)
let probe ~obs ~seed cfgs =
  let ns = ref 0 and words = ref 0. in
  let results =
    List.map
      (fun (cfg : Session.config) ->
        Obs.span obs ~tid:Bench.probe_lane
          ~args:[ ("algo", Session.algo_name cfg.algo); ("n", string_of_int cfg.n) ]
          "probe.session"
        @@ fun () ->
        let t0 = Meter.now () in
        let r, w = Bench.with_words (fun () -> Session.run cfg ~seed ~session:0) in
        ns := !ns + Int64.to_int (Int64.sub (Meter.now ()) t0);
        words := !words +. w;
        r)
      cfgs
  in
  (results, float_of_int !ns, !words)

let run_traced (opts : Bench.opts) inst =
  let cfgs = setup inst () in
  let seed = opts.seed in
  let l = Bench.legs (fun obs -> campaigns ~obs ~seed cfgs) in
  let obs = l.obs and r0 = l.first and r1 = l.traced in
  let epoch_us = Meter.sorted (List.map (fun d -> d /. 1e3) (Bench.span_durations obs "churn.epoch")) in
  let results, ns, words = Obs.span obs ~tid:Bench.probe_lane "probe" (fun () -> probe ~obs ~seed cfgs) in
  let small =
    List.map (fun (c : Session.config) -> { c with n = inst.scaling_n; horizon = inst.scaling_horizon }) cfgs
  in
  let small_results, small_ns, _ = probe ~obs ~seed small in
  let sum f rs = List.fold_left (fun a (s : Session.result) -> a + f s) 0 rs in
  let total f = List.fold_left (fun a (r : Session.report) -> a + sum f r.results) 0 r1 in
  let acts = sum (fun s -> s.activations) results in
  let ns_per_act = ns /. float_of_int acts in
  let small_ns_per_act = small_ns /. float_of_int (sum (fun s -> s.activations) small_results) in
  let lines =
    [
      Bench.fidelity "sessions" ~probe:(List.length results) ~program:(sessions r1);
      Bench.fidelity "activations" ~probe:acts ~program:(activations r1);
      Bench.fidelity "steps" ~probe:(sum (fun s -> s.steps) results) ~program:(total (fun s -> s.steps));
      Bench.fidelity "epochs" ~probe:(sum (fun s -> s.epochs) results) ~program:(total (fun s -> s.epochs));
      Bench.fidelity "crashes" ~probe:(sum (fun s -> s.crashes) results) ~program:(total (fun s -> s.crashes));
      Bench.fidelity "recoveries" ~probe:(sum (fun s -> s.recoveries) results)
        ~program:(total (fun s -> s.recoveries));
      Bench.export_trace obs ~out_dir:opts.out_dir
        ~name:(Printf.sprintf "%s-seed%d" opts.workload seed);
    ]
    @ Bench.digest_lines (digest r0)
  in
  let f = float_of_int in
  (* [Session.run] reaches the engine internally: its step count is the
     engine's clock, but the cost per step cannot be timed from outside. *)
  let metrics =
    [
      ("kernel.step.calls", f (sum (fun s -> s.steps) results));
      ("churn.sessions", f (List.length results));
      ("churn.epochs", f (sum (fun s -> s.epochs) results));
      ("churn.ns_per_activation", ns_per_act);
      ("churn.words_per_activation", words /. f acts);
      ("churn.steps_per_activation", f (sum (fun s -> s.steps) results) /. f acts);
      ("churn.epoch_us.p50", Meter.percentile epoch_us 0.5);
      ("churn.epoch_us.p99", Meter.percentile epoch_us 0.99);
      ("churn.n_scaling", ns_per_act /. small_ns_per_act);
    ]
    @ Bench.common_rows l ~ops:(activations r0)
  in
  let reports = r0 @ r1 in
  { Bench.attempted = sessions reports; failed = failed_sessions opts reports; lines; metrics }

let run (opts : Bench.opts) inst =
  if opts.traced then run_traced opts inst else run_untraced opts inst
