(* The fuzz workload: a clean campaign over all four algorithms, then one
   short campaign per planted mutant.  Correct means every clean finding is
   Finding F1 (an [activation-bound] violation on Algorithm 2, 2s or 3) and
   every mutant is caught with a shrunk trace that replays.  The traced run
   replays each exec through [Scenario.generate], [Exec.run] and
   [Shrink.minimize]. *)

module Fuzz = Asyncolor_fuzz.Fuzz
module Scenario = Asyncolor_fuzz.Scenario
module Exec = Asyncolor_fuzz.Exec
module Shrink = Asyncolor_fuzz.Shrink
module Mutation = Asyncolor_fuzz.Mutation
module Prng = Asyncolor_util.Prng
module Obs = Asyncolor_obs.Obs

type instance = {
  max_n : int;
  clean_execs : int;
  mutant_execs : int;
  iteration_s : float;  (** nominal wall time of one untraced iteration *)
}

(* Resolve the planted mutants the campaigns run against. *)
let setup () = List.map (fun name -> (Option.get (Mutation.find name)).Mutation.name) Mutation.names

(* F1: Algorithm 2's phase-lock livelock, also reachable by 2s and 3
   schedules that exceed the activation bound. *)
let is_f1 (f : Fuzz.finding) =
  f.invariant = "activation-bound"
  && List.mem f.trace.scenario.algo Scenario.[ A2; A2s; A3 ]

let replays (f : Fuzz.finding) = snd (Fuzz.replay f.shrunk)

type mix = { clean : Fuzz.report; mutants : (string * Fuzz.report) list }

let finding_line (f : Fuzz.finding) =
  let n, steps, weight = Scenario.size f.shrunk.scenario in
  Printf.sprintf "(%d,%s,%d/%d/%d)" f.exec f.invariant n steps weight

let digest m =
  let line name (r : Fuzz.report) =
    Printf.sprintf "%s: execs=%d findings=%d %s" name r.execs_done
      (List.length r.findings)
      (String.concat " " (List.map finding_line r.findings))
  in
  String.concat "\n" (line "clean" m.clean :: List.map (fun (n, r) -> line n r) m.mutants)

(* Ops: each clean exec, and each mutant campaign. *)
let failures (opts : Bench.opts) m =
  let clean_bad =
    List.length (List.filter (fun f -> is_f1 f = opts.expect_wrong) m.clean.findings)
  in
  let caught (r : Fuzz.report) = r.findings <> [] && List.for_all replays r.findings in
  let mutant_bad =
    List.length (List.filter (fun (_, r) -> caught r = opts.expect_wrong) m.mutants)
  in
  clean_bad + mutant_bad

let attempted m = m.clean.execs_done + List.length m.mutants

let clean ?obs ~seed inst =
  Fuzz.campaign ~jobs:1 ?obs ~max_n:inst.max_n ~seed ~execs:inst.clean_execs ()

let mutant ?obs ~seed inst name =
  Fuzz.campaign ~jobs:1 ?obs ~mutation:name ~max_n:inst.max_n ~seed ~execs:inst.mutant_execs ()

let findings rs = List.fold_left (fun a (_, (r : Fuzz.report)) -> a + List.length r.findings) 0 rs

let run_untraced (opts : Bench.opts) inst =
  Bench.untraced ~seconds:opts.seconds ~iteration_s:inst.iteration_s ~setup
    ~iteration:(fun names ->
      let t0 = Meter.now () in
      let c, words = Bench.with_words (fun () -> clean ~seed:opts.seed inst) in
      let clean_s = Meter.seconds_since t0 in
      let t1 = Meter.now () in
      let mutants = List.map (fun name -> (name, mutant ~seed:opts.seed inst name)) names in
      let mutant_s = Meter.seconds_since t1 in
      let m = { clean = c; mutants } in
      {
        Bench.verdict_s = clean_s +. mutant_s;
        ops = c.execs_done;
        ops_s = clean_s;
        words;
        attempted = attempted m;
        failed = failures opts m;
        digest = digest m;
        extra = [ ("findings_per_s", float_of_int (findings mutants) /. mutant_s) ];
      })

(* --- the layer probe ------------------------------------------------- *)

type probe = {
  generate : Meter.acc;
  exec : Meter.acc;
  shrink : Meter.acc;
  mutable exec_ns : float list;
  mutable shrink_ns : float list;
  mutable shrink_execs : int;
  mutable found : (int * string * Scenario.t) list;  (** newest first *)
}

(* One campaign replayed exec by exec, as [Fuzz.run_one] does it. *)
let probe_campaign p ~obs ~seed ?mutation (inst : instance) ~execs =
  let algos =
    Option.map (fun m -> [ (Option.get (Mutation.find m)).Mutation.base ]) mutation
  in
  let batch = 1_000 in
  let lo = ref 0 in
  while !lo < execs do
    let hi = min execs (!lo + batch) in
    Obs.span obs ~tid:Bench.probe_lane
      ~args:[ ("lo", string_of_int !lo); ("hi", string_of_int hi) ]
      "probe.batch"
      (fun () ->
        for i = !lo to hi - 1 do
          let prng = Prng.create ~seed:(Fuzz.exec_seed ~seed i) in
          let t0 = Meter.now () and w0 = Gc.minor_words () in
          let sc = Scenario.generate ?algos ?mutation ~max_n:inst.max_n prng in
          let w1 = Gc.minor_words () and t1 = Meter.now () in
          Meter.charge p.generate ~t0 ~t1 ~w0 ~w1;
          let t0 = Meter.now () and w0 = Gc.minor_words () in
          let out = Exec.run sc in
          let w1 = Gc.minor_words () and t1 = Meter.now () in
          Meter.charge p.exec ~t0 ~t1 ~w0 ~w1;
          p.exec_ns <- Int64.to_float (Int64.sub t1 t0) :: p.exec_ns;
          match out.violations with
          | [] -> ()
          | v :: _ ->
              let t0 = Meter.now () in
              let shrunk, stats = Shrink.minimize sc ~invariant:v.invariant in
              let t1 = Meter.now () in
              Meter.charge p.shrink ~t0 ~t1 ~w0:0. ~w1:0.;
              p.shrink_ns <- Int64.to_float (Int64.sub t1 t0) :: p.shrink_ns;
              p.shrink_execs <- p.shrink_execs + stats.execs;
              p.found <- (i, v.invariant, shrunk) :: p.found
        done);
    lo := hi
  done

let run_traced (opts : Bench.opts) inst =
  let names = setup () in
  let seed = opts.seed in
  let mix ~obs () =
    let c = clean ~obs ~seed inst in
    { clean = c; mutants = List.map (fun name -> (name, mutant ~obs ~seed inst name)) names }
  in
  let l = Bench.legs (fun obs -> mix ~obs ()) in
  let obs = l.obs and m0 = l.first and m1 = l.traced in
  let a = Meter.acc in
  let p =
    {
      generate = a (); exec = a (); shrink = a (); exec_ns = []; shrink_ns = [];
      shrink_execs = 0; found = [];
    }
  in
  Obs.span obs ~tid:Bench.probe_lane "probe" (fun () ->
      probe_campaign p ~obs ~seed inst ~execs:inst.clean_execs;
      List.iter
        (fun mutation -> probe_campaign p ~obs ~seed ~mutation inst ~execs:inst.mutant_execs)
        names);
  let program_found =
    List.concat_map
      (fun (r : Fuzz.report) ->
        List.map (fun (f : Fuzz.finding) -> (f.exec, f.invariant, f.shrunk.scenario)) r.findings)
      (m1.clean :: List.map snd m1.mutants)
  in
  let probe_found = List.rev p.found in
  let nfound = List.length probe_found in
  let lines =
    [
      Bench.fidelity "findings" ~probe:nfound ~program:(List.length program_found);
      Bench.fidelity "identical findings"
        ~probe:(if probe_found = program_found then nfound else -1)
        ~program:nfound;
      Bench.fidelity "execs" ~probe:p.exec.calls
        ~program:
          (List.fold_left
             (fun a (r : Fuzz.report) -> a + r.execs_done)
             0
             (m1.clean :: List.map snd m1.mutants));
      Bench.export_trace obs ~out_dir:opts.out_dir
        ~name:(Printf.sprintf "%s-seed%d" opts.workload seed);
    ]
    @ Bench.digest_lines (digest m0)
  in
  let f = float_of_int in
  let exec_us = Meter.sorted (List.map (fun ns -> ns /. 1e3) p.exec_ns) in
  let shrink_ms = Meter.sorted (List.map (fun ns -> ns /. 1e6) p.shrink_ns) in
  let metrics =
    [
      ("fuzz.generate.ns_per_call", Meter.ns_per_call p.generate);
      ("fuzz.exec.calls", f p.exec.calls);
      ("fuzz.exec.us_p50", Meter.percentile exec_us 0.5);
      ("fuzz.exec.us_p99", Meter.percentile exec_us 0.99);
      ("fuzz.exec.words_per_call", Meter.words_per_call p.exec);
      ("fuzz.shrink.calls", f p.shrink.calls);
      ("fuzz.shrink.ms_p50", Meter.percentile shrink_ms 0.5);
      ("fuzz.shrink.ms_p99", Meter.percentile shrink_ms 0.99);
      ("fuzz.shrink.execs_per_finding", Meter.ratio (f p.shrink_execs) (f nfound));
      ("fuzz.findings", f nfound);
    ]
    @ Bench.common_rows l ~ops:m0.clean.execs_done
  in
  {
    Bench.attempted = attempted m0 + attempted m1;
    failed = failures opts m0 + failures opts m1;
    lines;
    metrics;
  }

let run (opts : Bench.opts) inst =
  if opts.traced then run_traced opts inst else run_untraced opts inst
