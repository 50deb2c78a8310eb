(* What every workload shares: the run options, the metric catalogue, the
   repeat-for-N-seconds loop of an untraced run, and the shape of a
   workload's result. *)

module Obs = Asyncolor_obs.Obs

type size = Full | Smoke

let size_name = function Full -> "full" | Smoke -> "smoke"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  expect_wrong : bool;
      (** perturb the known answers — the smoke test's check that a wrong
          verdict is counted as a failure *)
  out_dir : string;  (** spill stores and the Chrome trace go here *)
}

(* The metric catalogue: [end_to_end] is what an untraced run prints,
   [per_layer] what a traced run prints.  Every run prints every name of
   its list; a layer a workload bypasses reads 0.  BENCHMARK.json lists the
   same names and units (perfbench/smoke.py checks that they agree). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("verdict_s", "s");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("alloc_words_per_op", "words/op");
  ]

let per_layer =
  [
    ("kernel.step.calls", "count");
    ("kernel.step.ns_per_call", "ns");
    ("kernel.step.words_per_call", "words");
    ("kernel.restore.ns_per_call", "ns");
    ("kernel.activate.ns_per_call", "ns");
    ("kernel.snapshot.ns_per_call", "ns");
    ("kernel.key.calls", "count");
    ("kernel.key.ns_per_call", "ns");
    ("kernel.key.words_per_call", "words");
    ("kernel.intern.lookups", "count");
    ("kernel.intern.inserts", "count");
    ("kernel.intern.insert_ratio", "ratio");
    ("kernel.intern.ns_per_lookup", "ns");
    ("check.canon.calls", "count");
    ("check.canon.ns_per_call", "ns");
    ("check.canon.words_per_call", "words");
    ("check.canon.moved_ratio", "ratio");
    ("check.canon.group_order", "count");
    ("check.other_s", "s");
    ("check.analyze_s", "s");
    ("check.levels", "count");
    ("check.frontier_max", "count");
    ("check.barrier_wait_s", "s");
    ("util.level_log.pushes", "count");
    ("util.level_log.seals", "count");
    ("util.level_log.ns_per_seal", "ns");
    ("resilience.spill.writes", "count");
    ("resilience.spill.bytes_written", "bytes");
    ("resilience.spill.write_ns_per_mb", "ns/MB");
    ("resilience.spill.reads", "count");
    ("resilience.spill.bytes_read", "bytes");
    ("resilience.spill.read_ns_per_mb", "ns/MB");
    ("resilience.spill.quarantined", "count");
    ("resilience.spill.rebuilt", "count");
    ("util.exec.tasks", "count");
    ("util.exec.steals", "count");
    ("util.exec.wait_s", "s");
    ("util.exec.busy_s", "s");
    ("util.exec.utilization", "ratio");
    ("util.exec.speedup_vs_serial", "ratio");
    ("util.exec.rss_ratio_vs_serial", "ratio");
    ("churn.sessions", "count");
    ("churn.epochs", "count");
    ("churn.ns_per_activation", "ns");
    ("churn.words_per_activation", "words");
    ("churn.steps_per_activation", "ratio");
    ("churn.epoch_us.p50", "us");
    ("churn.epoch_us.p99", "us");
    ("churn.n_scaling", "ratio");
    ("fuzz.generate.ns_per_call", "ns");
    ("fuzz.exec.calls", "count");
    ("fuzz.exec.us_p50", "us");
    ("fuzz.exec.us_p99", "us");
    ("fuzz.exec.words_per_call", "words");
    ("fuzz.shrink.calls", "count");
    ("fuzz.shrink.ms_p50", "ms");
    ("fuzz.shrink.ms_p99", "ms");
    ("fuzz.shrink.execs_per_finding", "count");
    ("fuzz.findings", "count");
    ("obs.overhead_ratio", "ratio");
    ("obs.spans", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words/op");
  ]

type result = {
  attempted : int;
  failed : int;
  lines : string list;  (** record lines, printed before the result line *)
  metrics : (string * float) list;
}

(* --- untraced runs -------------------------------------------------------- *)

(* One iteration of a workload's verdict: the timed call(s), the op count
   and allocation of its main loop, and the check against known answers. *)
type sample = {
  verdict_s : float;  (** wall time of everything that decides the verdict *)
  ops : int;  (** ops of the main loop: transitions, activations or execs *)
  ops_s : float;  (** wall time of the main loop *)
  words : float;  (** words the main loop allocated *)
  attempted : int;
  failed : int;
  digest : string;  (** simulated statistics: equal for equal seeds *)
  extra : (string * float) list;  (** per-iteration values for record lines *)
}

(* Set-up takes nanoseconds to microseconds, so it is timed in batches
   sized to about [setup_batch_s] each, and setup_s is the median
   per-set-up time over [setup_batches] batches before each iteration.  The
   host's speed drifts over seconds, so batches spread over the run vary
   less between runs than batches taken at its start.  Fixed-size batches
   of the fastest set-ups ended within a millisecond of process start and
   moved by half between runs.  Environments are dropped at once: retaining
   a batch of them made the timing depend on minor-heap promotion. *)
let setup_batches = 11
let setup_batch_s = 0.01

let setup_times setup =
  let batch k =
    let t0 = Meter.now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (setup ()))
    done;
    Meter.seconds_since t0 /. float_of_int k
  in
  let k = max 1 (int_of_float (setup_batch_s /. batch 100)) in
  List.init setup_batches (fun _ -> batch k)

(* The digest and its MD5, for comparing runs on the same seed. *)
let digest_lines digest =
  [ "digest_md5: " ^ Digest.to_hex (Digest.string digest); "digest:\n" ^ digest ]

(* The number of iterations of an untraced run: [seconds] worth of
   iterations at [iteration_s], the instance's nominal wall time of one
   iteration, and at least two.  The count depends on the instance and
   [seconds] only, never on how fast the host runs, so every run of a
   workload takes the same number of samples. *)
let iterations ~seconds ~iteration_s =
  max 2 (int_of_float (Float.round (seconds /. iteration_s)))

(* [untraced ~seconds ~iteration_s ~setup ~iteration] runs set-up +
   [iteration] [iterations ~seconds ~iteration_s] times, timing [setup]
   before each.  The timing metrics are medians over every iteration.  The
   first runs on a cold heap, as a user's one-off run does; its times agree
   with the warm ones within the host's noise, and that noise varies over
   seconds, so leaving it out would throw away half of explore-c6's
   measured time. *)
let untraced ~seconds ~iteration_s ~setup ~iteration =
  let setup_samples = ref [] in
  let once () =
    setup_samples := setup_times setup @ !setup_samples;
    iteration (setup ())
  in
  let first = once () in
  (* Later iterations reuse a heap the first one grew and fragmented, so
     the peak of the first, in a fresh process, is the one that repeats. *)
  let rss = Meter.peak_rss_mb () in
  let warm = List.init (iterations ~seconds ~iteration_s - 1) (fun _ -> once ()) in
  let samples = first :: warm in
  let setup_times = !setup_samples in
  let digest = first.digest in
  (* an iteration whose digest differs from the first is nondeterministic,
     hence wrong *)
  let unstable =
    List.length (List.filter (fun s -> s.digest <> digest) samples)
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 samples in
  let attempted = sum (fun s -> s.attempted) in
  let failed = min attempted (sum (fun s -> s.failed) + unstable) in
  let col f = List.map f samples in
  let verdicts = col (fun s -> s.verdict_s) in
  let rates = col (fun s -> float_of_int s.ops /. s.ops_s) in
  let words = col (fun s -> s.words /. float_of_int (max 1 s.ops)) in
  let extra_names = List.map fst first.extra in
  let lines =
    [
      "setup_s: " ^ Meter.summary setup_times ^ " unit=s";
      "verdict_s: " ^ Meter.summary verdicts ^ " unit=s";
      "ops_per_s: " ^ Meter.summary rates ^ " unit=1/s";
      Printf.sprintf "peak_rss_mb: %.1f (first iteration) unit=MB" rss;
      "alloc_words_per_op: " ^ Meter.summary words ^ " unit=words/op";
    ]
    @ List.map
        (fun name -> name ^ ": " ^ Meter.summary (col (fun s -> List.assoc name s.extra)))
        extra_names
    @ [
        Printf.sprintf "fail_rate: %.6g (%d of %d ops failed) unit=ratio"
          (float_of_int failed /. float_of_int attempted)
          failed attempted;
      ]
    @ digest_lines digest
  in
  {
    attempted;
    failed;
    lines;
    metrics =
      [
        ("setup_s", Meter.median setup_times);
        ("verdict_s", Meter.median verdicts);
        ("ops_per_s", Meter.median rates);
        ("peak_rss_mb", rss);
        ("alloc_words_per_op", Meter.median words);
      ];
  }

(* Allocated words of [f ()], with its result. *)
let with_words f =
  let w0 = Meter.allocated_words () in
  let r = f () in
  (r, Meter.allocated_words () -. w0)

(* --- traced runs ---------------------------------------------------------- *)

(* A probe lane in the program's sink, so bench-side spans and the
   program's spans share one trace. *)
let probe_lane = 1_000

type 'a legs = {
  first : 'a;  (** result of the first untraced leg *)
  traced : 'a;
  obs : Obs.t;  (** the traced leg's sink; the probe adds its spans here *)
  untraced_s : float;  (** mean wall time of the two untraced legs *)
  overhead : float;  (** traced ÷ untraced wall time *)
  program_spans : int;  (** spans the program recorded in the traced leg *)
  gc : Gc.stat * Gc.stat;  (** around the first leg *)
}

(* Three legs of [run]: untraced, traced into a fresh sink, untraced again.
   The first leg also grows the heap, so the untraced base is the mean of
   the two untraced legs. *)
let legs run =
  let timed obs =
    let t0 = Meter.now () in
    let r = run obs in
    (r, Meter.seconds_since t0)
  in
  let g0 = Gc.quick_stat () in
  let first, wall = timed Obs.disabled in
  let g1 = Gc.quick_stat () in
  let obs = Obs.create () in
  Obs.set_lane obs ~tid:probe_lane "perfbench probe";
  let traced, traced_wall = timed obs in
  let program_spans = List.length (Obs.spans obs) in
  let _, wall_after = timed Obs.disabled in
  let untraced_s = (wall +. wall_after) /. 2. in
  {
    first;
    traced;
    obs;
    untraced_s;
    overhead = traced_wall /. untraced_s;
    program_spans;
    gc = (g0, g1);
  }

(* The rows every traced run reports: [obs.*], and [gc.*] of the first leg
   per op. *)
let common_rows l ~ops =
  let g0, g1 = l.gc in
  [
    ("obs.overhead_ratio", l.overhead);
    ("obs.spans", float_of_int l.program_spans);
    ("gc.minor_collections", float_of_int (g1.minor_collections - g0.minor_collections));
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
    ( "gc.promoted_words_per_op",
      (g1.promoted_words -. g0.promoted_words) /. float_of_int (max 1 ops) );
  ]

let obs_metric obs name =
  match List.assoc_opt name (Obs.metrics obs) with Some v -> v | None -> 0

(* Durations in ns of the sink's spans named [name]. *)
let span_durations obs name =
  List.filter_map
    (fun (r : Obs.span_record) ->
      if r.r_name = name then Some (Int64.to_float r.r_dur) else None)
    (Obs.spans obs)

(* Total duration in seconds of the sink's spans with any of [names]. *)
let span_seconds obs names =
  List.fold_left
    (fun acc name -> acc +. (List.fold_left ( +. ) 0. (span_durations obs name) /. 1e9))
    0. names

(* Write the sink as a Chrome trace and validate it; a trace the validator
   rejects fails the run. *)
let export_trace obs ~out_dir ~name =
  let path = Filename.concat out_dir (name ^ ".trace.json") in
  Asyncolor_obs.Trace_export.write_chrome obs ~path;
  match Asyncolor_obs.Trace_export.validate path with
  | Ok events -> Printf.sprintf "trace: %s (%d events, valid)" path events
  | Error why -> failwith (Printf.sprintf "trace %s is invalid: %s" path why)

(* Fail the traced run when the probe disagrees with the program. *)
let fidelity what ~probe ~program =
  if probe <> program then
    failwith
      (Printf.sprintf "probe fidelity: %s: probe %d, program %d" what probe program);
  Printf.sprintf "fidelity: %s probe=%d program=%d ok" what probe program

(* The untraced run of [opts]'s workload, one iteration, in a child process:
   its (verdict_s, peak_rss_mb). *)
let child_untraced opts =
  let args =
    [|
      Sys.executable_name; "--workload"; opts.workload; "--seed"; string_of_int opts.seed;
      "--seconds"; "0.001"; "--trace"; "0"; "--size"; size_name opts.size;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "serial child run failed");
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim lines))) in
  let value name =
    let key = Printf.sprintf "%S: {\"value\": " name in
    let rec find i =
      if i + String.length key > String.length last then failwith ("child run: no " ^ name)
      else if String.sub last i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    Scanf.sscanf (String.sub last (find 0) (String.length last - find 0)) "%f" Fun.id
  in
  (value "verdict_s", value "peak_rss_mb")

(* --- scratch directories ---------------------------------------------------- *)

let counter = ref 0

let fresh_dir ~out_dir prefix =
  incr counter;
  let dir =
    Filename.concat out_dir (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
  in
  Unix.mkdir dir 0o755;
  dir

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
