(* Tests for the online churn engine: session determinism, the
   self-healing detectors against their planted recovery bugs, trace
   persistence and replay, and configuration validation. *)

module Session = Asyncolor_churn.Session
module Trace = Asyncolor_churn.Trace
module Checkpoint = Asyncolor_resilience.Checkpoint
module Executor = Asyncolor_util.Executor

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* Small but non-trivial: a handful of epochs on a C16 ring, the same
   shape the CLI smoke rules use. *)
let small algo = { Session.default with algo; n = 16; horizon = 5_000 }

let campaign ?jobs ?policy cfg ~seed ~sessions =
  Session.campaign ?jobs ?policy cfg ~seed ~sessions ()

let sync = Executor.policy_of_string ~jobs:4 "sync"

(* --- clean runs -------------------------------------------------------- *)

let test_clean algo () =
  let r = campaign (small algo) ~seed:3 ~sessions:2 in
  check Alcotest.(list (pair int reject)) "no violations" [] r.violations;
  check Alcotest.bool "horizon reached" true
    (r.total_activations >= 2 * (small algo).horizon);
  check Alcotest.int "sessions" 2 (List.length r.results);
  List.iter
    (fun (s : Session.result) ->
      check Alcotest.int "drain recovers everybody" s.crashes s.recoveries;
      check Alcotest.bool "epochs elapsed" true (s.epochs > 0);
      (* at most one sample per recovery — incarnations still healing
         when the horizon trips contribute none *)
      let samples = List.length s.latencies in
      check Alcotest.bool "latency samples bounded by recoveries" true
        (samples > 0 && samples <= s.recoveries);
      List.iter
        (fun l -> check Alcotest.bool "latency positive" true (l > 0))
        s.latencies)
    r.results;
  (* crashes happened at all, so the invariants were actually exercised *)
  check Alcotest.bool "churn occurred" true (r.total_crashes > 0)

let test_clean_a2 = test_clean Session.A2
let test_clean_a3 = test_clean Session.A3

(* --- determinism ------------------------------------------------------- *)

let test_campaign_determinism () =
  let cfg = small Session.A2 in
  let reference = campaign cfg ~seed:11 ~sessions:4 ~jobs:1 in
  let legs =
    [
      ("sync j2", campaign cfg ~seed:11 ~sessions:4 ~jobs:2 ~policy:sync);
      ("sync j4", campaign cfg ~seed:11 ~sessions:4 ~jobs:4 ~policy:sync);
      ( "async j2",
        campaign cfg ~seed:11 ~sessions:4 ~jobs:2
          ~policy:(Executor.asynchronous ~jobs:2 ()) );
    ]
  in
  List.iter
    (fun (name, r) -> check Alcotest.bool name true (r = reference))
    legs

let prop_session_pure_function =
  QCheck.Test.make ~name:"run is a pure function of (config, seed, session)"
    ~count:8
    QCheck.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, session) ->
      let cfg = { (small Session.A2) with horizon = 1_500 } in
      Session.run cfg ~seed ~session = Session.run cfg ~seed ~session)

let test_session_seed () =
  (* distinct sessions must draw from distinct streams *)
  let seeds = List.init 16 (Session.session_seed ~seed:42) in
  check Alcotest.int "pairwise distinct" 16
    (List.length (List.sort_uniq compare seeds));
  check Alcotest.int "session 0 is the campaign seed" 42
    (Session.session_seed ~seed:42 0)

(* --- planted recovery bugs --------------------------------------------- *)

let test_mutants () =
  List.iter
    (fun bug ->
      let detector = Session.bug_detector bug in
      List.iter
        (fun algo ->
          let cfg = { (small algo) with mutant = Some bug } in
          let r = campaign cfg ~seed:5 ~sessions:2 in
          let name =
            Printf.sprintf "%s/a%s caught" (Session.bug_name bug)
              (Session.algo_name algo)
          in
          check Alcotest.bool name true (r.violations <> []);
          List.iter
            (fun (_, (v : Session.violation)) ->
              check Alcotest.string (name ^ ": pinned detector") detector
                v.detector)
            r.violations;
          (* the per-session cap gates the epoch loop, so a flooding
             mutant stops at 64 plus at most one epoch's overshoot *)
          List.iter
            (fun (s : Session.result) ->
              check Alcotest.bool "violation cap" true
                (List.length s.violations <= 64 + (4 * cfg.n)))
            r.results)
        [ Session.A2; Session.A3 ])
    Session.bugs

let test_detector_names () =
  check
    Alcotest.(list string)
    "every pinned detector is advertised"
    (List.sort_uniq compare (List.map Session.bug_detector Session.bugs))
    (List.filter
       (fun d -> List.mem d (List.map Session.bug_detector Session.bugs))
       (List.sort_uniq compare Session.detector_names));
  List.iter
    (fun b ->
      match Session.bug_of_string (Session.bug_name b) with
      | Some b' -> check Alcotest.bool "bug name round-trips" true (b = b')
      | None -> Alcotest.fail "bug name does not parse")
    Session.bugs

(* --- trace persistence and replay -------------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "churn-trace" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_trace_roundtrip () =
  let cfg = { (small Session.A2) with mutant = Some Session.Skip_reinit } in
  let report = campaign cfg ~seed:5 ~sessions:2 in
  let t = Trace.of_report report in
  check Alcotest.bool "trace carries the violations" true
    (t.violations = report.violations && t.violations <> []);
  with_tmp (fun path ->
      Trace.save ~path t;
      let t' = Trace.load path in
      check Alcotest.bool "round-trips" true (t = t');
      let report', reproduced = Trace.replay t' in
      check Alcotest.bool "reproduces byte-for-byte" true reproduced;
      check Alcotest.bool "replay re-runs the campaign" true
        (report'.violations = report.violations))

let test_trace_corrupt () =
  let cfg = { (small Session.A2) with mutant = Some Session.Heal_starve } in
  let t = Trace.of_report (campaign cfg ~seed:5 ~sessions:1) in
  with_tmp (fun path ->
      Trace.save ~path t;
      (* truncate: the checksummed container must refuse it *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      match Trace.load path with
      | _ -> Alcotest.fail "loaded a truncated trace"
      | exception Checkpoint.Corrupt _ -> ())

let test_trace_rejects_invalid_config () =
  (* a structurally valid container holding an out-of-range config is
     still untrusted input *)
  let cfg = small Session.A2 in
  let t =
    Trace.of_report (campaign { cfg with horizon = 1_000 } ~seed:1 ~sessions:1)
  in
  let evil = { t with cfg = { cfg with n = 2 } } in
  with_tmp (fun path ->
      Trace.save ~path evil;
      match Trace.load path with
      | _ -> Alcotest.fail "loaded a trace with an invalid config"
      | exception Checkpoint.Corrupt _ -> ())

(* --- configuration validation ------------------------------------------ *)

let test_validate () =
  let d = Session.default in
  let expect_invalid name cfg =
    match Session.validate_config cfg with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  Session.validate_config d;
  expect_invalid "n too small" { d with n = 2 };
  expect_invalid "n too large" { d with n = Sys.int_size };
  expect_invalid "horizon" { d with horizon = 0 };
  expect_invalid "crash rate" { d with crash_rate = 1.5 };
  expect_invalid "recover rate" { d with recover_rate = -0.1 };
  expect_invalid "burst low" { d with burst = 0 };
  expect_invalid "burst high" { d with burst = d.n + 1 };
  match campaign d ~seed:0 ~sessions:0 with
  | _ -> Alcotest.fail "accepted 0 sessions"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "churn"
    [
      ( "sessions",
        [
          Alcotest.test_case "clean a2" `Quick test_clean_a2;
          Alcotest.test_case "clean a3" `Quick test_clean_a3;
          Alcotest.test_case "campaign determinism" `Quick
            test_campaign_determinism;
          qtest prop_session_pure_function;
          Alcotest.test_case "session seed" `Quick test_session_seed;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "planted bugs caught" `Quick test_mutants;
          Alcotest.test_case "detector names" `Quick test_detector_names;
        ] );
      ( "traces",
        [
          Alcotest.test_case "round-trip + replay" `Quick test_trace_roundtrip;
          Alcotest.test_case "corrupt" `Quick test_trace_corrupt;
          Alcotest.test_case "invalid config" `Quick
            test_trace_rejects_invalid_config;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_validate ] );
    ]
