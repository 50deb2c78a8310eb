(* The explorer workloads: one [explore] call on a fixed instance, checked
   against pinned answers.  The traced run adds a layer probe — a serial
   BFS through the explorer's public pieces (engine step, packed key or
   canonicalization, [Key_tbl], [Level_log], [Spill]) that times each
   call — and reads the program's own obs spans and counters. *)

module Explorer = Asyncolor_check.Explorer
module Level_log = Asyncolor_util.Sharded_tbl.Level_log
module Spill = Asyncolor_resilience.Spill
module Builders = Asyncolor_topology.Builders
module Obs = Asyncolor_obs.Obs

type expect = {
  configs : int;
  transitions : int;
  terminal : int;
  worst : int;
  orbit : (int * int * int * int) option;
      (** group order, expanded configs, transitions, terminal *)
}

type instance = {
  n : int;
  idents : int array;
  mode : [ `All_subsets | `Singletons ];
  symmetry : bool;
  spill_words : int option;  (** level threshold; [None] keeps it in memory *)
  traced_jobs : int;  (** of the traced legs; above 1, a serial run follows *)
  iteration_s : float;  (** nominal wall time of one untraced iteration *)
  expect : expect;
}

module Make (P : Asyncolor_kernel.Protocol.S) = struct
  module X = Explorer.Make (P)
  module E = X.E

  type env = { graph : Asyncolor_topology.Graph.t; group : int array array }

  let setup inst () =
    let graph = Builders.cycle inst.n in
    { graph; group = X.symmetry_group ~symmetry:inst.symmetry graph ~idents:inst.idents }

  (* The run's spill directory is made once, outside set-up timing: mkdir
     latency on a shared file system moved the median set-up time by a
     third between sets of runs. *)
  let with_spill_dir (opts : Bench.opts) inst f =
    match inst.spill_words with
    | None -> f None
    | Some _ ->
        let dir = Bench.fresh_dir ~out_dir:opts.out_dir "spill" in
        Fun.protect ~finally:(fun () -> Bench.remove_tree dir) (fun () -> f (Some dir))

  (* A fresh store per call: levels are written once per store. *)
  let fresh_store inst dir =
    match (inst.spill_words, dir) with
    | Some words, Some dir ->
        let dir = Bench.fresh_dir ~out_dir:dir "store" in
        Some (Spill.create ~dir (), words)
    | _ -> None

  let explore ?obs ~jobs ~dir inst env =
    let spill = fresh_store inst dir in
    let r =
      X.explore ~mode:inst.mode ~jobs ~symmetry:inst.symmetry ?spill ?obs env.graph
        ~idents:inst.idents
    in
    (r, Option.map fst spill)

  let digest (r : X.report) =
    Printf.sprintf
      "configs=%d transitions=%d terminal=%d complete=%b wait_free=%b worst=%d \
       livelock=%b safety=%d%s"
      r.configs r.transitions r.terminal_configs r.complete r.wait_free
      r.worst_case_activations (r.livelock <> None) (List.length r.safety)
      (match r.orbit with
      | None -> ""
      | Some o ->
          Printf.sprintf " orbit: group=%d expanded_configs=%d expanded_transitions=%d \
                          expanded_terminal=%d"
            o.group_order o.expanded_configs o.expanded_transitions o.expanded_terminal)

  let correct (e : expect) (r : X.report) =
    r.complete && r.wait_free && r.livelock = None && r.safety = []
    && r.configs = e.configs && r.transitions = e.transitions
    && r.terminal_configs = e.terminal && r.worst_case_activations = e.worst
    &&
    match (r.orbit, e.orbit) with
    | None, None -> true
    | Some o, Some (g, c, t, term) ->
        o.group_order = g && o.expanded_configs = c && o.expanded_transitions = t
        && o.expanded_terminal = term
    | _ -> false

  let expected (opts : Bench.opts) inst =
    if opts.expect_wrong then { inst.expect with worst = inst.expect.worst + 1 }
    else inst.expect

  let run_untraced (opts : Bench.opts) inst =
    let expect = expected opts inst in
    with_spill_dir opts inst @@ fun dir ->
    Bench.untraced ~seconds:opts.seconds ~iteration_s:inst.iteration_s ~setup:(setup inst)
      ~iteration:(fun env ->
        let t0 = Meter.now () in
        let (r, _), words = Bench.with_words (fun () -> explore ~jobs:1 ~dir inst env) in
        let dt = Meter.seconds_since t0 in
        {
          Bench.verdict_s = dt;
          ops = r.transitions;
          ops_s = dt;
          words;
          attempted = 1;
          failed = (if correct expect r then 0 else 1);
          digest = digest r;
          extra = [];
        })

  (* --- the layer probe ------------------------------------------------- *)

  type probe = {
    restore : Meter.acc;
    activate : Meter.acc;
    snapshot : Meter.acc;
    key : Meter.acc;  (** [canonicalize] under the trivial group = [E.config_key] *)
    canon : Meter.acc;  (** [canonicalize] under a nontrivial group *)
    lookup : Meter.acc;
    insert : Meter.acc;
    seal : Meter.acc;  (** seals that closed a level *)
    write : Meter.acc;
    read : Meter.acc;
    mutable moved : int;  (** successors remapped to a smaller orbit rep *)
    mutable pushes : int;
    mutable configs : int;
    mutable transitions : int;
  }

  (* Serial BFS in the explorer's discovery order.  Each transition is
     timed call by call; spans are per BFS level. *)
  let probe ~obs ~dir inst env =
    let a = Meter.acc in
    let p =
      {
        restore = a (); activate = a (); snapshot = a (); key = a (); canon = a ();
        lookup = a (); insert = a (); seal = a (); write = a (); read = a ();
        moved = 0; pushes = 0; configs = 0; transitions = 0;
      }
    in
    let store = fresh_store inst dir in
    let log = Level_log.create ?threshold_words:(Option.map snd store) () in
    let trivial = Array.length env.group = 1 in
    let canonicalize c =
      let t0 = Meter.now () and w0 = Gc.minor_words () in
      let r = X.canonicalize env.group c in
      let w1 = Gc.minor_words () and t1 = Meter.now () in
      Meter.charge (if trivial then p.key else p.canon) ~t0 ~t1 ~w0 ~w1;
      r
    in
    let tbl = E.Key_tbl.create 1024 in
    let queue = Queue.create () in
    let engine = E.create env.graph ~idents:inst.idents in
    let intern key rep =
      let t0 = Meter.now () and w0 = Gc.minor_words () in
      E.Key_tbl.add tbl key p.configs;
      let w1 = Gc.minor_words () and t1 = Meter.now () in
      Meter.charge p.insert ~t0 ~t1 ~w0 ~w1;
      Queue.add (p.configs, rep) queue;
      p.configs <- p.configs + 1;
      p.configs - 1
    in
    let root_key, root, _, _ = canonicalize (E.snapshot engine) in
    ignore (intern root_key root);
    let level = ref 0 and level_end = ref 1 in
    let span = ref (Obs.begin_span obs ~tid:Bench.probe_lane "probe.level") in
    while not (Queue.is_empty queue) do
      let uid, config = Queue.pop queue in
      if uid >= !level_end then begin
        Obs.end_span obs !span;
        incr level;
        level_end := p.configs;
        span :=
          Obs.begin_span obs ~tid:Bench.probe_lane
            ~args:[ ("level", string_of_int !level) ]
            "probe.level"
      end;
      let um = E.config_unfinished_mask config in
      let masks = if um = 0 then [||] else Explorer.masks_of inst.mode um in
      Array.iter
        (fun mask ->
          let w0 = Gc.minor_words () and t0 = Meter.now () in
          E.restore engine config;
          let t1 = Meter.now () and w1 = Gc.minor_words () in
          E.activate_mask engine mask;
          let t2 = Meter.now () and w2 = Gc.minor_words () in
          let succ = E.snapshot engine in
          let t3 = Meter.now () and w3 = Gc.minor_words () in
          Meter.charge p.restore ~t0 ~t1 ~w0 ~w1;
          Meter.charge p.activate ~t0:t1 ~t1:t2 ~w0:w1 ~w1:w2;
          Meter.charge p.snapshot ~t0:t2 ~t1:t3 ~w0:w2 ~w1:w3;
          p.transitions <- p.transitions + 1;
          let key, rep, _, pi = canonicalize succ in
          if pi <> 0 then p.moved <- p.moved + 1;
          let t0 = Meter.now () and w0 = Gc.minor_words () in
          let found = E.Key_tbl.find_opt tbl key in
          let w1 = Gc.minor_words () and t1 = Meter.now () in
          Meter.charge p.lookup ~t0 ~t1 ~w0 ~w1;
          let vid = match found with Some id -> id | None -> intern key rep in
          Level_log.push log mask;
          Level_log.push log vid;
          p.pushes <- p.pushes + 2;
          if inst.symmetry then begin
            Level_log.push log pi;
            p.pushes <- p.pushes + 1
          end)
        masks;
      match store with
      | None -> ()
      | Some (sp, _) -> (
          let t0 = Meter.now () and w0 = Gc.minor_words () in
          match Level_log.seal log with
          | None -> ()
          | Some (level, data) ->
              let w1 = Gc.minor_words () and t1 = Meter.now () in
              Meter.charge p.seal ~t0 ~t1 ~w0 ~w1;
              let t0 = Meter.now () in
              ignore (Spill.write sp ~level data);
              Meter.charge p.write ~t0 ~t1:(Meter.now ()) ~w0:0. ~w1:0.)
    done;
    Obs.end_span obs !span;
    (* the post-BFS analyses reassemble the stream through [fetch] *)
    (match store with
    | None -> ()
    | Some (sp, _) ->
        Obs.span obs ~tid:Bench.probe_lane "probe.reassemble" (fun () ->
            ignore
              (Level_log.to_array log ~fetch:(fun ~level ->
                   let t0 = Meter.now () in
                   let data = Spill.read sp ~level in
                   Meter.charge p.read ~t0 ~t1:(Meter.now ()) ~w0:0. ~w1:0.;
                   data))));
    (p, Option.map fst store)

  let run_traced (opts : Bench.opts) inst =
    let env = setup inst () in
    with_spill_dir opts inst @@ fun dir ->
    let expect = expected opts inst in
    (* the first leg runs in a fresh process, so VmHWM after it is its peak *)
    let leg ~obs ~jobs =
      let r, _ = explore ~obs ~jobs ~dir inst env in
      (r, Meter.peak_rss_mb ())
    in
    let l = Bench.legs (fun obs -> leg ~obs ~jobs:inst.traced_jobs) in
    let obs = l.obs and r0, rss = l.first and r1, _ = l.traced in
    let parallel = inst.traced_jobs > 1 in
    (* the serial run parallelism is compared against, in a fresh process
       of its own *)
    let serial_wall, serial_rss =
      if parallel then Bench.child_untraced opts else (l.untraced_s, rss)
    in
    let p, probe_store = Obs.span obs ~tid:Bench.probe_lane "probe" (fun () -> probe ~obs ~dir inst env) in
    let lines =
      [
        Bench.fidelity "configs" ~probe:p.configs ~program:r1.configs;
        Bench.fidelity "transitions" ~probe:p.transitions ~program:r1.transitions;
        (* every insert makes a config, so [configs] covers inserts *)
        Bench.fidelity "orbit_hits" ~probe:p.moved
          ~program:(Bench.obs_metric obs "explorer.orbit_hits");
        Bench.export_trace obs ~out_dir:opts.out_dir
          ~name:(Printf.sprintf "%s-seed%d" opts.workload opts.seed);
      ]
      @ Bench.digest_lines (digest r0)
    in
    let failed = List.length (List.filter (fun r -> not (correct expect r)) [ r0; r1 ]) in
    let f = float_of_int in
    let step_calls = p.restore.calls in
    let step_ns = p.restore.ns + p.activate.ns + p.snapshot.ns in
    let step_words = p.restore.words + p.activate.words + p.snapshot.words in
    let layer_s =
      List.fold_left (fun s a -> s +. Meter.seconds a) 0.
        [ p.restore; p.activate; p.snapshot; p.key; p.canon; p.lookup; p.insert; p.seal; p.write; p.read ]
    in
    let mb bytes = f bytes /. 1048576. in
    let spill_get g = match probe_store with Some sp -> g sp | None -> 0 in
    let written = spill_get Spill.bytes_written and read = spill_get Spill.bytes_read in
    let busy = Bench.span_seconds obs [ "exec.task" ] in
    let wait = Bench.span_seconds obs [ "exec.wait" ] in
    let metrics =
      [
        ("kernel.step.calls", f step_calls);
        ("kernel.step.ns_per_call", Meter.per_call p.restore step_ns);
        ("kernel.step.words_per_call", Meter.per_call p.restore step_words);
        ("kernel.restore.ns_per_call", Meter.ns_per_call p.restore);
        ("kernel.activate.ns_per_call", Meter.ns_per_call p.activate);
        ("kernel.snapshot.ns_per_call", Meter.ns_per_call p.snapshot);
        ("kernel.key.calls", f p.key.calls);
        ("kernel.key.ns_per_call", Meter.ns_per_call p.key);
        ("kernel.key.words_per_call", Meter.words_per_call p.key);
        ("kernel.intern.lookups", f p.lookup.calls);
        ("kernel.intern.inserts", f p.insert.calls);
        ("kernel.intern.insert_ratio", Meter.ratio (f p.insert.calls) (f p.lookup.calls));
        ("kernel.intern.ns_per_lookup", Meter.ns_per_call p.lookup);
        ("check.canon.calls", f p.canon.calls);
        ("check.canon.ns_per_call", Meter.ns_per_call p.canon);
        ("check.canon.words_per_call", Meter.words_per_call p.canon);
        ("check.canon.moved_ratio", Meter.ratio (f p.moved) (f p.transitions));
        ("check.canon.group_order", f (Array.length env.group));
        ("check.other_s", serial_wall -. layer_s);
        ("check.analyze_s", Bench.span_seconds obs [ "analyze.livelock"; "analyze.worstcase" ]);
        ("check.levels", f (Bench.obs_metric obs "explorer.levels"));
        ("check.frontier_max", f (Bench.obs_metric obs "explorer.frontier_max"));
        ("check.barrier_wait_s", f (Bench.obs_metric obs "explorer.wait_ns") /. 1e9);
        ("util.level_log.pushes", f p.pushes);
        ("util.level_log.seals", f p.seal.calls);
        ("util.level_log.ns_per_seal", Meter.ns_per_call p.seal);
        ("resilience.spill.writes", f p.write.calls);
        ("resilience.spill.bytes_written", f written);
        ("resilience.spill.write_ns_per_mb", Meter.ratio (f p.write.ns) (mb written));
        ("resilience.spill.reads", f p.read.calls);
        ("resilience.spill.bytes_read", f read);
        ("resilience.spill.read_ns_per_mb", Meter.ratio (f p.read.ns) (mb read));
        ("resilience.spill.quarantined", f (spill_get Spill.quarantined));
        ("resilience.spill.rebuilt", f (spill_get Spill.rebuilt));
      ]
      @ (if parallel then
           [
             ("util.exec.tasks", f (Bench.obs_metric obs "exec.tasks"));
             ("util.exec.steals", f (Bench.obs_metric obs "exec.steals"));
             ("util.exec.wait_s", wait);
             ("util.exec.busy_s", busy);
             ("util.exec.utilization", Meter.ratio busy (busy +. wait));
             ("util.exec.speedup_vs_serial", serial_wall /. l.untraced_s);
             ("util.exec.rss_ratio_vs_serial", Meter.ratio rss serial_rss);
           ]
         else [])
      @ Bench.common_rows l ~ops:r0.transitions
    in
    { Bench.attempted = 2; failed; lines; metrics }

  let run (opts : Bench.opts) inst =
    if opts.traced then run_traced opts inst else run_untraced opts inst
end
