(** E13 — Finding F1 (a reproduction result *about* the paper): under the
    paper's own schedule semantics, which explicitly permits sets of
    processes to perform simultaneous write-then-read rounds (§2.1–2.2),
    Algorithms 2 and 3 are {e not} wait-free as literally specified.

    Minimal counterexample (found by exhaustive model checking, replayed
    below): on [C_3] with identifiers (5,1,9), after process 0 wakes alone
    and returns colour 0 — which wait-freedom forces — the schedule
    [{1,2}, {1,2}, …] keeps processes 1 and 2 in a symmetric period-2 state
    cycle: each round both find their [a] and [b] in the conflict set [C]
    and recompute the same mex values from each other's freshly-written
    registers.  The frozen register of the returned process pins colour 0
    in [C] forever (so the local maximum can never return its [a = 0]),
    and perfect simultaneity preserves the symmetry [b_p = b_q].  The
    strict-inequality step in the proof sketch of Lemma 3.13
    ("[b̂_p(t4) = 0 < min{â_q(t4), …}]") fails exactly here.

    The flaw is not specific to [C_3]: the deterministic [staircase]
    schedule (wake processes one by one, then run the survivors
    simultaneously) reproduces it at every tested size.  Under
    interleaved schedules (no two processes ever simultaneous) the
    algorithms are wait-free — verified exhaustively on small cycles with
    exact worst-case activation counts.  Algorithm 1 is immune in both
    modes (its local extrema pin one colour component unilaterally). *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module Adversary = Asyncolor_kernel.Adversary
module Claims = Asyncolor.Claims
module Exp1 = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm1.P)
module Exp2 = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P)
module Exp3 = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm3.P)

let pp_sched s =
  String.concat " "
    (List.map (fun l -> "{" ^ String.concat "," (List.map string_of_int l) ^ "}") s)

let sizes ~quick = if quick then [ 8; 32 ] else [ 8; 32; 128; 512 ]

let run ?(quick = false) ?(seed = 54) () =
  let ok = ref true in
  (* 1. Exhaustive verdicts per schedule mode on small cycles. *)
  let modes_table =
    Table.create
      ~headers:[ "algorithm"; "cycle"; "mode"; "wait-free"; "worst rounds"; "lasso" ]
  in
  let record name (r : Exp1.report) cycle mode expected_wf =
    ok := !ok && r.complete && r.wait_free = expected_wf;
    Table.add_row modes_table
      [
        name;
        cycle;
        mode;
        string_of_bool r.wait_free;
        string_of_int r.worst_case_activations;
        (match r.livelock with Some v -> pp_sched v.schedule | None -> "-");
      ]
  in
  (* Explorer reports share the same record shape across functor
     instances; convert via identity re-packing. *)
  let conv (r : Exp2.report) : Exp1.report =
    {
      configs = r.configs;
      transitions = r.transitions;
      terminal_configs = r.terminal_configs;
      complete = r.complete;
      wait_free = r.wait_free;
      livelock =
        Option.map
          (fun (v : Exp2.violation) ->
            { Exp1.message = v.message; schedule = v.schedule })
          r.livelock;
      safety = [];
      worst_case_activations = r.worst_case_activations;
      orbit = r.orbit;
    }
  in
  let conv3 (r : Exp3.report) : Exp1.report =
    {
      configs = r.configs;
      transitions = r.transitions;
      terminal_configs = r.terminal_configs;
      complete = r.complete;
      wait_free = r.wait_free;
      livelock =
        Option.map
          (fun (v : Exp3.violation) ->
            { Exp1.message = v.message; schedule = v.schedule })
          r.livelock;
      safety = [];
      worst_case_activations = r.worst_case_activations;
      orbit = r.orbit;
    }
  in
  let g3 = Builders.cycle 3 and g4 = Builders.cycle 4 in
  record "alg1" (Exp1.explore g3 ~idents:[| 5; 1; 9 |]) "C3" "simultaneous" true;
  record "alg1" (Exp1.explore g4 ~idents:[| 5; 1; 9; 4 |]) "C4" "simultaneous" true;
  record "alg2" (conv (Exp2.explore g3 ~idents:[| 5; 1; 9 |])) "C3" "simultaneous" false;
  record "alg2"
    (conv (Exp2.explore ~mode:`Singletons g3 ~idents:[| 5; 1; 9 |]))
    "C3" "interleaved" true;
  record "alg2" (conv (Exp2.explore g4 ~idents:[| 5; 1; 9; 4 |])) "C4" "simultaneous" false;
  record "alg2"
    (conv (Exp2.explore ~mode:`Singletons g4 ~idents:[| 5; 1; 9; 4 |]))
    "C4" "interleaved" true;
  record "alg3" (conv3 (Exp3.explore g3 ~idents:[| 12; 47; 30 |])) "C3" "simultaneous" false;
  record "alg3"
    (conv3 (Exp3.explore ~mode:`Singletons g3 ~idents:[| 12; 47; 30 |]))
    "C3" "interleaved" true;
  (* 2. The lock at scale, under the deterministic symmetric schedule. *)
  let scale_table =
    Table.create
      ~headers:[ "n"; "workload"; "algorithm"; "locks"; "locking schedules" ]
  in
  let lock_count = ref 0 in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun (wname, idents) ->
          let probe name sweep =
            let s = (sweep : Harness.run_summary) in
            if s.livelocked then incr lock_count;
            Table.add_row scale_table
              [
                string_of_int n;
                wname;
                name;
                string_of_bool s.livelocked;
                String.concat "; " s.livelocked_names;
              ]
          in
          probe "alg2"
            (Harness.sweep Claims.a2 ~on_cycle:true ~graph ~idents
               Harness.symmetric_suite);
          probe "alg3"
            (Harness.sweep Claims.a3 ~on_cycle:true ~graph ~idents
               Harness.symmetric_suite))
        [
          ("zigzag", Idents.zigzag n);
          ("increasing", Idents.increasing n);
          ("random", Idents.random_permutation (Prng.create ~seed:(seed + n)) n);
        ])
    (sizes ~quick);
  (* The finding must reproduce: at least one lock at scale. *)
  ok := !ok && !lock_count > 0;
  (* 3. Systematic pair attack: for every edge, drain the rest of the ring
     then run the pair in lockstep (Lockhunt).  Algorithm 1 must show zero
     locks; Algorithms 2-3 lock a positive fraction on random rings. *)
  let module H1 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm1.P) in
  let module H2 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P) in
  let module H3 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm3.P) in
  let hunt_table =
    Table.create ~headers:[ "n"; "workload"; "alg1 locks"; "alg2 locks"; "alg3 locks"; "edges" ]
  in
  let locks23 = ref 0 and locks1 = ref 0 in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun (wname, idents) ->
          let l1 = List.length (H1.locked (H1.hunt graph ~idents)) in
          let l2 = List.length (H2.locked (H2.hunt graph ~idents)) in
          let l3 = List.length (H3.locked (H3.hunt graph ~idents)) in
          locks1 := !locks1 + l1;
          locks23 := !locks23 + l2 + l3;
          Table.add_row hunt_table
            [
              string_of_int n; wname; string_of_int l1; string_of_int l2;
              string_of_int l3; string_of_int n;
            ])
        [
          ("increasing", Idents.increasing n);
          ("random", Idents.random_permutation (Prng.create ~seed:(seed + n)) n);
        ])
    (if quick then [ 8; 32 ] else [ 8; 32; 128 ]);
  ok := !ok && !locks1 = 0 && !locks23 > 0;
  (* 4. The lock is even discoverable blindly: a generic greedy adaptive
     scheduler (one-step lookahead, minimise returns) drives Algorithms
     2-3 into the livelock on its own, while Algorithm 1 terminates under
     the same malicious scheduler. *)
  let module Ad1 = Asyncolor_check.Adaptive.Make (Asyncolor.Algorithm1.P) in
  let module Ad2 = Asyncolor_check.Adaptive.Make (Asyncolor.Algorithm2.P) in
  let module Ad3 = Asyncolor_check.Adaptive.Make (Asyncolor.Algorithm3.P) in
  let adaptive_table =
    Table.create ~headers:[ "algorithm"; "cycle"; "greedy adaptive verdict" ]
  in
  let probe_adaptive name locked_expected run =
    let (r : Ad1.E.run_result) = run in
    let locked = not r.all_returned in
    ok := !ok && locked = locked_expected;
    Table.add_row adaptive_table
      [
        name;
        "C8";
        (if locked then "locked (cap hit)" else Printf.sprintf "terminated in %d rounds" r.rounds);
      ]
  in
  let idents8 = Idents.random_permutation (Prng.create ~seed:(seed + 8)) 8 in
  let g8 = Builders.cycle 8 in
  probe_adaptive "alg1" false
    (Ad1.worst_rounds ~mode:`All_subsets ~max_steps:300 g8 ~idents:idents8);
  (* re-pack the differing run_result nominal types through their fields *)
  let conv_run (r2 : Ad2.E.run_result) : Ad1.E.run_result =
    {
      steps = r2.steps;
      rounds = r2.rounds;
      activations_per_process = r2.activations_per_process;
      outputs = [||];
      all_returned = r2.all_returned;
      schedule_ended = r2.schedule_ended;
    }
  in
  let conv_run3 (r3 : Ad3.E.run_result) : Ad1.E.run_result =
    {
      steps = r3.steps;
      rounds = r3.rounds;
      activations_per_process = r3.activations_per_process;
      outputs = [||];
      all_returned = r3.all_returned;
      schedule_ended = r3.schedule_ended;
    }
  in
  probe_adaptive "alg2" true
    (conv_run (Ad2.worst_rounds ~mode:`All_subsets ~max_steps:300 g8 ~idents:idents8));
  probe_adaptive "alg3" true
    (conv_run3 (Ad3.worst_rounds ~mode:`All_subsets ~max_steps:300 g8 ~idents:idents8));
  {
    Outcome.id = "E13";
    title = "Finding F1: phase-lock under simultaneous schedules";
    claim =
      "Reproduction finding (deviation from Theorems 3.11/4.4 as stated): \
       Algorithms 2-3 livelock under sustained simultaneous activations; \
       wait-free under interleaved schedules; Algorithm 1 immune";
    tables =
      [
        ("exhaustive verdicts by schedule mode", modes_table);
        ("locks at scale under the sustained-simultaneity schedules", scale_table);
        ("isolate-pair attack per edge (Lockhunt)", hunt_table);
        ("greedy adaptive scheduler (no knowledge of the lock)", adaptive_table);
      ];
    ok = !ok;
    notes =
      [
        Printf.sprintf "%d phase-locks observed at scale" !lock_count;
        "Restoring the theorems: forbid infinite perfect simultaneity of an \
         adjacent pair (e.g. adversaries that are eventually interleaved), \
         or have the algorithm break ties by identifier when recomputing b \
         — either change removes every lock we found.";
      ];
  }
