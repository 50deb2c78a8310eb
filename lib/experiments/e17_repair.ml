(** E17 — Finding F3: repairing the F1 phase-lock inside the algorithm is
    hard; Algorithm 1 is the simultaneity-safe fallback.  (Our experiment;
    not in the paper.)

    We study the natural candidate repair Algorithm 2S — offset the
    [b]-choice by the local rank [1 + |N⁺|] so that a chasing pair picks
    different free colours — with three results:

    + the attack surface shrinks: instances of C3/C5/C6 on which
      Algorithm 2 livelocks become exhaustively wait-free over the FULL
      schedule space, and the isolate-pair hunter finds zero lockable
      edges where Algorithm 2 locks 10–20% of them;
    + the repair is {e refuted}: on C4 with monotone identifiers
      (0,1,2,3) both middle nodes have rank 1, the symmetry survives, and
      the checker returns a lasso — any bounded identifier-derived offset
      that must differ across every adjacent pair would itself be a
      proper colouring, i.e. the problem being solved;
    + the paper's own Algorithm 1 {e is} simultaneity-safe (its two
      colour components are pinned asymmetrically by local extrema):
      exhaustively wait-free in the full model on every instance we
      check, including the C4 instance that defeats Algorithm 2S —
      at the price of 6 colours instead of 5.

    Conjecture recorded in EXPERIMENTS.md: under the simultaneous reading
    of the model, 5 colours are not wait-free achievable on all cycles;
    6 are (Algorithm 1). *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module A2s = Asyncolor.Algorithm2s
module Checker = Asyncolor.Checker
module Claims = Asyncolor.Claims
module Explorer = Asyncolor_check.Explorer.Make (A2s.P)
module Explorer1 = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm1.P)
module Hunt = Asyncolor_check.Lockhunt.Make (A2s.P)
module Hunt2 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P)
module Hunt1 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm1.P)

let pp_sched s =
  String.concat " "
    (List.map (fun l -> "{" ^ String.concat "," (List.map string_of_int l) ^ "}") s)

(* (n, idents, max_configs): the cap is per-instance because the full
   schedule space grows steeply with n — C6 runs into the millions where
   C3 stays in the hundreds. *)
let instances ~quick =
  [
    (3, [| 5; 1; 9 |], 3_000_000);
    (3, [| 0; 1; 2 |], 3_000_000);
    (4, [| 5; 1; 9; 4 |], 3_000_000);
    (4, [| 0; 1; 2; 3 |], 3_000_000);
  ]
  @
  if quick then []
  else
    [
      (5, [| 5; 1; 9; 4; 7 |], 3_000_000);
      (5, [| 0; 1; 2; 3; 4 |], 3_000_000);
      (6, [| 5; 1; 9; 4; 7; 2 |], 3_000_000);
      (* The monotone C6 chase is the one instance whose reachable set we
         cannot close: it exceeds 12M configurations (measured).  A lasso
         — a conclusive livelock witness, truncation or not — already
         appears within the first 10^6, so we cap there and accept
         [not wait_free] in lieu of [complete] below. *)
      (6, [| 0; 1; 2; 3; 4; 5 |], 1_000_000);
    ]

let run ?(quick = false) ?(seed = 58) () =
  let ok = ref true in
  (* 1. exhaustive full-schedule verdicts: Algorithm 2S vs Algorithm 1 *)
  let ex_table =
    Table.create
      ~headers:
        [ "instance"; "alg2s wait-free (ALL)"; "alg2s worst"; "alg1 wait-free (ALL)";
          "alg1 worst"; "alg2s lasso" ]
  in
  let c4_monotone_refuted = ref false in
  List.iter
    (fun (n, idents, max_configs) ->
      let graph = Builders.cycle n in
      let check_outputs c = Claims.check_outputs c ~graph ~on_cycle:true in
      let r =
        Explorer.explore ~max_configs graph ~idents
          ~check_outputs:(check_outputs Claims.a2s)
      in
      let r1 =
        Explorer1.explore ~max_configs graph ~idents
          ~check_outputs:(check_outputs Claims.a1)
      in
      (* safety always; Algorithm 1 complete and wait-free always.  For
         Algorithm 2S either the exploration is exhaustive or it found a
         livelock lasso — which is conclusive even when truncated, since
         every explored edge is a real edge of the configuration graph. *)
      ok :=
        !ok
        && (r.complete || not r.wait_free)
        && r.safety = [] && r1.safety = [] && r1.complete && r1.wait_free;
      if n = 4 && idents = [| 0; 1; 2; 3 |] && not r.wait_free then
        c4_monotone_refuted := true;
      Table.add_row ex_table
        [
          Printf.sprintf "C%d (%s)" n
            (String.concat "," (Array.to_list (Array.map string_of_int idents)));
          string_of_bool r.wait_free;
          string_of_int r.worst_case_activations;
          string_of_bool r1.wait_free;
          string_of_int r1.worst_case_activations;
          (match r.livelock with Some v -> pp_sched v.schedule | None -> "-");
        ])
    (instances ~quick);
  (* the refutation is part of the finding *)
  ok := !ok && !c4_monotone_refuted;
  (* 2. attack surface at scale *)
  let lock_table =
    Table.create
      ~headers:[ "n"; "workload"; "alg2 locked edges"; "alg2s locked edges"; "alg1 locked edges" ]
  in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun (wname, idents) ->
          let l2 = List.length (Hunt2.locked (Hunt2.hunt graph ~idents)) in
          let l2s = List.length (Hunt.locked (Hunt.hunt graph ~idents)) in
          let l1 = List.length (Hunt1.locked (Hunt1.hunt graph ~idents)) in
          ok := !ok && l1 = 0;
          Table.add_row lock_table
            [
              string_of_int n; wname; string_of_int l2; string_of_int l2s;
              string_of_int l1;
            ])
        [
          ("increasing", Idents.increasing n);
          ("random", Idents.random_permutation (Prng.create ~seed:(seed + n)) n);
        ])
    (if quick then [ 8; 32 ] else [ 8; 32; 128 ]);
  (* 3. sanity: Algorithm 2S stays safe and O(n) where it does terminate *)
  let price_table =
    Table.create ~headers:[ "n"; "alg2s rounds (sync, monotone)"; "proper"; "palette" ]
  in
  List.iter
    (fun n ->
      let r =
        A2s.run_on_cycle ~max_steps:(50_000 + (6 * n))
          ~idents:(Idents.increasing n) Asyncolor_kernel.Adversary.synchronous
      in
      let v = Claims.(check a2s) ~graph:(Builders.cycle n) ~on_cycle:true r.outputs in
      ok := !ok && Checker.ok v;
      Table.add_row price_table
        [
          string_of_int n;
          (if r.all_returned then string_of_int r.rounds else "locked");
          string_of_bool v.Checker.proper;
          "{0..6}";
        ])
    (if quick then [ 16; 64 ] else [ 16; 64; 256 ]);
  {
    Outcome.id = "E17";
    title = "Finding F3: in-algorithm repairs of F1 fail; Algorithm 1 is the safe fallback";
    claim =
      "Ours: the rank-offset 5→7-colour repair shrinks but does not close \
       the F1 attack surface (refuted on C4 monotone); Algorithm 1 (6 \
       colours) is exhaustively wait-free in the full model";
    tables =
      [
        ("exhaustive over the FULL schedule space", ex_table);
        ("isolate-pair attack surface", lock_table);
        ("Algorithm 2S safety and cost where it terminates", price_table);
      ];
    ok = !ok;
    notes =
      [
        "Why repairs fail: a bounded offset that must differ on every \
         adjacent pair is itself a proper O(1)-colouring — the problem \
         being solved.  Algorithm 1 escapes because its components are \
         pinned asymmetrically by local extrema, not by symmetric mex \
         races.";
        "Conjecture: under simultaneous activation semantics no wait-free \
         5-colouring of all cycles exists; 6 colours suffice (Algorithm 1).";
        "The monotone C6 chase blows up the reachable set past 12M \
         configurations; its lasso (found within the first 10^6) is a \
         conclusive livelock witness despite the truncated exploration.";
      ];
  }
