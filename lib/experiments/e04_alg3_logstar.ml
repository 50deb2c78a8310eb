(** E4 — Theorem 4.4: Algorithm 3 terminates within O(log* n) activations.
    We sweep n over five orders of magnitude with the monotone workload
    (worst for Algorithm 2) plus bit-adversarial and sparse-random
    identifiers, and report worst rounds against log* n.  Large n use the
    lighter adversary subset (the full suite is quadratic in n·rounds). *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Logstar = Asyncolor_cv.Logstar
module Builders = Asyncolor_topology.Builders
module Adversary = Asyncolor_kernel.Adversary
module Claims = Asyncolor.Claims

let sizes ~quick =
  if quick then [ 3; 10; 100; 1_000 ]
  else [ 3; 10; 30; 100; 300; 1_000; 10_000; 100_000; 1_048_576 ]

(* For very large n, a cheap sub-suite without the sustained-simultaneity
   schedules (staircase/alternating-waves phase-lock Algorithm 3 — that is
   experiment E13's subject, not this one's). *)
let light_suite ~seed =
  [
    Adversary.synchronous;
    Adversary.random_subsets (Prng.create ~seed) ~p:0.5;
    Adversary.random_subsets (Prng.create ~seed:(seed + 1)) ~p:0.8;
  ]

let run ?(quick = false) ?(seed = 45) () =
  let table =
    Table.create
      ~headers:[ "n"; "log* n"; "workload"; "worst rounds"; "rounds / (log*n+1)" ]
  in
  let ok = ref true in
  let worst_ratio = ref 0.0 in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      let suite =
        if n <= 1_000 then Harness.adversary_suite ~seed else light_suite ~seed
      in
      let workloads =
        if n <= 100_000 then
          [
            ("increasing", Idents.increasing n);
            ("bit-adversarial", Idents.bit_adversarial n);
            ( "sparse-random",
              Idents.random_sparse (Prng.create ~seed:(seed + n)) ~n
                ~universe:(max (n * n) 64) );
          ]
        else [ ("increasing", Idents.increasing n) ]
      in
      List.iter
        (fun (wname, idents) ->
          (* Alg 3's rounds are O(log* n); the light suite's schedules use
             O(rounds/p) steps, so a small explicit cap keeps the big-n
             sweeps cheap while still detecting locks. *)
          let max_steps = if n > 1_000 then 10_000 else 50_000 + (6 * n * n) in
          let s =
            Harness.sweep ~max_steps Claims.a3 ~on_cycle:true ~graph ~idents suite
          in
          let ls = Logstar.log_star_int n in
          let ratio = float_of_int s.worst_rounds /. float_of_int (ls + 1) in
          if ratio > !worst_ratio then worst_ratio := ratio;
          ok :=
            !ok
            && s.worst_rounds <= Option.get (Claims.a3.bound ~n ~on_cycle:true)
            && s.all_proper && s.all_palette && s.all_returned
            && not s.livelocked;
          Table.add_row table
            [
              string_of_int n;
              string_of_int ls;
              wname;
              string_of_int s.worst_rounds;
              Printf.sprintf "%.2f" ratio;
            ])
        workloads)
    (sizes ~quick);
  {
    Outcome.id = "E4";
    title = "Algorithm 3 runs in O(log* n) rounds";
    claim = "Theorem 4.4: wait-free 5-colouring in O(log* n) activations";
    tables = [ ("rounds vs n", table) ];
    ok = !ok;
    notes =
      [
        Printf.sprintf
          "max observed rounds/(log* n + 1) = %.2f — a small constant, flat \
           across five orders of magnitude of n" !worst_ratio;
      ];
  }
