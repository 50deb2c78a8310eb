(** E1 — Theorem 3.1 (Termination): every process running Algorithm 1 on
    [C_n] terminates within [⌊3n/2⌋ + 4] activations, for every schedule.
    We measure the worst round complexity over the adversary suite, for
    the three identifier workloads, and compare to the bound. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module Claims = Asyncolor.Claims

let sizes ~quick =
  if quick then [ 3; 4; 5; 8; 13; 21; 34 ]
  else [ 3; 4; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 512 ]

let workloads ~seed n =
  [
    ("increasing", Idents.increasing n);
    ("zigzag", Idents.zigzag n);
    ("random", Idents.random_permutation (Prng.create ~seed:(seed + n)) n);
  ]

let run ?(quick = false) ?(seed = 42) () =
  let table =
    Table.create ~headers:[ "n"; "workload"; "worst rounds"; "bound 3n/2+4"; "ok" ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun (wname, idents) ->
          let s =
            Harness.sweep Claims.a1 ~on_cycle:true ~graph ~idents
              (Harness.adversary_suite ~seed)
          in
          let bound = Option.get (Claims.a1.bound ~n ~on_cycle:true) in
          let row_ok =
            s.worst_rounds <= bound && s.all_proper && s.all_palette
            && s.all_returned
            && not s.livelocked
          in
          ok := !ok && row_ok;
          Table.add_row table
            [
              string_of_int n;
              wname;
              string_of_int s.worst_rounds;
              string_of_int bound;
              string_of_bool row_ok;
            ])
        (workloads ~seed n))
    (sizes ~quick);
  {
    Outcome.id = "E1";
    title = "Algorithm 1 terminates within ⌊3n/2⌋+4 activations";
    claim = "Theorem 3.1 (Termination): wait-free, at most ⌊3n/2⌋+4 activations";
    tables = [ ("worst-case rounds over the adversary suite", table) ];
    ok = !ok;
    notes =
      [
        "Measured worst cases sit far below the bound: the bound is driven \
         by the longest monotone identifier chain (Lemma 3.9).";
      ];
  }
