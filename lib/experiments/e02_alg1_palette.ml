(** E2 — Theorem 3.1 (palette and correctness): Algorithm 1 outputs lie in
    [{ (a,b) | a + b ≤ 2 }] (6 colours) and properly colour the returned
    subgraph — verified {e exhaustively over all schedules} on [C_3] and
    [C_4] (Algorithm 1 is wait-free even under simultaneous activations),
    and over the adversary suite for larger [n]. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module Claims = Asyncolor.Claims
module Explorer = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm1.P)

let exhaustive_cases =
  [ (3, [| 5; 1; 9 |]); (3, [| 0; 1; 2 |]); (3, [| 2; 0; 1 |]); (4, [| 5; 1; 9; 4 |]);
    (4, [| 0; 1; 2; 3 |]) ]

let run ?(quick = false) ?(seed = 43) () =
  let ok = ref true in
  let ex_table =
    Table.create
      ~headers:[ "n"; "idents"; "configs"; "wait-free"; "violations"; "worst rounds" ]
  in
  List.iter
    (fun (n, idents) ->
      let graph = Builders.cycle n in
      let check_outputs = Claims.check_outputs Claims.a1 ~graph ~on_cycle:true in
      let r = Explorer.explore graph ~idents ~check_outputs in
      ok := !ok && r.complete && r.wait_free && r.safety = [];
      Table.add_row ex_table
        [
          string_of_int n;
          String.concat "," (Array.to_list (Array.map string_of_int idents));
          string_of_int r.configs;
          string_of_bool r.wait_free;
          string_of_int (List.length r.safety);
          string_of_int r.worst_case_activations;
        ])
    exhaustive_cases;
  let sweep_table =
    Table.create ~headers:[ "n"; "distinct colours"; "palette<=6"; "proper" ]
  in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      let idents = Idents.random_permutation (Prng.create ~seed:(seed + n)) n in
      let s =
        Harness.sweep Claims.a1 ~on_cycle:true ~graph ~idents
          (Harness.adversary_suite ~seed)
      in
      ok := !ok && s.all_proper && s.all_palette && s.distinct_colors_max <= 6;
      Table.add_row sweep_table
        [
          string_of_int n;
          string_of_int s.distinct_colors_max;
          string_of_bool s.all_palette;
          string_of_bool s.all_proper;
        ])
    (if quick then [ 8; 32 ] else [ 8; 32; 128; 512 ]);
  {
    Outcome.id = "E2";
    title = "Algorithm 1 palette {(a,b) : a+b<=2} and proper colouring";
    claim = "Theorem 3.1 (6-colour palette, Correctness)";
    tables =
      [
        ("exhaustive model checking (all schedules incl. simultaneous)", ex_table);
        ("adversary-suite sweeps", sweep_table);
      ];
    ok = !ok;
    notes =
      [
        "Algorithm 1 is exhaustively wait-free in the full model — unlike \
         Algorithms 2-3, its a/b components never phase-lock (the local \
         maximum pins a=0 and the local minimum pins b=0).";
      ];
  }
