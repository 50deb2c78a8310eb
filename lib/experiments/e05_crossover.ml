(** E5 — the §4 headline: on monotone identifier chains Algorithm 2 pays
    Θ(n) rounds while Algorithm 3's identifier reduction collapses the
    chain in O(log* n), so Algorithm 3 overtakes Algorithm 2 almost
    immediately and the gap grows without bound.  This is the paper's
    "speedup" figure: same workload, same schedules, two algorithms. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Builders = Asyncolor_topology.Builders
module Claims = Asyncolor.Claims

let sizes ~quick =
  if quick then [ 4; 8; 16; 32 ] else [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let run ?(quick = false) ?(seed = 46) () =
  let table =
    Table.create ~headers:[ "n"; "alg2 rounds"; "alg3 rounds"; "speedup" ]
  in
  let ok = ref true in
  let crossover = ref None in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      let idents = Idents.increasing n in
      let suite () = Harness.adversary_suite ~seed in
      let s2 = Harness.sweep Claims.a2 ~on_cycle:true ~graph ~idents (suite ()) in
      let s3 = Harness.sweep Claims.a3 ~on_cycle:true ~graph ~idents (suite ()) in
      ok :=
        !ok && s2.all_proper && s3.all_proper && (not s2.livelocked)
        && not s3.livelocked;
      if s3.worst_rounds < s2.worst_rounds && !crossover = None then
        crossover := Some n;
      Table.add_row table
        [
          string_of_int n;
          string_of_int s2.worst_rounds;
          string_of_int s3.worst_rounds;
          Printf.sprintf "%.1fx"
            (float_of_int s2.worst_rounds /. float_of_int (max 1 s3.worst_rounds));
        ])
    (sizes ~quick);
  (match !crossover with Some n when n <= 32 -> () | _ -> ok := false);
  {
    Outcome.id = "E5";
    title = "Crossover: Algorithm 3 vs Algorithm 2 on monotone chains";
    claim = "§4: identifier reduction turns Θ(n) into O(log* n)";
    tables = [ ("worst rounds, increasing identifiers", table) ];
    ok = !ok;
    notes =
      [
        (match !crossover with
        | Some n -> Printf.sprintf "Algorithm 3 strictly faster from n = %d on" n
        | None -> "no crossover observed (unexpected)");
      ];
  }
