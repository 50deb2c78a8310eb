(** E3 — Theorem 3.11: Algorithm 2 is wait-free with O(n) round complexity
    (non-minima within ⌊3n/2⌋+4, everyone within 3n+8) and palette
    [{0,…,4}].  The monotone (increasing) identifier workload realises the
    Θ(n) behaviour; the zigzag workload shows the O(1) best case.  A least
    squares fit of worst rounds vs n on the monotone workload confirms the
    linear shape. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Stats = Asyncolor_workload.Stats
module Builders = Asyncolor_topology.Builders
module Claims = Asyncolor.Claims

let sizes ~quick =
  if quick then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let run ?(quick = false) ?(seed = 44) () =
  let table =
    Table.create
      ~headers:[ "n"; "workload"; "worst rounds"; "bound 3n+8"; "monotone run" ]
  in
  let ok = ref true in
  let mono_points = ref [] in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun (wname, idents) ->
          let s =
            Harness.sweep Claims.a2 ~on_cycle:true ~graph ~idents
              (Harness.adversary_suite ~seed)
          in
          let bound = Option.get (Claims.a2.bound ~n ~on_cycle:true) in
          ok :=
            !ok && s.worst_rounds <= bound && s.all_proper && s.all_palette
            && s.all_returned
            && not s.livelocked;
          if wname = "increasing" then
            mono_points := (float_of_int n, float_of_int s.worst_rounds) :: !mono_points;
          Table.add_row table
            [
              string_of_int n;
              wname;
              string_of_int s.worst_rounds;
              string_of_int bound;
              string_of_int (Idents.longest_monotone_run idents);
            ])
        [ ("increasing", Idents.increasing n); ("zigzag", Idents.zigzag n) ])
    (sizes ~quick);
  let slope, intercept = Stats.linear_fit !mono_points in
  ok := !ok && slope > 0.5 && slope < 3.0;
  {
    Outcome.id = "E3";
    title = "Algorithm 2 runs in O(n) rounds, palette {0..4}";
    claim = "Theorem 3.11: wait-free 5-colouring in O(n) activations";
    tables = [ ("rounds vs n (worst over adversary suite)", table) ];
    ok = !ok;
    notes =
      [
        Printf.sprintf
          "linear fit on the monotone workload: rounds ≈ %.3f·n %+.1f (the \
           paper predicts Θ(n) with constant ≈ 1 for this workload)"
          slope intercept;
        "zigzag identifiers (every node near an extremum) give O(1) rounds, \
         matching Lemma 3.9.";
      ];
  }
