(** E11 — the synchronous yardstick: Cole–Vishkin 3-colours the oriented
    ring in Θ(log* n) failure-free synchronous rounds (Linial's bound
    makes this optimal, Property 2.2).  Algorithm 3 matches the shape in
    the much harsher asynchronous crash-prone model, paying two extra
    colours.  Rounds are not directly comparable (different models); the
    point is the common log* growth. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Logstar = Asyncolor_cv.Logstar
module Cv = Asyncolor_local.Cole_vishkin_ring
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module A3 = Asyncolor.Algorithm3

let sizes ~quick =
  if quick then [ 8; 64; 1_024 ] else [ 8; 64; 1_024; 16_384; 262_144; 1_048_576 ]

let run ?(quick = false) ?(seed = 52) () =
  let table =
    Table.create
      ~headers:
        [ "n"; "log* n"; "CV rounds (sync, 3 colours)"; "Alg3 rounds (async, 5 colours)" ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      let idents = Idents.random_sparse (Prng.create ~seed:(seed + n)) ~n ~universe:(n * 4) in
      let cv = Cv.three_color idents in
      ok :=
        !ok
        && Cv.is_proper_ring cv.colors
        && Array.for_all (fun c -> c <= 2) cv.colors
        && cv.cv_iterations <= Cv.rounds_upper_bound n;
      let r3 = A3.run_on_cycle ~idents Adversary.synchronous in
      let v =
        Asyncolor.Claims.(check a3) ~graph:(Builders.cycle n) ~on_cycle:true
          r3.outputs
      in
      ok := !ok && r3.all_returned && Asyncolor.Checker.ok v;
      Table.add_row table
        [
          string_of_int n;
          string_of_int (Logstar.log_star_int n);
          string_of_int cv.rounds;
          string_of_int r3.rounds;
        ])
    (sizes ~quick);
  {
    Outcome.id = "E11";
    title = "LOCAL-model Cole–Vishkin baseline vs Algorithm 3";
    claim =
      "§1.1/§4: both are Θ(log* n); asynchrony + crashes cost two extra \
       colours (3 → 5), not asymptotic time";
    tables = [ ("rounds vs n", table) ];
    ok = !ok;
    notes =
      [
        "Our CV digests one bit per round (the classic two-bit variant \
         would halve its column); both columns are flat in n, as claimed.";
      ];
  }
