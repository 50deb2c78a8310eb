(** E8 — fault tolerance: with crash faults injected at random times (the
    defining feature of the model), every surviving process still
    terminates within the round bound and the survivors' outputs properly
    colour the induced subgraph.  Crash rates up to 80% of the ring. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module Adversary = Asyncolor_kernel.Adversary
module Checker = Asyncolor.Checker
module Claims = Asyncolor.Claims
module E3 = Asyncolor.Algorithm3.E

let sizes ~quick = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024 ]
let rates = [ 0.2; 0.5; 0.8 ]

let run ?(quick = false) ?(seed = 49) () =
  let table =
    Table.create
      ~headers:
        [ "n"; "crash rate"; "runs"; "crashed total"; "survivor worst rounds"; "proper" ]
  in
  let ok = ref true in
  let repeats = if quick then 3 else 10 in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      let check = Claims.check Claims.a3 ~graph ~on_cycle:true in
      List.iter
        (fun rate ->
          let crashed_total = ref 0 in
          let worst = ref 0 in
          let proper = ref true in
          for rep = 1 to repeats do
            let prng = Prng.create ~seed:(seed + (1000 * rep) + n) in
            let idents = Idents.random_permutation (Prng.split prng) n in
            let adv =
              Adversary.random_crashes (Prng.split prng) ~n ~rate
                ~horizon:(4 + Asyncolor_cv.Logstar.log_star_int n)
                (Adversary.random_subsets (Prng.split prng) ~p:0.7)
            in
            let engine = E3.create graph ~idents in
            let r = E3.run ~max_steps:200_000 engine adv in
            let v = check r.outputs in
            let crashed =
              Array.length (Array.of_seq (Seq.filter Option.is_none (Array.to_seq r.outputs)))
            in
            crashed_total := !crashed_total + crashed;
            if r.rounds > !worst then worst := r.rounds;
            proper := !proper && Checker.ok v;
            (* the schedule must have ended because of crashes, not a
               livelock within the step budget *)
            ok := !ok && (r.all_returned || r.schedule_ended)
          done;
          ok := !ok && !proper;
          Table.add_row table
            [
              string_of_int n;
              Printf.sprintf "%.0f%%" (rate *. 100.0);
              string_of_int repeats;
              string_of_int !crashed_total;
              string_of_int !worst;
              string_of_bool !proper;
            ])
        rates)
    (sizes ~quick);
  {
    Outcome.id = "E8";
    title = "Survivors of crash faults are properly coloured (Algorithm 3)";
    claim =
      "§2: crashes only remove processes from the schedule; correct \
       processes still terminate and properly colour the induced subgraph";
    tables = [ ("random crash injection", table) ];
    ok = !ok;
    notes =
      [
        "A crashed process may freeze its register forever; neighbours \
         colour against the frozen value, which the checker accounts for \
         by only constraining edges between two returned processes.";
      ];
  }
