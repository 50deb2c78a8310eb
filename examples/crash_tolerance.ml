(* Crash tolerance: the model's raison d'être.

   A third of the ring crashes at random times — some before ever waking,
   some mid-protocol with a half-updated register frozen in place.  The
   survivors still terminate quickly and properly colour the subgraph they
   induce.  We print who crashed, who decided what, and validate.

   Run with: dune exec examples/crash_tolerance.exe *)

module Adversary = Asyncolor_kernel.Adversary
module Prng = Asyncolor_util.Prng
module E = Asyncolor.Algorithm3.E

let () =
  let n = 32 in
  let prng = Prng.create ~seed:2024 in
  let idents = Asyncolor_workload.Idents.random_permutation (Prng.split prng) n in
  let graph = Asyncolor_topology.Builders.cycle n in

  (* Crash each process with probability 1/3 at a time uniform in [1,12],
     on top of a random base schedule. *)
  let adversary =
    Adversary.random_crashes (Prng.split prng) ~n ~rate:0.34 ~horizon:12
      (Adversary.random_subsets (Prng.split prng) ~p:0.6)
  in

  let engine = E.create ~record_trace:true graph ~idents in
  let result = E.run engine adversary in

  let crashed = ref 0 in
  let line = Buffer.create 128 in
  Array.iteri
    (fun p colour ->
      match colour with
      | Some c -> Buffer.add_string line (string_of_int c)
      | None ->
          incr crashed;
          Buffer.add_char line (if E.activations engine p = 0 then '.' else 'x'))
    result.outputs;
  Printf.printf "ring of %d, %d crashed ('.': before waking, 'x': mid-protocol)\n" n !crashed;
  Printf.printf "colours around the ring: %s\n" (Buffer.contents line);

  let verdict =
    Asyncolor.Claims.(check a3) ~graph ~on_cycle:true result.outputs
  in
  Printf.printf "survivors: %d | properly coloured: %b | worst activations: %d\n"
    verdict.returned verdict.proper result.rounds;
  assert (Asyncolor.Checker.ok verdict);

  (* the execution, process by process: '#' = took a round, 'R' = returned,
     '_' = already done, '·' = idle (a column going silent = a crash) *)
  Format.printf "\nspace-time diagram (time ↓, processes →):@.%a@." E.pp_spacetime engine;

  (* A process whose *both* neighbours crashed before waking decides after
     one activation: it sees ⊥ ⊥, nothing conflicts. *)
  let solo_adv = Adversary.crash ~at:1 ~procs:[ 1; 3 ] Adversary.synchronous in
  let solo_engine = E.create (Asyncolor_topology.Builders.cycle 4) ~idents:[| 8; 3; 6; 2 |] in
  let solo = E.run solo_engine solo_adv in
  Printf.printf "\nisolated process demo (both neighbours crashed): p2 decided %s after %d activation(s)\n"
    (match solo.outputs.(2) with Some c -> string_of_int c | None -> "-")
    solo.activations_per_process.(2)
