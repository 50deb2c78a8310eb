(* Quickstart: wait-free 5-colouring of an asynchronous ring.

   Ten crash-prone processes sit on a cycle; each can only read its two
   neighbours' registers.  We drive them with a random asynchronous
   schedule and watch every process decide a colour in {0..4} such that
   neighbours differ — in O(log* n) activations each (Algorithm 3 of
   Fraigniaud, Lambein-Monette & Rabie, PODC 2022).

   Run with: dune exec examples/quickstart.exe *)

module Adversary = Asyncolor_kernel.Adversary
module Prng = Asyncolor_util.Prng

let () =
  let n = 10 in
  (* Unique identifiers — here random values from a poly(n) universe. *)
  let idents =
    Asyncolor_workload.Idents.random_sparse (Prng.create ~seed:7) ~n ~universe:(n * n)
  in
  (* An adversarial schedule: each step activates a random subset. *)
  let adversary = Adversary.random_subsets (Prng.create ~seed:8) ~p:0.5 in
  let result = Asyncolor.Algorithm3.run_on_cycle ~idents adversary in

  Printf.printf "ring of %d processes, random asynchronous schedule\n\n" n;
  Array.iteri
    (fun p colour ->
      match colour with
      | Some c -> Printf.printf "  process %d (id %2d) -> colour %d\n" p idents.(p) c
      | None -> Printf.printf "  process %d (id %2d) -> crashed\n" p idents.(p))
    result.outputs;

  (* Validate the two guarantees of Theorem 4.4. *)
  let graph = Asyncolor_topology.Builders.cycle n in
  let verdict =
    Asyncolor.Claims.(check a3) ~graph ~on_cycle:true result.outputs
  in
  Printf.printf
    "\nproper colouring: %b | palette {0..4}: %b | max activations per process: %d\n"
    verdict.proper
    (verdict.off_palette = [])
    result.rounds;
  assert (Asyncolor.Checker.ok verdict)
