(* perfbench: the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--size full|smoke] [--expect-wrong]

   Runs one workload and prints record lines — run context, each metric
   with its percentiles and sample count, fail_rate, the simulated-
   statistics digest — then, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end list of [Bench.end_to_end]; with --trace 1
   the per-layer list of [Bench.per_layer], from a traced run (obs sink on
   plus a layer probe; see README.md).  --size smoke runs reduced
   instances and --expect-wrong perturbs the known answers; both exist
   for smoke.py. *)

module Idents = Asyncolor_workload.Idents

module A1 = Explore_wl.Make (Asyncolor.Algorithm1.P)
module A3 = Explore_wl.Make (Asyncolor.Algorithm3.P)

let workloads = [ "explore-c6"; "explore-sym-c8"; "churn-c62"; "fuzz-mix" ]

(* The parallel legs never use more domains than the machine has.  They
   run in the traced explore-sym-c8 run only: its untraced run is serial,
   because at two domains on a shared two-core machine its wall time
   ranged from 8.6 s to 27 s over ten runs (a domain that loses its core
   stalls the other at every stop-the-world minor collection). *)
let parallel_jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Known answers.  explore-c6 matches the E17 table (Algorithm 1, C6
   monotone identifiers: 206 870 configurations, worst 6) and the smoke
   instances match the unoptimised [`Reference] explorer (orbit-expanded
   counts for the symmetric one). *)
let c6 (size : Bench.size) =
  match size with
  | Full ->
      {
        Explore_wl.n = 6;
        idents = [| 1; 2; 3; 4; 5; 6 |];
        mode = `All_subsets;
        symmetry = false;
        spill_words = None;
        traced_jobs = 1;
        iteration_s = 13.;
        expect =
          { configs = 206_870; transitions = 2_374_221; terminal = 607; worst = 6; orbit = None };
      }
  | Smoke ->
      {
        n = 4;
        idents = [| 1; 2; 3; 4 |];
        mode = `All_subsets;
        symmetry = false;
        spill_words = None;
        traced_jobs = 1;
        iteration_s = 0.012;
        expect = { configs = 1_542; transitions = 5_905; terminal = 59; worst = 4; orbit = None };
      }

let sym_c8 (size : Bench.size) =
  let mb = 1_048_576 / (Sys.word_size / 8) in
  match size with
  | Full ->
      {
        Explore_wl.n = 8;
        idents = Idents.uniform 8;
        mode = `Singletons;
        symmetry = true;
        spill_words = Some mb;
        traced_jobs = parallel_jobs;
        iteration_s = 12.5;
        expect =
          {
            configs = 212_216;
            transitions = 616_579;
            terminal = 905;
            worst = 8;
            orbit = Some (16, 3_385_719, 9_840_512, 13_658);
          };
      }
  | Smoke ->
      {
        n = 6;
        idents = Idents.uniform 6;
        mode = `Singletons;
        symmetry = true;
        spill_words = Some (mb / 64);
        traced_jobs = parallel_jobs;
        iteration_s = 0.075;
        expect =
          {
            configs = 3_878;
            transitions = 8_297;
            terminal = 90;
            worst = 6;
            orbit = Some (12, 45_574, 97_716, 920);
          };
      }

let churn (size : Bench.size) =
  match size with
  | Full ->
      {
        Churn_wl.n = 62;
        horizon = 250_000;
        scaling_n = 20;
        scaling_horizon = 50_000;
        iteration_s = 8.;
      }
  | Smoke -> { n = 20; horizon = 5_000; scaling_n = 8; scaling_horizon = 2_000; iteration_s = 0.2 }

let fuzz (size : Bench.size) =
  match size with
  | Full -> { Fuzz_wl.max_n = 10; clean_execs = 100_000; mutant_execs = 200; iteration_s = 7. }
  | Smoke -> { max_n = 10; clean_execs = 2_000; mutant_execs = 20; iteration_s = 0.2 }

(* The workload's jobs, for the context line, and its run.  Untraced runs
   are serial; a traced explorer run uses its instance's [traced_jobs]. *)
let workload (opts : Bench.opts) =
  let explore run (inst : Explore_wl.instance) =
    ((if opts.traced then inst.traced_jobs else 1), fun () -> run opts inst)
  in
  match opts.workload with
  | "explore-c6" -> explore A1.run (c6 opts.size)
  | "explore-sym-c8" -> explore A3.run (sym_c8 opts.size)
  | "churn-c62" -> (1, fun () -> Churn_wl.run opts (churn opts.size))
  | "fuzz-mix" -> (1, fun () -> Fuzz_wl.run opts (fuzz opts.size))
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- output ------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~catalogue (r : Bench.result) =
  let metric (name, unit) =
    let v = Option.value ~default:0. (List.assoc_opt name r.metrics) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size \
   full|smoke] [--expect-wrong]\nworkloads: " ^ String.concat ", " workloads

let parse argv =
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let int_arg name v =
    match int_of_string_opt v with Some i -> i | None -> die (name ^ ": not an integer: " ^ v)
  in
  let rec go (o : Bench.opts) = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if not (List.mem w workloads) then die ("unknown workload " ^ w);
        go { o with workload = w } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } rest
        | _ -> die ("--seconds: want a positive number: " ^ v))
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with traced = v = "1" } rest
    | "--size" :: "full" :: rest -> go { o with size = Full } rest
    | "--size" :: "smoke" :: rest -> go { o with size = Smoke } rest
    | "--expect-wrong" :: rest -> go { o with expect_wrong = true } rest
    | arg :: _ -> die ("bad argument " ^ arg)
  in
  let o =
    go
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        traced = false;
        size = Full;
        expect_wrong = false;
        out_dir = Filename.concat "perfbench" "_out";
      }
      (List.tl (Array.to_list argv))
  in
  if o.workload = "" then die "--workload is required";
  o

let () =
  let opts = parse Sys.argv in
  if not (Sys.file_exists opts.out_dir) then Unix.mkdir opts.out_dir 0o755;
  let jobs, run = workload opts in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%g traced=%b size=%s nproc=%d ocaml=%s jobs=%d\n%!"
    opts.workload opts.seed opts.seconds opts.traced
    (Bench.size_name opts.size)
    (Domain.recommended_domain_count ()) Sys.ocaml_version jobs;
  let r = run () in
  List.iter print_endline r.lines;
  let catalogue = if opts.traced then Bench.per_layer else Bench.end_to_end in
  print_endline (result_line ~catalogue r)
