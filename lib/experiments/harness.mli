(** Shared machinery for the experiments: a standard adversary suite and a
    per-protocol sweep runner that measures worst-case rounds over the
    suite and validates the output invariants on every run. *)

module Adversary = Asyncolor_kernel.Adversary

val map_cells :
  ?jobs:int ->
  ?policy:Asyncolor_util.Executor.policy ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** The run-core fan-out: run one function per independent sweep cell
    (an (adversary-suite × identifier-assignment × n) combination, an
    experiment, …) across [jobs] domains of an
    {!Asyncolor_util.Executor}, results merged back in input order.
    Cells must be self-contained — derive PRNG seeds from the cell
    description, share no mutable state — which makes the output
    byte-identical for every [jobs] value and policy.  [jobs] defaults
    to {!Asyncolor_util.Executor.default_jobs}; [jobs <= 1] (with no
    explicit policy) and [~policy:Serial] run each cell inline in the
    calling domain, with no domain spawned. *)

val adversary_suite : seed:int -> Adversary.t list
(** The standard stress suite: synchronous, sequential, round-robin,
    random singletons and random subsets (three densities).  Fresh
    (independently seeded) on every call.  Deliberately excludes the
    schedules that can sustain perfect simultaneity of a residual pair of
    processes forever ([staircase], [alternating_waves]): those trigger
    the phase-lock of finding F1 (see EXPERIMENTS.md) on Algorithms 2–3,
    which E13 studies on its own. *)

val symmetric_suite : Adversary.t list
(** The sustained-simultaneity schedules ([staircase],
    [alternating_waves], [synchronous]) — used by E13 to measure how often
    the published algorithm phase-locks.  [synchronous] is included for
    contrast: starting everyone together has never locked in our runs,
    because the pinning frozen register of an early-returned process never
    arises. *)

type run_summary = {
  worst_rounds : int;  (** max round complexity over the terminating runs *)
  all_proper : bool;  (** every run's outputs properly coloured the returned subgraph *)
  all_palette : bool;  (** every returned output lay in the palette *)
  all_returned : bool;  (** every (non-crashing) run terminated fully *)
  distinct_colors_max : int;  (** max distinct colours used in any run *)
  livelocked : bool;  (** some run hit the step bound without terminating *)
  livelocked_names : string list;  (** adversaries whose run livelocked *)
}

module Sweep (P : Asyncolor_kernel.Protocol.S) : sig
  module E : module type of Asyncolor_kernel.Engine.Make (P)

  val run :
    ?max_steps:int ->
    equal:(P.output -> P.output -> bool) ->
    in_palette:(P.output -> bool) ->
    graph:Asyncolor_topology.Graph.t ->
    idents:int array ->
    Adversary.t list ->
    run_summary
end

val sweep :
  ?max_steps:int ->
  'o Asyncolor.Claims.t ->
  on_cycle:bool ->
  graph:Asyncolor_topology.Graph.t ->
  idents:int array ->
  Adversary.t list ->
  run_summary
(** {!Sweep} of a claims entry's protocol against its claimed palette. *)
