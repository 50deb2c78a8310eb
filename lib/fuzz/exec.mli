(** Run one scenario and judge it against the invariant suite.

    The detectors, in report order:

    + {b proper} — outputs properly colour the subgraph induced by the
      returned processes (the "Correctness" clause of Theorems 3.1, 3.11,
      4.4);
    + {b palette} — returned colours lie in the algorithm's palette
      (6 / 5 / 7 / 5 colours on the cycle; the [Δ]-dependent palettes on
      general graphs);
    + {b activation-bound} — no process exceeds the wait-freedom bound on
      its own activations (Theorems 3.1 / 3.11 / 4.4; cycle topologies
      only, and never for Algorithm 2s, which is not wait-free).  Skipped
      for churn-bearing scenarios: recovery leaves the ring outside the
      static model, where the bounds are not claimed — and demonstrably
      fail under lockstep scheduling;
    + {b mask-agreement} — differential check: replaying the very same
      schedule through the packed [activate_mask] entry point must agree
      with the list [activate] path on statuses, outputs and activation
      counters (the run-core equivalence the explorer relies on).  Churn
      events are applied identically on both sides;
    + {b churn-reinit} — a recovered process is observably fresh: asleep,
      register back to [⊥], activation counter restarted (checked at
      every recovery event);
    + {b churn-fresh-ident} — installed identifiers stay pairwise
      distinct after every recovery.

    Palettes and bounds are read from the algorithm's
    {!Asyncolor.Claims} entry, once per run, with [on_cycle] set exactly
    for [Cycle] topologies ([Complete 3] is judged off the cycle).
    {!Mutation} supplies deliberately broken protocols, each judged by
    the claims of the algorithm it breaks — except the ["churn-"]
    mutants, whose planted bug corrupts how this module applies recovery
    events while the protocol itself stays clean. *)

type violation = { invariant : string; message : string }

type event = {
  time : int;
  activated : int list;
  returned : (int * string) list;  (** outputs rendered, protocol-erased *)
  resets : (int * int) list;  (** recoveries: (process, fresh identifier) *)
}

type outcome = {
  violations : violation list;  (** empty = run passed every detector *)
  events : event list;  (** full engine event stream, for trace round-trips *)
  outputs : string option array;
  activations : int array;
  steps : int;
  returned : int;
}

val invariant_names : string list

val run : Scenario.t -> outcome
(** Execute the scenario (its mutation applied, if any) and check every
    applicable invariant.  Deterministic: equal scenarios yield equal
    outcomes.  @raise Invalid_argument on a malformed scenario
    ({!Scenario.validate}) or a mutation that does not apply to its
    algorithm. *)

val fails_invariant : Scenario.t -> invariant:string -> bool
(** Does running [sc] violate the named invariant?  The shrinker's
    oracle. *)
