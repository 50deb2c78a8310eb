(** The paper's checkable claims, one entry per algorithm.

    Besides properness, each theorem claims a {e palette} (every returned
    colour lies in it) and a {e wait-freedom activation bound} (no process
    takes more activations).  This table is the one place they are
    written down: the fuzzer, the churn engine, the CLI and the
    experiments all read them from here.

    [on_cycle] is always the caller's to supply, never inferred from the
    graph: the bounds are claimed for the paper's cycle, and a caller
    running on [K_3] (which is [C_3]) decides itself whether it checks
    the cycle theorem. *)

type 'o t = {
  name : string;  (** the CLI spelling: ["1"], ["2"], ["2s"], ["3"], ["4"] *)
  protocol : (module Asyncolor_kernel.Protocol.S with type output = 'o);
  equal : 'o -> 'o -> bool;
  show : 'o -> string;  (** [string_of_int], or ["(a,b)"] for pairs *)
  palette : graph:Asyncolor_topology.Graph.t -> on_cycle:bool -> ('o -> bool) option;
      (** palette membership; [None] where no palette is claimed *)
  bound : n:int -> on_cycle:bool -> int option;
      (** per-process activation bound; [None] where none is claimed *)
}

val a1 : Color.pair t
(** Algorithm 1, Theorem 3.1: on [C_n], palette [{ (a,b) | a+b ≤ 2 }] and
    at most [⌊3n/2⌋ + 4] activations.  Off the cycle, Appendix A's palette
    [a+b ≤ Δ] and no bound. *)

val a2 : int t
(** Algorithm 2, Theorem 3.11: on [C_n], at most [3n + 8] activations.
    Palette [{0,…,2Δ}] on every graph (§5), i.e. [{0,…,4}] on the cycle;
    no bound off it. *)

val a2s : int t
(** Algorithm 2s, E17's candidate repair of F1 (not in the paper):
    palette [{0,…,6}] on the cycle, and no bound anywhere, as it is not
    wait-free (the E13/E17 lassos). *)

val a3 : int t
(** Algorithm 3, Theorem 4.4: on [C_n], palette [{0,…,4}] and O(log* n)
    activations ([64 log* n + 64], the test suite's constants).  Off the
    cycle, the derived palette [{0,…,2Δ}] of its lines 6–10, which are
    Algorithm 2's colouring component ([a ≤ b = mex C ≤ 2Δ]); no bound. *)

val a4 : Color.pair t
(** Algorithm 4, Appendix A: palette [{ (a,b) | a+b ≤ Δ }] on every
    graph.  On the cycle its code is Algorithm 1's, so Theorem 3.1's
    bound applies; no bound off it. *)

type entry = Entry : 'o t -> entry

val all : entry list
(** [a1], [a2], [a2s], [a3], [a4]. *)

val find : string -> entry option
(** The entry of that {!field-name}. *)

val in_palette : 'o t -> graph:Asyncolor_topology.Graph.t -> on_cycle:bool -> 'o -> bool
(** The claimed palette as a predicate, admitting everything where no
    palette is claimed. *)

val check :
  'o t ->
  graph:Asyncolor_topology.Graph.t ->
  on_cycle:bool ->
  'o option array ->
  'o Checker.verdict
(** [check c ~graph ~on_cycle] resolves {!in_palette} once and returns
    {!Checker.check} against it. *)

val check_outputs :
  'o t ->
  graph:Asyncolor_topology.Graph.t ->
  on_cycle:bool ->
  'o option array ->
  string option
(** {!check} as the explorer's [check_outputs] hook: [None] when the
    verdict is {!Checker.ok}, the printed verdict otherwise. *)
