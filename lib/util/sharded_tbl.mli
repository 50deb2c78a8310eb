(** The explorer's adjacency log, {!Level_log}.  The explorer's intern
    table is [Engine.Make.Key_tbl]; this module holds no table despite
    its name, which stays because callers outside the library refer to
    [Asyncolor_util.Sharded_tbl.Level_log]. *)

(** An append-only log of machine words whose closed prefix can leave the
    heap.

    The explorer's dominant allocation is not the intern table (which must
    stay resident: every new configuration is looked up against it) but
    the append-only adjacency stream of already-merged BFS levels, which
    is never read again until the post-BFS analyses.  A [Level_log] keeps
    an open {e tail} level in a resident vector and, at caller-chosen safe
    boundaries ({!seal}), closes the tail once it crosses the spill
    threshold: the log forgets the payload and remembers only its word
    count, handing the caller the snapshot to persist (the explorer writes
    it through {!Asyncolor_resilience.Spill} — possibly on a background
    executor task while the pipeline keeps expanding).  Reassembly
    ({!to_array}/{!to_bigarray}) streams the closed levels back through a
    caller-supplied [fetch], so this module never touches the filesystem
    itself and stays deterministic and trivially testable. *)
module Level_log : sig
  type t

  val create : ?threshold_words:int -> unit -> t
  (** A fresh log.  Without [threshold_words], {!seal} never closes a
      level and the log degenerates to a plain resident vector.
      @raise Invalid_argument on a negative threshold. *)

  val of_array : ?threshold_words:int -> int array -> t
  (** A log whose tail starts as a copy of the array — how a resumed
      explorer rebuilds its adjacency stream from a checkpoint. *)

  val push : t -> int -> unit
  (** Append one word to the resident tail. *)

  val length : t -> int
  (** Total words, closed levels included — the stable absolute offset of
      the next {!push}, which is what the explorer stores in its CSR
      row-offset array. *)

  val resident_words : t -> int
  val spilled_words : t -> int
  val spilled_levels : t -> int

  val seal : t -> (int * int array) option
  (** Close the tail as level [spilled_levels t] if it has reached the
      threshold, returning [(level, words)] for the caller to persist —
      the log itself drops the payload.  [None] when the tail is below
      threshold, empty, or no threshold was given.  Call only at points
      where every word pushed so far is final. *)

  val to_array : fetch:(level:int -> int array) -> t -> int array
  (** Reassemble the whole stream; [fetch] supplies each closed level's
      words (it must return exactly the sealed snapshot —
      @raise Invalid_argument on a length mismatch, the cheap second line
      of defence behind the spill file's checksum). *)

  val to_bigarray :
    fetch:(level:int -> int array) ->
    t ->
    (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** Like {!to_array} but into off-heap storage, so the post-BFS
      analyses of a spilled run never pull the full stream back into the
      OCaml heap (the GC neither scans nor accounts it). *)
end
