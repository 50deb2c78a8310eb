(** Exporters for a sink's contents, and a validator for the trace files.

    Two formats leave the process:

    - {b Chrome [trace_event] JSON} ({!chrome_string}/{!write_chrome}):
      one complete ("X") event per recorded span, [thread_name] metadata
      ("M") for named lanes, and one final counter ("C") sample per
      counter/gauge — loadable in [chrome://tracing] and Perfetto.
      Timestamps are microseconds relative to the sink's clock.
    - {b Flat metrics table} ({!metrics_table}): one [name value] line
      per counter/gauge, sorted by name — the form printed by the CLI's
      [--metrics].

    Both renderings are pure functions of the sink's contents: under a
    {!Clock.virtual_} clock a fixed program exports byte-identical
    artifacts, which the golden tests pin.

    {!validate} re-reads a trace file through a small strict JSON parser
    and structural checks, so a truncated or corrupt file is rejected
    with a clear one-line reason instead of silently confusing a viewer
    — the moral equivalent of {!Asyncolor_resilience.Checkpoint}'s digest
    check for an artifact we do not control the reader of. *)

val chrome_string : Obs.t -> string
(** Render the sink as Chrome [trace_event] JSON.  Reads the sink's
    clock once, to timestamp the counter samples. *)

val write_chrome : Obs.t -> path:string -> unit
(** {!chrome_string} to a file (plain write; traces are not resumable
    state, a torn file is rejected by {!validate}). *)

val metrics_table : Obs.t -> string
(** The flat metrics table: ["name value\n"] per metric, sorted by
    name.  Empty string when no metric was touched. *)

val validate_string : string -> (int, string) result
(** Structurally validate Chrome-trace JSON: well-formed JSON, a
    top-level object with a [traceEvents] array, and per event the keys
    Perfetto's importer relies on ([ph]/[name]/[pid]/[tid], plus
    [ts]/[dur >= 0] on complete events).  [Ok n] counts the events. *)

val validate : string -> (int, string) result
(** {!validate_string} on a file's contents; missing or unreadable files
    are an [Error], not an exception. *)
