(** Result of one reproduction experiment (see the index in DESIGN.md). *)

type t = {
  id : string;  (** e.g. "E4" *)
  title : string;
  claim : string;  (** the paper claim being reproduced *)
  tables : (string * Asyncolor_workload.Table.t) list;  (** captioned tables *)
  ok : bool;  (** every assertion of the experiment held *)
  notes : string list;  (** findings, caveats, measured constants *)
}

val print : t -> unit
(** Render the outcome to stdout: header, claim, tables, notes, verdict. *)

val write_csvs : dir:string -> t -> string list
(** Write each table of the outcome to [dir/<id>_<caption-slug>.csv];
    returns the paths written.  [dir] must exist. *)

val all_ok : t list -> bool
