(** Packed event cells: a fixed-width [int]-array encoding of {!Event.t}.

    The replay hot path emits one event per simulated instruction into a
    bounded trace ring that snapshots copy and restore. This module packs
    an event into {!cell_width} consecutive ints (tag, address, auxiliary
    field, values, thread id, interned label) so a ring of events is one
    flat [int array]: adding an event is a handful of array writes,
    snapshot copies are blits, and the boxed constructor is rebuilt only
    when a bug report prints the trace.

    Labels are interned in a per-worker append-only {!labels} table; a cell
    stores the label's id. Tables are never shared across workers, so ids
    are only meaningful next to the table that produced them. *)

type labels

val labels : unit -> labels
(** A fresh, empty intern table. *)

val intern : labels -> string -> int
(** The id of [s], assigned first-come append-only. *)

val label_name : labels -> int -> string
(** The string behind an id produced by the same table. *)

val cell_width : int
(** Ints per encoded event. *)

val encode : labels -> int array -> int -> Event.t -> unit
(** [encode labels cells off ev] packs [ev] into
    [cells.(off) .. cells.(off + cell_width - 1)]. *)

val decode : labels -> int array -> int -> Event.t
(** Inverse of {!encode} over the same table: rebuilds the boxed event. *)
