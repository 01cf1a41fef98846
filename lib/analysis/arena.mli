(** Packed event cells: a fixed-width [int]-array encoding of {!Event.t}.

    The replay hot path emits one event per simulated instruction. Boxing
    each as an {!Event.t} constructor allocates a record per step that is
    usually thrown away unrendered — the trace ring overwrites it, no pass
    ever sees it. This module packs an event into {!cell_width} consecutive
    ints (tag, address, auxiliary field, values, thread id, interned label)
    so a ring of events is one flat [int array]: emission is a handful of
    array writes, snapshot copies are blits, and the boxed constructor is
    rebuilt lazily only when a bug report or a pass needs structure.

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

(** {1 Unboxed encoders}

    One per event shape, so hot call sites pack fields directly without
    constructing the {!Event.t} value first. *)

val encode_store :
  labels -> int array -> int -> addr:int -> width:int -> value:int -> tid:int ->
  label:string -> unit

val encode_load :
  labels -> int array -> int -> addr:int -> width:int -> value:int -> tid:int ->
  label:string -> unit

val encode_rmw :
  labels -> int array -> int -> addr:int -> width:int -> old_value:int ->
  new_value:int option -> tid:int -> label:string -> unit

val encode_flush :
  labels -> int array -> int -> line_addr:int -> kind:Event.flush_kind -> tid:int ->
  label:string -> unit

val encode_fence :
  labels -> int array -> int -> kind:Event.fence_kind -> tid:int -> label:string -> unit

val encode_thread_start :
  labels -> int array -> int -> tid:int -> parent:int -> label:string -> unit

val encode_thread_join :
  labels -> int array -> int -> tid:int -> parent:int -> label:string -> unit

val encode_failure_point : labels -> int array -> int -> label:string -> tid:int -> unit
val encode_crash : labels -> int array -> int -> label:string option -> tid:int -> unit
val encode_end_execution : labels -> int array -> int -> unit
