(** The stack of executions making up one failure scenario.

    The paper records the sequence of executions that have run against the
    persistent store as a stack [exec]; [top] is the currently-running
    execution and [prev e] the one that failed immediately before [e] began.
    The bottom of the stack is always the {!Exec_record.initial} image. *)

type t

val create : unit -> t
(** A stack holding only the initial image, with one live execution pushed on
    top of it (the first pre-failure execution). *)

val top : t -> Exec_record.t

val prev : t -> Exec_record.t -> Exec_record.t
(** [prev s e] is the execution immediately below [e], found in constant
    time by [e]'s id. Raises [Invalid_argument] on the initial record or an
    id above the top of [s]. *)

val push_fresh : t -> Exec_record.t
(** Simulates a power failure: pushes and returns a new empty execution on
    top of the stack. Volatile state is the caller's to reset. *)

val restore : t -> Exec_record.t list -> unit
(** Replaces the whole stack with the given records (top first). The caller
    owns the records — the snapshot layer passes freshly materialised
    copies. Raises [Invalid_argument] if the list is empty, its bottom is
    not the {!Exec_record.initial} image, or the ids do not run from 0 at
    the bottom up by one per record. *)

val depth : t -> int
(** Number of non-initial executions. 1 after {!create}. *)

val to_list : t -> Exec_record.t list
(** Top-first, including the initial record last. *)
