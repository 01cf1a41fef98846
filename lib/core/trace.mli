(** A bounded ring of recent execution events, attached to bug reports so a
    developer can see what led to the crash (paper §4, Debugging support).

    Events live packed in a flat int ring (see {!Analysis.Arena}): adding
    one writes a handful of ints, snapshot copy/restore are array blits, and
    boxed {!Analysis.Event.t} values are rebuilt from the ring only when a
    report is actually printed. *)

type t

val create : ?labels:Analysis.Arena.labels -> depth:int -> unit -> t
(** [depth <= 0] disables the ring: adds are no-ops and {!events} is empty.
    [labels] is the intern table to encode against — pass the owning
    worker's table so rings from successive replays stay mutually
    restorable (the snapshot cache holds rings across replays); omitting it
    makes a private table. *)

val enabled : t -> bool

val depth : t -> int
(** The [depth] this ring was created with (0 when disabled). *)

val labels : t -> Analysis.Arena.labels
(** The ring's label intern table. Shared by every {!copy} of this ring;
    per-worker, never shared across domains. *)

val add : t -> Analysis.Event.t -> unit
(** Packs an event into the next cell, overwriting the oldest when full. *)

val clear : t -> unit

val copy : t -> t
(** An independent ring with identical contents. The label table is shared
    (it is append-only and per-worker), so {!restore} between a ring and its
    copies stays valid. *)

val restore : t -> from:t -> unit
(** Overwrites [t]'s contents with [from]'s. Both rings must have the same
    depth and share one label table (i.e. be copies of one {!create}). *)

val events : t -> Analysis.Event.t list
(** Oldest first, at most [depth] entries. Decodes — not for hot paths. *)

val dropped : t -> int
(** How many older events were overwritten because the ring was full. *)
