(** The pending store-buffer cut of one crash.

    Under buffered eviction a crash keeps, of each live thread's store
    buffer, an unknown prefix. The checker does not enumerate those
    prefixes: the crash drains every buffer in full into the crashed
    record, thread by thread in thread order and oldest entry first, with
    the sequence numbers that drain gives, and this value records what the
    cut still decides. Thread [t]'s entry [i] survives the crash iff
    [i < cut_t], and the search knows only that [cut_t] lies in an interval
    [\[lo_t, hi_t\]], initially [\[0, n_t\]]. An entry below [lo_t] is an
    ordinary store or flush, one at or above [hi_t] never happened, and one
    in between is pending.

    A flush raise — a [clflush] entry, or the [clflushopt]s an [sfence]
    entry publishes, including those already in the flush buffer at the
    crash — holds only if the cut passes its entry. Recovery reads split
    the intervals where they depend on pending entries
    ({!Exec_record.resolve}). *)

type t

val none : t
(** The tail of every record no buffered crash drained into. *)

val first : t -> int
(** The first sequence number the drain gave out; [max_int] for {!none}. *)

val copy : t -> t
(** An independent copy of the cut intervals; the rest is immutable and
    shared. *)

(** {1 Building, at the crash} *)

type builder

val builder : first:int -> builder
(** [first] is the sequence number the drain's first store, clflush or
    sfence takes. *)

val add_seq : builder -> thread:int -> index:int -> unit
(** The drain gave the next sequence number to entry [index] of thread
    [thread] (threads are numbered by position in thread order). *)

val add_flush : builder -> thread:int -> index:int -> Pmem.Addr.t -> bound:int -> unit
(** Entry [index] of [thread], if it survives, raises the last writeback of
    the byte's line to [bound]. *)

val finish : builder -> lengths:int array -> t
(** [lengths.(t)] is how many entries thread [t]'s buffer held. *)

(** {1 Entries} *)

val drained : t -> int -> bool
(** Whether the sequence number belongs to the drain. *)

val dropped : t -> int -> bool
(** Whether the drained entry with this sequence number certainly did not
    survive. [false] for a sequence number below {!first}. *)

val pending : t -> int -> bool
(** Whether the cut may or may not have kept the drained entry with this
    sequence number. *)

val line_pending : t -> int -> bool
(** Whether the line (an index) has a pending flush raise. *)

(** {1 Splitting} *)

val pending_points : t -> int list -> int list array
(** Per thread, the entry indices of the pending ones among the given
    drained sequence numbers. *)

val line_points : t -> int -> int list array
(** Per thread, the entry indices of the pending flush raises on the
    line. *)

val split :
  t -> thread:int -> points:int list -> choose:(int -> int) -> raise:(int -> int -> unit) -> unit
(** Decides which of the thread's pending entries [points] survive, with
    one [choose (m + 1)] decision for [m] distinct points: alternative [k]
    keeps the [k] oldest and drops the rest, and narrows the cut interval
    to the cut values that do exactly that. Alternative 0 drops them all.
    Each flush raise the narrowing makes certain is passed to
    [raise line bound]. Nothing happens when [points] is empty. *)
