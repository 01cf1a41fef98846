(** The persistent-memory-relevant record of one execution.

    A failure scenario is a stack of executions, each ending in a power
    failure except the last. For each execution Jaaru records (paper §4):

    - [queue(addr)]: the per-byte history of stores that reached the cache;
    - [getcacheline(addr)]: the interval bounding when each cache line was
      most recently written back to persistent memory.

    The bottom of every stack is the {e initial} pseudo-execution: a fully
    persisted, all-zero memory image, the analogue of a freshly zeroed pool
    file. *)

type t

val create : id:int -> t
(** A fresh execution record. [id] is its depth in the execution stack;
    id 0 is reserved for {!initial}. *)

val initial : unit -> t
(** The all-zero, fully-flushed base image. *)

val id : t -> int
val is_initial : t -> bool

val cacheline : t -> Pmem.Addr.t -> Pmem.Interval.t
(** A boxed {e copy} of the last-writeback interval of the line containing
    the given byte, created as [\[0, inf)] on first use. Read-only: the live
    per-line state is unboxed (see {!line_lo}); refinements must go
    through {!raise_line_lo} / {!lower_line_hi}, and a copy taken before a
    refinement does not see it. *)

val line_lo : t -> Pmem.Addr.t -> int
val line_hi : t -> Pmem.Addr.t -> int
(** The line's last-writeback bounds [lo] and [hi], as plain ints. *)

val line_slot : t -> Pmem.Addr.t -> int
(** The slot of the byte's line in the record's line table, inserting a
    fresh [\[0, inf)] interval if absent, as {!line_lo} and {!line_hi} each
    do. Read it at once with {!slot_lo} / {!slot_hi}: a slot is only valid
    until the next lookup that inserts a line. One lookup serves both
    bounds. *)

val slot_lo : t -> int -> int
val slot_hi : t -> int -> int

val raise_line_lo : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's lower bound to [seq] if higher (a flush took effect). *)

val lower_line_hi : t -> Pmem.Addr.t -> seq:int -> unit
(** Lowers the line's upper bound to [seq] if lower (a recovery read proved
    the writeback happened before [seq]). *)

val push_store : t -> Pmem.Addr.t -> value:int -> seq:int -> label:string -> unit
(** Records one byte store taking effect in the cache. *)

val flush_line : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's last-writeback lower bound to [seq] (a [clflush] or an
    evicted [clflushopt] took effect). *)

(** {1 Bounded store accessors}

    Store histories are held in an int-keyed open-addressed table
    ({!Pmem.Int_table}), so a lookup neither hashes polymorphically nor
    allocates. A snapshot view (below) shares the live record's table and
    hides every store pushed after the capture behind a sequence-number
    bound; only these accessors apply that bound. On ordinary records they
    see the whole history. *)

val store_queue : t -> Pmem.Addr.t -> Store_queue.t
(** The store history of [addr], or a shared empty queue if the address was
    never stored to — read-only, never push into it. It may physically hold
    stores this record hides: read only its first {!visible_length}
    entries. *)

val visible_length : t -> Pmem.Addr.t -> Store_queue.t -> int
(** [visible_length t addr q], where [q] is [store_queue t addr], is how
    many of [q]'s oldest entries [t] exposes; 0 when [addr] has no visible
    store. Together the two are the allocation-free hot-path form of
    {!visible_stores}. *)

val has_stores : t -> Pmem.Addr.t -> bool
(** Whether [addr] has at least one visible store. *)

val visible_stores : t -> Pmem.Addr.t -> (Store_queue.t * int) option
(** The store history of [addr] together with its visible length, or [None]
    when no store is visible; for cold paths. Indices [0 .. n-1] are
    visible; the queue may physically hold more. *)

val fold_stores : (Store_queue.entry -> 'a -> 'a) -> t -> Pmem.Addr.t -> 'a -> 'a
(** Oldest-first fold over the visible stores of [addr]. *)

val first_store : t -> Pmem.Addr.t -> Store_queue.entry option
val last_store : t -> Pmem.Addr.t -> Store_queue.entry option

val last_store_byte : t -> Pmem.Addr.t -> int
(** The newest visible store's byte value at [addr], or [-1] if the address
    has no visible store — the allocation-free probe behind the common-case
    read path (every recorded value is a byte in [0, 255]). *)

val next_store_seq_after : t -> Pmem.Addr.t -> int -> int
(** The sequence number of the oldest visible store of [addr] strictly newer
    than the given seq, or {!Pmem.Interval.infinity} — the paper's "next
    tuple" bound used to refine interval upper ends. Skips stores the crash
    cut off ({!hidden}). *)

(** {1 The crash-drained tail}

    Under buffered eviction a crash pushes every buffered store into the
    crashed record, with the seqs a full drain gives, and records the
    drain as a {!Tail.t}: which seqs belong to which thread's buffer, each
    thread's cut interval, and the flush raises that hold only if the cut
    passes them. Recovery reads decide the cut as they need it
    ({!resolve}); the accessors above, except {!next_store_seq_after},
    still see every drained store. *)

val set_tail : t -> Tail.t -> unit
(** Attaches the crash's drain. Views ({!snapshot_view}, {!snapshot_freeze})
    copy the cut intervals. *)

val resolve : t -> Pmem.Addr.t -> choose:(int -> int) -> unit
(** Decides what a read of the byte in this record depends on: first
    whether each of its crash-drained stores survived, then, if some store
    of the byte survives, whether each pending flush raise on its line took
    effect. Each thread with pending entries among them splits its cut
    interval with one [choose n] decision over [n] alternatives; flush
    raises the narrowed cut makes certain are applied to the line. A no-op
    on records without a tail. *)

val settled : t -> Pmem.Addr.t -> Store_queue.t -> int -> bool
(** [settled t addr q n], with [q] the byte's history and [n > 0] its
    visible length, holds when no read of the byte here depends on a
    pending part of the cut: none of its drained stores is pending and its
    line has no pending flush raise. Such a read needs no {!resolve}, only
    {!hidden}. One physical compare on records without a tail. *)

val hidden : t -> Store_queue.t -> int -> bool
(** [hidden t q i]: entry [i] of the byte history [q] is a drained store
    the crash's cut dropped. Meaningful once {!resolve} ran for the byte,
    or it is {!settled}. [false] at once on records without a tail. *)

val next_shown : t -> Store_queue.t -> int -> int -> int
(** [next_shown t q i n]: the first index in [\[i, n)] that is not
    {!hidden}, or [n] if there is none (or [i >= n]). *)

val prev_shown : t -> Store_queue.t -> int -> int
(** [prev_shown t q i]: the last index at or below [i] that is not
    {!hidden}, or a negative one if there is none. *)

val first_store_seq : t -> Pmem.Addr.t -> Store_queue.t -> int
(** The seq of the oldest store of the byte that is visible and not
    {!hidden}, or [-1]. [q] is [store_queue t addr]. *)

(** {1 Snapshot copies}

    Building blocks of the failure-point snapshot layer. *)

val snapshot_view : ?bound:int -> t -> t
(** A read-only view (same [id]) that stays correct while the original keeps
    executing. Line intervals are duplicated, because recovery reads refine
    them in place even on buried records; the store queues are shared, with
    stores newer than [bound] hidden from the accessors above (queue entries
    are immutable and appends carry strictly larger seqs, so the prefix up
    to [bound] is frozen). Capture cost is O(lines touched), independent of
    the store count. [bound] defaults to the record's own bound; views of
    views compose by taking the minimum. Pushing into a view raises
    [Invalid_argument]. *)

val snapshot_freeze : t -> t
(** A writable view: same [id], the stores visible in the given record now,
    duplicated line intervals, and it accepts new stores — needed for a
    restored top record under buffered eviction, where the drain at the
    crash pushes every buffered store into it. The store histories
    stay shared; the first store to an address after the freeze gives that
    address a private copy of its visible history, so the original and
    other views never see the new stores, nor the freeze later stores to
    the original. A freeze costs O(lines touched), not O(stores). *)

val store_count : t -> int
(** Total byte stores recorded. *)

val flush_count : t -> int
(** Total line-flush events recorded. *)

val written_addrs : t -> Pmem.Addr.t list
(** All byte addresses with at least one visible store, in ascending order —
    a fixed order, so callers summing over them (the Yat state counter) get
    the same result whatever the table's layout. *)

val unflushed_store_count : t -> Pmem.Addr.t -> int
(** Number of stores to the byte that are not certainly persisted, i.e. with
    sequence numbers above the line's last-writeback lower bound. Used by the
    Yat state counter. *)

val pp : Format.formatter -> t -> unit
