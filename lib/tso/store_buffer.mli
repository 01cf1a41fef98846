(** A per-thread x86-TSO store buffer.

    Stores, [clflush]es, [clflushopt]s and [sfence]s are buffered in FIFO
    order when executed and take effect in the cache only when evicted
    (paper Fig. 1 and Fig. 7). Loads forward from the newest buffered store to
    each byte (store-buffer bypass). *)

type entry =
  | Store of { addr : Pmem.Addr.t; value : int; width : int; label : string }
      (** A possibly multi-byte store, packed: [value] holds the [width]
          little-endian bytes written starting at [addr] (no per-store byte
          array). All bytes hit the cache atomically with one sequence
          number. *)
  | Clflush of { addr : Pmem.Addr.t; label : string }
  | Clflushopt of { addr : Pmem.Addr.t; enq_seq : int; label : string }
      (** [enq_seq] is σ_curr captured when the instruction executed
          (Fig. 7, Exec_CLFLUSHOPT). *)
  | Sfence

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int
val enqueue : t -> entry -> unit

val dequeue : t -> entry option
(** Oldest entry, removed. *)

val forward : t -> Pmem.Addr.t -> width:int -> int array -> int
(** [forward sb addr ~width out] is the TSO load-forwarding path for the
    [width]-byte load at [addr]. It sets [out.(i)], for [i] in
    [\[0, width)], to the byte the newest buffered store to [addr + i]
    wrote, or to [-1] if no buffered store covers that byte, and returns how
    many bytes it found. One newest-first scan, which stops once all [width]
    bytes are found; allocates nothing. *)

val pending_writes : t -> bool
(** Whether any buffered entry is a store. *)

val copy : t -> t
(** An independent copy of the FIFO, holding only the live entries; entries
    are immutable and shared. *)

val entries : t -> entry list
(** Oldest first. *)

val clear : t -> unit
