(** Constraint-refinement read-from analysis (paper Figures 9 and 10).

    [build_may_read_from] computes the set of stores a byte load may observe,
    walking the execution stack and filtering each failed execution's store
    history through its cache line's last-writeback interval. Once the
    exploration has committed to one candidate, [do_read] refines the
    last-writeback intervals of the intervening executions so that later loads
    on the same cache line stay consistent with the observed value. *)

type source = {
  exec : Exec_record.t;  (** execution that performed the store *)
  seq : int option;  (** sequence number; [None] for the current execution *)
  value : int;  (** the byte value *)
  label : string;  (** source label of the store, for bug reports *)
}

val source_from_current : Exec_stack.t -> value:int -> label:string -> source
(** A store performed by the currently-running execution — no persistency
    constraint applies (the paper's [⟨top(exec), _, val⟩] tuples). *)

val build_may_read_from :
  ?sb_value:int * string -> cut:(int -> int) -> Exec_stack.t -> Pmem.Addr.t -> source list
(** All stores the byte load may read from, newest candidates first.

    [sb_value], when given, is the value and label of the newest store to the
    address still sitting in the loading thread's store buffer — store-buffer
    bypass wins outright (Fig. 9 lines 2–3). Otherwise the newest cache store
    of the current execution wins (lines 4–5); otherwise candidates come from
    pre-failure executions via [ReadPreFailure] (lines 7–13). The result is
    never empty: the initial all-zero image backstops the recursion.

    Each pre-failure record the walk visits first runs
    {!Exec_record.resolve} with [cut] as the decision: a buffered crash's
    pending store-buffer cut is split where this byte depends on it, and
    the drained stores the cut dropped are skipped. [cut n] picks one of
    [n] alternatives. Callers whose stack holds no crash tail never see
    it called. *)

val read_single_span : Exec_stack.t -> Pmem.Addr.t -> width:int -> int array -> int
(** The allocation-free common case of a [width]-byte load, in one walk of
    the stack. On entry [out.(i)] is a byte value for each byte of the load
    already known (forwarded from the store buffer) and negative for the
    rest. The result [k] is the first byte whose
    [build_may_read_from stack (addr + k)] would return several candidates,
    or [width] if there is none (a byte whose read depends on a crash's
    pending cut counts as several); on return [out.(i)], for every [i < k], is
    the byte value of the lone candidate (or the known byte). Bytes from [k]
    on are left unspecified: committing byte [k] to a source refines the
    line intervals they read, so the caller reads them one by one after it.
    The walk refines nothing, as [do_read] on a lone candidate would not,
    so bytes below [k] need no further work and consume no choice. Computes
    no candidate list and builds no {!source}. *)

val do_read : Exec_stack.t -> Pmem.Addr.t -> source -> unit
(** Commits the load to one source and refines last-writeback intervals of
    previous executions (Fig. 10): each failed execution newer than the
    source must not have flushed the line after its first surviving store
    to the byte,
    and the source execution's line must have been written back within
    [(seq, next-store-seq)). *)

val pp_source : Format.formatter -> source -> unit
