(** On-disk checkpoints: the durable unit of exploration progress.

    A checkpoint captures everything needed to continue a partially explored
    run: the {e unexplored frontier} (encoded {!Choice} prefixes — each pins
    an entire untouched subtree), the report record of the explored part
    (its merged bugs, multi-rf reports, pass findings and statistics), and a
    fingerprint of the configuration and workload that shaped the tree. The
    record is the explorer's one merged form: fleet workers return it, the
    coordinator merges it, and {!Explorer.view} renders an outcome from it.
    Resuming pushes the frontier's subtrees back onto a fresh work queue;
    because every explored leaf is attributed to exactly one
    checkpointed-or-explored subtree, an interrupted-then-resumed run
    reports byte-identically to an uninterrupted one, for any [jobs] value
    and with the snapshot layer on or off.

    {2 File format}

    A magic line ["jaaru-checkpoint-v5"], a CRC-32 line (8 hex digits) of the
    payload, then the {!Pmem.Wire} encoding of {!t} — a hand-rolled
    structural format with an explicit per-field codec instead of a
    [Marshal] image. Findings are stored as pass findings whatever the
    report switches (v3 stored the redundant pass a second time, as perf
    reports); the statistics omit [multi_rf_loads] and [findings], which
    count the stored lists and read back as 0. Frontier prefixes hold
    {!Choice.Cut} cells where v4's held the crash-time drain decisions of
    a search that no longer exists. Saves are atomic
    (write-temp-then-rename), so a crash mid-save leaves the previous
    checkpoint intact; a save that fails before the rename removes its temp
    file. Checkpoints are single-version: a format change bumps the magic
    and old files are {!Rejected}, never misread.

    {2 The fingerprint}

    CRC-32 over the workload name and every configuration field that shapes
    the choice tree or the reports ([max_failures], eviction policy,
    [max_steps], [max_executions], [stop_at_first_bug], report switches,
    [schedule_seed], region geometry, [trace_depth], [analyze], [suppress],
    [step_deadline]). Fields a resumed run may legitimately vary — [jobs],
    [snapshot], [wall_budget], [mem_budget], [checkpoint_every] —
    are excluded: outcomes are identical across them by construction. *)

exception Rejected of string
(** The file is not a usable checkpoint for this run: unreadable, corrupt
    (bad magic, checksum or payload), or fingerprint mismatch. The message
    says which. *)

type t = {
  fingerprint : string;
  frontier : string list;  (** encoded prefixes ({!Choice.encode_prefix}) *)
  bugs : Bug.t list;
  multi_rf : Ctx.multi_rf list;
  findings : Analysis.Report.finding list;
      (** every analysis-pass finding, whatever [report_perf] and [analyze]
          say to show *)
  stats : Stats.t;  (** merged statistics of the explored part *)
}

val fingerprint : workload:string -> Config.t -> string

val make :
  fingerprint:string ->
  frontier:string list ->
  bugs:Bug.t list ->
  multi_rf:Ctx.multi_rf list ->
  findings:Analysis.Report.finding list ->
  stats:Stats.t ->
  t

val frontier_prefixes : t -> Choice.prefix list
(** Decoded frontier, in checkpoint order. Raises {!Rejected} on a corrupt
    prefix (also checked eagerly by {!load}). *)

val save : t -> string -> unit
(** Atomically writes the checkpoint to a path (temp file + rename). If the
    write fails before the rename, the temp file is removed and the original
    exception re-raised — a failed save never leaves a stale [.tmp] sibling
    behind. *)

val set_write_fault : (unit -> unit) option -> unit
(** Test hook: a function {!save} calls after the header and before the
    payload write. Tests inject a raise here to simulate a mid-save failure
    (full disk, kill) and assert that the temp file is cleaned up and the
    previous checkpoint survives. [None] (the default) disables it. *)

val load : string -> t
(** Reads and integrity-checks a checkpoint (magic, checksum, payload and
    frontier decodability). Raises {!Rejected} — {e not} validation against
    a run; call {!validate} for that. *)

val to_string : t -> string
(** The exact byte image {!save} writes (header plus payload) — the unit
    fleet workers ship over their stdout pipe instead of through a file. *)

val of_string : string -> t
(** Inverse of {!to_string}, with the same integrity checks as {!load}
    (magic, checksum, payload and frontier decodability). Raises
    {!Rejected}. *)

val validate : t -> workload:string -> config:Config.t -> unit
(** Raises {!Rejected} unless the checkpoint's fingerprint matches this
    workload and configuration. *)

val completed : t -> bool
(** Whether the frontier is empty — the run had fully finished when this
    checkpoint was written; resuming it is a no-op that reports the stored
    outcome. *)
