(** The fleet coordinator: exhaustive exploration fanned out over supervised
    worker processes, merged back deterministically.

    The run has two phases. {e Split}: a short in-process exploration under
    [split_execs] grows a frontier, which is shattered
    ({!Jaaru.Choice.split_prefix}) into roughly [workers * shards_per_worker]
    shard checkpoints — each a {!Jaaru.Checkpoint} with the real run's
    fingerprint, one slice of the frontier, empty reports and zero
    statistics (so merging never double-counts). {e Fan-out}: shards are
    assigned to spawned worker processes over the {!Transport} protocol;
    each worker resumes its shard and returns the result checkpoint.

    {b Determinism.} Partial work is merged {e only} when a [Result] frame
    arrives; a worker that crashes, hangs or is killed mid-shard contributes
    nothing and its whole shard is requeued, so every leaf of the choice
    tree is attributed exactly once no matter how many attempts failed.
    Combined with {!Jaaru.Explorer.merge_outcomes} being partition-
    independent, an exhaustive fleet run's report is byte-identical to the
    single-process [jaaru check] report — for every worker count, with
    chaos on or off. (Runs cut short by [max_executions] carry the same
    caveat as [jobs > 1]: each shard is capped independently.)

    {b Robustness.} Heartbeat timeouts detect hangs; nonzero exits, signals
    and EOFs detect crashes; failed shards are requeued with capped
    exponential backoff; a shard that keeps killing workers {e without} an
    injected fault is quarantined after [quarantine_after] failures and
    reported rather than retried forever; when every spawn attempt fails the
    coordinator degrades to exploring the shards in-process. Work stealing:
    when workers sit idle with nothing assignable, the longest-running busy
    worker is preempted and the remainder it returns is shattered into new
    shards.

    {b Chaos.} With a non-trivial [chaos] spec the coordinator injects the
    faults itself: scheduled SIGKILLs of worker process groups, stalled
    worker channels (exercising the heartbeat timeout), and torn shard
    checkpoint files (exercising the [Refused] path). Chaos-induced failures
    are counted as retries but never toward quarantine. *)

type config = {
  workers : int;  (** worker processes to supervise *)
  shards_per_worker : int;  (** shatter granularity target *)
  split_execs : int;  (** phase-1 execution cap *)
  heartbeat_timeout : float;  (** seconds without a beat before a kill *)
  steal_after : float;  (** busy seconds before a preempt can steal *)
  quarantine_after : int;  (** non-chaos failures before quarantine *)
  backoff_base : float;
  backoff_cap : float;
  spawn_attempts : int;  (** consecutive spawn failures before a slot is disabled *)
  chaos : Supervise.chaos;
  chaos_seed : int;
  scratch : string;  (** existing directory for shard checkpoints *)
  worker_argv : string array option;
      (** argv of a worker process ([jaaru fleet-worker CASE flags…]);
          [None] explores every shard in-process (testing, degraded mode) *)
  log : string -> unit;  (** progress/supervision event lines *)
}

val default : scratch:string -> config

type fleet_stats = {
  shards : int;
  workers_configured : int;
  workers_effective : int;  (** after spawn-failure degradation *)
  spawns : int;
  spawn_failures : int;
  assignments : int;
  retries : int;
  chaos_injected : int;
  steals : int;
  quarantined : (int * string) list;  (** shard id and last failure, sorted *)
  in_process : bool;
}

val pp_fleet : Format.formatter -> fleet_stats -> unit

type result = {
  outcome : Jaaru.Explorer.outcome;
      (** {!Jaaru.Explorer.view} of [checkpoint]: merged,
          {!Jaaru.Explorer.pp_report}-ready *)
  checkpoint : Jaaru.Checkpoint.t;
      (** the merged report record under the run's fingerprint; its
          frontier holds the encoded prefixes of unexplored shards
          (quarantined, or unfinished at an interrupt), so it is the
          aggregate resume checkpoint as it stands *)
  fleet : fleet_stats;
  interrupted : bool;
}

val run :
  fleet:config -> config:Jaaru.Config.t -> scenario:Jaaru.Explorer.scenario -> result
(** Runs the fleet to completion, quarantine-exhaustion, or interrupt
    ({!Jaaru.Explorer.request_interrupt} — the first request preempts all
    workers and collects partial results for up to a grace period; a second
    kills them immediately). *)
