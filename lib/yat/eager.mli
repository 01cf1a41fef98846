(** A real eager (Yat-style) model checker for small programs.

    Where Jaaru lazily enumerates only the stores that recovery loads actually
    read, this checker does what the paper describes Yat doing: at every
    failure-injection point it eagerly materialises {e every} legal
    post-failure persistent-memory state — one cut point per cache line,
    constrained by the line's last guaranteed flush — and runs the recovery
    program on each concrete image. Under [Buffered] eviction it first
    enumerates every per-thread store-buffer cut a crash may leave (each
    thread keeps a prefix of its buffer), drains each cut vector the way a
    crash drains it, and enumerates the line cuts of each result.

    It exists for two purposes: as the baseline whose execution counts the
    ablation benchmark compares against, and as a cross-validation oracle —
    on programs small enough for it to finish, the set of recovery behaviours
    it observes must equal the set Jaaru explores (Jaaru's soundness and
    completeness on that program). *)

type result = {
  states : int;  (** concrete post-failure states executed *)
  failure_points : int;
  behaviors : string list;  (** distinct recovery observations, sorted *)
  bugs : Jaaru.Bug.t list;  (** deduplicated *)
  truncated : bool;  (** hit [state_limit] before finishing *)
}

val check :
  ?config:Jaaru.Config.t ->
  ?state_limit:int ->
  pre:(Jaaru.Ctx.t -> unit) ->
  post:(Jaaru.Ctx.t -> string) ->
  unit ->
  result
(** [check ~pre ~post ()] runs [pre] once, snapshotting the persistent state
    space at each failure point, then runs [post] on every member of every
    snapshot (default [state_limit] 20_000 across the whole run). [post]
    returns an observation string describing what recovery saw; a bug aborts
    the state's run and is recorded as the observation ["bug: ..."]. *)

val jaaru_behaviors :
  ?config:Jaaru.Config.t ->
  pre:(Jaaru.Ctx.t -> unit) ->
  post:(Jaaru.Ctx.t -> string) ->
  unit ->
  string list
(** The same observation set collected by running Jaaru's lazy exploration on
    the same scenario — for equivalence checks against {!check}. The
    failure-free execution's observation is excluded (the eager baseline only
    runs recoveries), as is any recovery whose observation equals one already
    seen. The caller's [max_failures] is respected: pass 0 together with an
    explicit {!Jaaru.Ctx.crash} at the end of [pre] for sharp single-point
    litmus semantics. Above 1, a recovery that crashes recovers again and
    [post] runs anew; the execution's observation is the last run's. *)
