(** Fixed-size domain pool with typed futures.

    The evaluation pipeline is embarrassingly parallel — 11 kernels ×
    6 configurations, each an independent analyze→tune→allocate→simulate
    chain — so the pool is deliberately simple: a mutex/condition work
    queue served by [jobs - 1] worker domains and by the submitting
    domain, which runs queued tasks inside {!await} while the future it
    waits for is pending.  A submitter that never awaits (the daemon's
    event loop) leaves the queue to the [jobs - 1] workers.

    Determinism contract: {!map_list} submits in list order and awaits
    in list order, so its result is {e identical} to [List.map] — only
    wall-clock time differs.  Tasks must be pure or must confine shared
    mutation to their own synchronised structures (the gpr_core memo
    tables are mutex-guarded for exactly this reason).

    Restrictions: tasks must not {!submit} to, or {!await} futures of,
    the pool that runs them — a task's await could block a worker on a
    task queued behind it, so nested waits can deadlock.  Fan-out
    happens at one level, from the orchestrating domain. *)

type t

val default_jobs : unit -> int
(** Parallelism to use when the caller does not specify one: the
    [GPR_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  With
    [jobs <= 1] no domain is spawned and every task runs inline at
    {!submit} time — the serial reference behaviour. *)

val jobs : t -> int
(** The [jobs] value the pool was created with (at least 1). *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exception). *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Exceptions raised by the task are captured with
    their backtrace and re-raised by {!await} in the awaiting domain. *)

val await : 'a future -> 'a
(** Result of the task.  While it is pending, the caller runs other
    queued tasks of the pool (in queue order) before blocking. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit [f x] for every element, await in order.  Equal to
    [List.map f] for deterministic [f], whatever the parallelism. *)

val iter_list : t -> ('a -> unit) -> 'a list -> unit

val shutdown : t -> unit
(** Drain the queue, stop the workers and join their domains.
    Idempotent.  Futures already submitted are still completed. *)
