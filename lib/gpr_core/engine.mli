(** The process-wide engine wiring shared by the CLI and the bench
    driver: one content-addressed store behind {!Compress} and
    {!Simulate}, and one domain pool behind {!Experiments}. *)

val jobs : int -> int
(** [jobs n] is [n], or {!Gpr_engine.Pool.default_jobs} when
    [n <= 0]. *)

val attach_store :
  ?max_entries:int -> ?max_bytes:int -> string option ->
  Gpr_engine.Store.t option
(** [attach_store (Some dir)] creates the store at [dir] (see
    {!Gpr_engine.Store.create} for the caps) and routes {!Compress} and
    {!Simulate} through it; [None] attaches nothing. *)

val with_pool : jobs:int -> (unit -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a pool of [jobs jobs] domains
    serving the {!Experiments} data functions, then clears it and joins
    its domains (also on exception). *)
