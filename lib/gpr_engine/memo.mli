(** A domain-safe in-memory memo table keyed by string (in practice a
    content fingerprint, never a workload name).  Lookup and insertion
    each hold the table's lock; the computation runs outside it, so two
    domains racing on one key may both compute, but the pipeline is
    deterministic and they store equal values. *)

type 'a t

val create : unit -> 'a t

val get : 'a t -> string -> (unit -> 'a) -> 'a
(** [get t key f]: the value kept under [key], else [f ()], kept. *)

val clear : 'a t -> unit
