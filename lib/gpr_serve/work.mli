(** Request verbs of the serve pipeline, resolved to concrete work items
    and executed.

    Every handler calls exactly the functions the one-shot CLI verbs
    call ({!Gpr_core.Compress.analyze}, {!Gpr_core.Simulate.baseline} /
    [footprint] / [backend],
    {!Gpr_lint.Lint.lint}) so a payload served by the daemon is
    byte-identical to what the same pipeline produces in-process — the
    [gpr bench --serve --verify] invariant.

    Work items are pure functions of their {!key}; the server uses the
    key both to coalesce duplicate in-flight requests and to cache
    completed payloads. *)

exception Deadline
(** Raised by the [check] hook between pipeline stages when the
    request's deadline has passed. *)

type t =
  | Ping
  | Sleep of int  (** milliseconds; load tests only, gated by the server *)
  | Plan_registry of Gpr_workloads.Workload.t
  | Plan_inline of Gpr_isa.Types.kernel * Gpr_isa.Types.launch
  | Lint_registry of Gpr_workloads.Workload.t
  | Lint_inline of Gpr_isa.Types.kernel * Gpr_isa.Types.launch
  | Estimate of Gpr_workloads.Workload.t * Gpr_backend.Backend.t
  | Profile of Gpr_workloads.Workload.t * Gpr_backend.Backend.t
  | Colocate of
      Gpr_workloads.Workload.t list
      * Gpr_backend.Backend.t
      * (module Gpr_sim.Sim_multi.POLICY)
      (** co-schedule a kernel set on one SM ({!Gpr_core.Simulate.colocate});
          the request names the set as a comma-separated ["kernel"]
          field and the dispatch policy as ["policy"] (default fifo) *)

val resolve : Protocol.request -> (t, Protocol.error) result
(** Map a request onto a work item.  Unknown kernel / backend names
    return the typed [unknown_kernel] / [unknown_backend] errors (with
    the same "try [gpr list]" guidance the CLI prints); an unknown
    colocate policy returns [bad_request] with the "try
    [--policy fifo|rr|binpack]" guidance; structural
    problems (missing kernel, unparseable inline source, estimate on an
    inline kernel) return [bad_request].  Never raises. *)

val key : t -> string
(** Stable coalescing/caching key: verb tag plus the content
    fingerprints of everything that determines the payload.  The
    request's [tag] field is appended by the server. *)

val cacheable : t -> bool
(** Whether a completed payload may be served to later requests with
    the same key ([Sleep] is not: it exists to occupy a worker). *)

val run : ?check:(unit -> unit) -> t -> Gpr_obs.Json.t
(** Execute the work item; [check] is called between pipeline stages
    and may raise {!Deadline}. *)

val buffer_len_of_workload :
  Gpr_workloads.Workload.t -> string -> int option
(** {!Gpr_workloads.Workload.buffer_len}, under the name existing callers
    use. *)
