(** Canonical content fingerprints for memoisation and the on-disk
    result store.

    The pre-existing memo tables in {!Gpr_core} were keyed by workload
    {e name}, which is unsound for dynamically built kernels: two
    distinct kernels sharing a name would return each other's results.
    A fingerprint is an MD5 digest over the {e content} that actually
    determines a result:

    - the kernel in its canonical {!Gpr_isa.Pp} textual form;
    - the launch geometry, parameter values and shared-buffer layout;
    - the initial contents of every input/output buffer;
    - the architecture configuration (for simulation results);
    - the quality threshold (for tuner results);
    - {!version}, a library stamp bumped whenever the pipeline's
      semantics change, which also invalidates on-disk entries written
      by older code. *)

type t = private string
(** Hex MD5 digest (32 characters), safe for use in file names. *)

val to_hex : t -> string
val equal : t -> t -> bool

val version : string
(** Library version stamp mixed into every fingerprint.  Bump on any
    change that affects analysis, tuning, allocation, input generation
    or simulation results. *)

val of_strings : string list -> t
(** Digest of the length-prefixed concatenation (unambiguous: no two
    distinct string lists collide by concatenation). *)

val kernel : Gpr_isa.Types.kernel -> t
(** Canonical textual form of the kernel. *)

val launch : Gpr_isa.Types.launch -> t

val config : Gpr_arch.Config.t -> t
(** Architecture configuration (all fields). *)

val threshold : Gpr_quality.Quality.threshold -> t

val scheme : id:string -> version:int -> t
(** A register-file backend's identity (its stable id and version).
    Mixed into every simulation memo key so two schemes — or two
    versions of one scheme — can never share a cache entry. *)

val workload : Gpr_workloads.Workload.t -> t
(** Everything that determines the static framework's result for a
    workload: kernel text, launch, parameter values, shared layout,
    output spec, quality metric and a digest of the freshly generated
    input data ({!Gpr_workloads.Workload.inputs_digest}: computed once
    per process for a {!Gpr_workloads.Workload.share_inputs} workload,
    such as the registry's, and on every call otherwise).  A
    [{ w with data = g }] copy digests [g]'s data, never [w]'s kept
    digest.  The kernel text is printed on every call, since kernels
    may be edited in place.  The workload {e name} is included only as
    a debugging aid; two same-named workloads with different bodies get
    different fingerprints (the staleness bug this module exists to
    fix). *)

val combine : t list -> t
