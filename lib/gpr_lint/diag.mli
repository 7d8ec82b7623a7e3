(** Diagnostics produced by the static kernel verifier ({!Lint}).

    Every diagnostic carries a stable code ([GLxyz]) so that tests, CI
    gates and downstream tooling can match on it without parsing the
    human-readable message.  The code space is partitioned by pass:

    - [GL1xx] — divergence / barrier safety
    - [GL2xx] — shared-memory races
    - [GL3xx] — compression soundness (slice masks vs proven ranges)
    - [GL4xx] — memory out-of-bounds
    - [GL5xx] — definite assignment / dead stores *)

open Gpr_isa.Types

type severity =
  | Error    (** a proven violation: the kernel is wrong or the
                 compression pipeline would mis-store a value *)
  | Warning  (** a possible violation the analysis cannot discharge *)
  | Info     (** advisory; never fails a build *)

(** Location of a diagnostic inside a kernel.  [l_block = -1] denotes a
    kernel-level diagnostic with no single program point (e.g. two
    allocator placements overlapping).  [l_instr = None] on a located
    diagnostic points at the block's terminator. *)
type loc = { l_block : int; l_instr : int option }

val kernel_loc : loc
val block_loc : int -> loc
val instr_loc : int -> int -> loc

type t = {
  d_code : string;      (** stable code, e.g. ["GL101"] *)
  d_severity : severity;
  d_pass : string;      (** name of the pass that produced it *)
  d_loc : loc;
  d_message : string;
}

val severity_to_string : severity -> string
val compare : t -> t -> int
(** Program order (kernel-level first), then code — the order reports
    are rendered in. *)

val count : severity -> t list -> int
val max_severity : t list -> severity option

val quote : kernel -> loc -> string option
(** The pretty-printed instruction (or terminator) at a location, for
    echoing in reports; [None] for kernel-level or out-of-range
    locations. *)

val to_string : kernel -> t -> string
(** One-line human rendering:
    [kernel:block.instr: severity GLxxx: message]. *)

val to_string_quoted : kernel -> t -> string
(** {!to_string} followed by an indented source quote when the location
    resolves to an instruction. *)

val to_json : kernel_name:string -> t -> Gpr_obs.Json.t
(** One JSON object with fields [kernel], [code], [severity], [pass],
    [block], [instr] ([null] at a terminator), [message]. *)

val list_to_json : (string * t list) list -> Gpr_obs.Json.t
(** One JSON array of {!to_json} objects: each kernel's diagnostics,
    sorted with {!compare}, kernels in the order given.  [gpr lint
    --json] and the daemon's lint payload both render this. *)
