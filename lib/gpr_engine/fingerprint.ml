type t = string

let to_hex t = t
let equal = String.equal

(* Bump whenever analysis, tuning, allocation, input generation or
   simulation semantics change: every fingerprint (and therefore every
   on-disk store entry) is invalidated at once.
   2: simulation memo keys carry the backend scheme id+version; entries
   written before schemes existed are ambiguous and must not be
   reused.
   3: [Sim.stats] grew the per-slot stall-attribution fields; cached
   Marshal payloads with the old record layout must not be read back
   (they would deserialise into the wrong shape).
   4: integer widths now come from the [Gpr_analysis.Width] reduced
   product (known-bits × congruence × demanded-bits on top of the
   intervals) and [Compress]'s stored record carries the full width
   analysis; both the widths and the record layout changed.
   5: concurrent-kernel simulation — memo keys may now name a kernel
   set plus a dispatch policy ("coloc" entries marshal the
   [Sim_multi.result] layout), and the admission demand is computed
   through [Backend.demand]; pre-coloc entries must not alias.
   6: energy reports join the memoised payloads ("energy" entries
   marshal the [Gpr_area.Energy.report] layout) and [Fair.jain] now
   returns the 0.0 sentinel for an all-zero allocation, changing the
   fairness field of stored coloc results; pre-energy entries must not
   be read back. *)
let version = "gpr-engine/6"

let of_strings parts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf version;
  List.iter
    (fun s ->
       Buffer.add_string buf (string_of_int (String.length s));
       Buffer.add_char buf ':';
       Buffer.add_string buf s)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let combine ts = of_strings ("combine" :: ts)

let kernel k = of_strings [ "kernel"; Gpr_isa.Pp.kernel_to_string k ]

let launch (l : Gpr_isa.Types.launch) =
  of_strings
    [ "launch";
      Printf.sprintf "%d,%d,%d,%d" l.ntid_x l.ntid_y l.nctaid_x l.nctaid_y ]

(* The configuration is a record of scalars and one enum; Marshal of
   immediate data is canonical within a compiler version, and the store
   header additionally pins [Sys.ocaml_version]. *)
let config (c : Gpr_arch.Config.t) =
  of_strings [ "config"; Digest.string (Marshal.to_string c []) ]

let threshold th =
  of_strings [ "threshold"; Gpr_quality.Quality.threshold_name th ]

let scheme ~id ~version =
  of_strings [ "scheme"; id; string_of_int version ]

let pvalue = function
  | Gpr_exec.Exec.P_int i -> Printf.sprintf "i%d" i
  | Gpr_exec.Exec.P_float f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)

let output_spec = function
  | Gpr_workloads.Workload.Out_floats n -> "floats:" ^ n
  | Gpr_workloads.Workload.Out_image (n, w, h) ->
    Printf.sprintf "image:%s:%dx%d" n w h
  | Gpr_workloads.Workload.Out_ints n -> "ints:" ^ n

let workload (w : Gpr_workloads.Workload.t) =
  of_strings
    ([ "workload"; w.name;
       Gpr_isa.Pp.kernel_to_string w.kernel;
       Printf.sprintf "%d,%d,%d,%d" w.launch.ntid_x w.launch.ntid_y
         w.launch.nctaid_x w.launch.nctaid_y ]
     @ Array.to_list (Array.map pvalue w.params)
     @ List.map (fun (n, sz) -> Printf.sprintf "shared:%s:%d" n sz) w.shared
     @ [ Printf.sprintf "extra-shared:%d" w.extra_shared_bytes;
         output_spec w.output;
         Gpr_quality.Quality.metric_name w.metric;
         Gpr_workloads.Workload.inputs_digest w ])
