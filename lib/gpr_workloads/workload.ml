open Gpr_isa.Types
module Exec = Gpr_exec.Exec
module Q = Gpr_quality.Quality

type output_spec =
  | Out_floats of string
  | Out_image of string * int * int
  | Out_ints of string

type t = {
  name : string;
  group : int;
  metric : Q.metric;
  kernel : kernel;
  launch : launch;
  params : Exec.pvalue array;
  data : unit -> (string * Exec.storage) list;
  shared : (string * int) list;
  extra_shared_bytes : int;
  output : output_spec;
  paper_regs : int;
}

let copy_storage = function
  | Exec.I_data a -> Exec.I_data (Array.copy a)
  | Exec.F_data a -> Exec.F_data (Array.copy a)

let copy_inputs inputs =
  List.map (fun (name, s) -> (name, copy_storage s)) inputs

let digest_inputs inputs = Digest.string (Marshal.to_string inputs [])

type kept = { inputs : (string * Exec.storage) list; digest : Digest.t }

(* Every [data] closure [share_inputs] has built, keyed by physical
   identity, with the function that yields its kept inputs.  A [with]
   copy that replaces [data] is not in the table, so it never sees
   another closure's inputs or digest. *)
let shared_closures :
  ((unit -> (string * Exec.storage) list) * (unit -> kept)) list Atomic.t =
  Atomic.make []

(* The first call generates the inputs, digests a fresh copy of them
   (the bytes [digest_inputs (t.data ())] hashes) and publishes both; a
   racing domain's own result loses the [compare_and_set] and is
   dropped (a [Lazy.t] forced from two domains at once raises
   instead).  Every [data] call hands out fresh arrays, so a run may
   write into its buffers. *)
let share_inputs t =
  let cell = Atomic.make None in
  let kept () =
    match Atomic.get cell with
    | Some k -> k
    | None ->
      let inputs = t.data () in
      let k = { inputs; digest = digest_inputs (copy_inputs inputs) } in
      if Atomic.compare_and_set cell None (Some k) then k
      else Option.get (Atomic.get cell)
  in
  let data () = copy_inputs (kept ()).inputs in
  let rec register () =
    let l = Atomic.get shared_closures in
    if not (Atomic.compare_and_set shared_closures l ((data, kept) :: l))
    then register ()
  in
  register ();
  { t with data }

let kept_inputs t =
  Option.map (fun kept -> kept ())
    (List.assq_opt t.data (Atomic.get shared_closures))

let inputs_digest t =
  match kept_inputs t with
  | Some k -> k.digest
  | None -> digest_inputs (t.data ())

let warps_per_block t = (threads_per_block t.launch + 31) / 32

let shared_bytes_per_block t =
  List.fold_left (fun acc (_, n) -> acc + (n * 4)) t.extra_shared_bytes t.shared

let buffer_len t =
  let data = match kept_inputs t with Some k -> k.inputs | None -> t.data () in
  fun name ->
    match List.assoc_opt name t.shared with
    | Some n -> Some n
    | None -> (
      match List.assoc_opt name data with
      | Some (Exec.I_data a) -> Some (Array.length a)
      | Some (Exec.F_data a) -> Some (Array.length a)
      | None -> None)

let output_name t =
  match t.output with
  | Out_floats n | Out_image (n, _, _) | Out_ints n -> n

(* The last recorded float schedule ({!Exec.record}), per domain.  A
   workload's inputs decide its integer side, so the tape is used only
   for the kernel and [data] closure it was recorded from (physically)
   plus equal launch, params and shared sizes, and only [share_inputs]
   closures get one: they hand out the same inputs on every call.  One
   analysis runs all quantised runs of one workload in one domain, so
   one slot suffices.  A tape of an earlier generation is never used;
   [clear_tapes] starts a new one.  The slot may hold [None] for a
   tape: the kernel cannot be recorded, so runs interpret. *)
type tape_entry = {
  e_kernel : kernel;
  e_data : unit -> (string * Exec.storage) list;
  e_launch : launch;
  e_params : Exec.pvalue array;
  e_shared : (string * int) list;
  e_generation : int;
  e_tape : Exec.tape option;
}

let tape_generation = Atomic.make 0
let tape_key : tape_entry option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let clear_tapes () =
  Atomic.incr tape_generation;
  Domain.DLS.get tape_key := None

let tape_matches t generation e =
  e.e_kernel == t.kernel && e.e_data == t.data
  && e.e_generation = generation && e.e_launch = t.launch
  && e.e_params = t.params && e.e_shared = t.shared

(* A quantised run without a trace of a workload with kept inputs
   replays the workload's tape, or records it when the slot holds
   another. *)
let exec_quantized t ~quantize ~bindings =
  let generation = Atomic.get tape_generation in
  let slot = Domain.DLS.get tape_key in
  match !slot with
  | Some ({ e_tape = Some tape; _ } as e) when tape_matches t generation e ->
    Exec.replay tape ~bindings ~quantize
  | Some ({ e_tape = None; _ } as e) when tape_matches t generation e ->
    ignore (Exec.run t.kernel ~launch:t.launch ~params:t.params ~bindings
              { Exec.default_config with quantize })
  | _ ->
    let tape =
      Exec.record t.kernel ~launch:t.launch ~params:t.params ~bindings ~quantize
    in
    slot :=
      Some { e_kernel = t.kernel; e_data = t.data; e_launch = t.launch;
             e_params = t.params; e_shared = t.shared;
             e_generation = generation; e_tape = tape }

let run t ~quantize ~collect_trace =
  let data = t.data () in
  let bindings =
    Exec.bindings_for t.kernel ~data ~shared:t.shared ()
  in
  let trace =
    match quantize with
    | Some _ when (not collect_trace)
                  && List.mem_assq t.data (Atomic.get shared_closures) ->
      exec_quantized t ~quantize ~bindings;
      None
    | _ ->
      Exec.run t.kernel ~launch:t.launch ~params:t.params ~bindings
        { Exec.default_config with quantize; collect_trace }
  in
  let out =
    match List.assoc_opt (output_name t) data with
    | Some (Exec.F_data a) -> a
    | Some (Exec.I_data a) -> Array.map float_of_int a
    | None -> failwith (t.name ^ ": output buffer not bound")
  in
  (out, trace)

let reference t = fst (run t ~quantize:None ~collect_trace:false)

let run_quantized t ~quantize =
  fst (run t ~quantize:(Some quantize) ~collect_trace:false)

let score t ~out ~reference =
  match t.output with
  | Out_image (_, w, h) ->
    let img = Gpr_util.Image.of_array ~width:w ~height:h out in
    let ref_img = Gpr_util.Image.of_array ~width:w ~height:h reference in
    Q.S_ssim (Q.ssim img ~reference:ref_img)
  | Out_floats _ ->
    (match t.metric with
     | Q.M_binary ->
       Q.S_binary
         (Array.length out = Array.length reference
          && Array.for_all2 (fun a b -> a = b) out reference)
     | Q.M_deviation | Q.M_ssim ->
       Q.S_deviation_pct (Q.deviation_pct out ~reference))
  | Out_ints _ ->
    Q.S_binary
      (Array.length out = Array.length reference
       && Array.for_all2 (fun a b -> a = b) out reference)

let evaluate t ~reference ~quantize =
  let out = run_quantized t ~quantize in
  score t ~out ~reference

let trace t ~quantize =
  match snd (run t ~quantize ~collect_trace:true) with
  | Some tr -> tr
  | None -> assert false

let float_sites t = Exec.float_def_sites t.kernel
