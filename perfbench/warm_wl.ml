(* Workload [warm]: the second `gpr report` over a populated store.
   Set-up fills a fresh store cold (Compress record, then per-scheme
   stats and energy for every registered scheme) in a forked child.
   The op clears the in-memory memos and reads each kernel's full
   record set back, in a seeded kernel order, through Compress.analyze,
   Simulate.backend and Simulate.backend_energy — no executor, no
   simulator.  Read-back
   records must equal the cold ones.

   The traced phase runs the op, then re-enacts its reads from public
   calls — Fingerprint.workload, then Store.find under the keys Compress
   and Simulate use — so the memo layer's share is the op minus the
   re-enactment. *)

open Common
module W = Gpr_workloads.Workload
module C = Gpr_core.Compress
module Sim = Gpr_core.Simulate
module Q = Gpr_quality.Quality
module Store = Gpr_engine.Store
module Fp = Gpr_engine.Fingerprint
module Backend = Gpr_backend.Backend

let threshold = Q.High

(* One kernel's record set, as marshalled digests. *)
type records = { analyze : string; stats : string list; energy : string list }

let read_all (w : W.t) =
  let c = C.analyze w in
  let stats = List.map (fun b -> Sim.backend b c threshold) Gpr_backend.Registry.all in
  let energy =
    List.map (fun b -> Sim.backend_energy b c threshold) Gpr_backend.Registry.all
  in
  (c, stats, energy)

let digests (c, stats, energy) =
  { analyze = Tune_wl.digest (Tune_wl.of_compress c);
    stats = List.map Tune_wl.digest stats;
    energy = List.map Tune_wl.digest energy }

(* The store keys Simulate derives for a scheme's stats and energy at
   [threshold] with the default writeback delay. *)
let keys fp b =
  let fp = Fp.to_hex fp in
  let arch = Fp.to_hex (Fp.config Gpr_arch.Config.fermi_gtx480) in
  let scheme = Fp.to_hex (Backend.fingerprint b) in
  let t = Q.threshold_name threshold in
  ( Fp.of_strings
      [ "stats"; Printf.sprintf "%s/%s/backend/%s/%s/wb-" fp arch scheme t ],
    Fp.of_strings
      [ "energy"; Printf.sprintf "energy/%s/%s/%s/%s/wb-" fp arch scheme t ] )

let traced_read st (w : W.t) =
  let fp = span "fingerprint.workload" (fun () -> Fp.workload w) in
  let find kind key = span "store.find" (fun () -> Store.find st ~kind ~key) in
  let record : Tune_wl.stored option = find "analyze" fp in
  let per_scheme =
    List.map
      (fun b ->
        let sk, ek = keys fp b in
        let (s : Gpr_sim.Sim.stats option) = find "stats" sk in
        let (e : Gpr_area.Energy.report option) = find "energy" ek in
        (s, e))
      Gpr_backend.Registry.all
  in
  (record, per_scheme)

let read_digests (record, per_scheme) =
  match record with
  | Some r when List.for_all (fun (s, e) -> s <> None && e <> None) per_scheme ->
    Some
      { analyze = Tune_wl.digest r;
        stats = List.map (fun (s, _) -> Tune_wl.digest (Option.get s)) per_scheme;
        energy = List.map (fun (_, e) -> Tune_wl.digest (Option.get e)) per_scheme }
  | _ -> None

(* Set-up: a forked child fills a fresh store cold and hands back the
   records' digests, so this process never runs the tuner or the
   simulator and its peak heap covers the reads alone. *)
let fill opts workloads =
  let dir = fresh_dir opts "warm-store" in
  let digests_file = dir ^ ".cold" in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let st = Store.create ~dir () in
        C.set_store (Some st);
        Sim.set_store (Some st);
        let cold = List.map (fun (n, w) -> (n, digests (read_all w))) workloads in
        Out_channel.with_open_bin digests_file (fun oc -> Marshal.to_channel oc cold []);
        0
      with e ->
        prerr_endline ("warm: store fill failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    if snd (Unix.waitpid [] pid) <> Unix.WEXITED 0 then
      failwith "warm: the store fill failed";
    let cold : (string * records) list =
      In_channel.with_open_bin digests_file Marshal.from_channel
    in
    Sys.remove digests_file;
    (Store.create ~dir (), cold)

let run opts =
  let names = Tune_wl.kernels opts in
  let workloads = List.map (fun n -> (n, kernel_named n)) names in
  let teardown (st, _) = rm_rf (Store.dir st) in
  let (st, cold), setups = timed_setups ~teardown opts (fun () -> fill opts workloads) in
  C.set_store (Some st);
  Sim.set_store (Some st);
  let mismatch name =
    Printf.eprintf "warm %s: read-back records differ from the cold ones\n%!" name;
    false
  in
  (* One op reads back every kernel's record set, kernels in a seeded
     order. *)
  let same order reads =
    List.for_all2
      (fun (name, _) r -> r = Some (List.assoc name cold) || mismatch name)
      order reads
  in
  let untraced_op order () =
    let misses = Store.misses st in
    C.clear_cache ();
    Sim.clear_cache ();
    let reads, latency =
      cpu_time (fun () -> List.map (fun (_, w) -> read_all w) order)
    in
    let ok =
      same order (List.map (fun r -> Some (digests r)) reads)
      && Store.misses st = misses
    in
    { latency; ok }
  in
  (* Traced: the real op, then its reads re-enacted under spans.  The
     op itself carries no span, so no tracing overhead is reported. *)
  let reenacted = ref [] in
  let traced_op order () =
    let op = untraced_op order () in
    let reads, dt =
      cpu_time (fun () ->
          List.map (fun (name, w) -> with_kernel name (fun () -> traced_read st w)) order)
    in
    reenacted := dt :: !reenacted;
    { op with ok = op.ok && same order (List.map read_digests reads) }
  in
  let ops_per_round = 10 in
  let round op i =
    List.init ops_per_round (fun j ->
        op (shuffled opts ((i * ops_per_round) + j) workloads))
  in
  let phase_seconds = if opts.trace then opts.seconds /. 2.0 else opts.seconds in
  (* The ops take ~3 ms, so an untraced run pairs a host sample with
     each (see Common.run_phase); a traced run's per-layer times are
     scaled by the run's host factor, as on the other workloads. *)
  let paired = if opts.trace then None else Some 1 in
  let untraced = run_phase ?paired ~seconds:phase_seconds ~round:(round untraced_op) () in
  let info =
    [ ("kernels", J.Arr (List.map (fun n -> J.Str n) names));
      ("schemes", J.Arr (List.map (fun n -> J.Str n) Gpr_backend.Registry.names));
      ("op", J.Str "clear memos, read back every kernel's analyze + per-scheme stats and energy records");
      ("ops_per_round", J.Int ops_per_round) ]
  in
  let finish phases metrics =
    C.set_store None;
    Sim.set_store None;
    rm_rf (Store.dir st);
    { info; phases; extra_failures = 0; metrics;
      prescaled = (if paired = None then [] else phase_metrics) }
  in
  if not opts.trace then
    finish [ untraced ] (end_to_end ~setups ~peak_heap_mb:(heap_mb ()) untraced)
  else begin
    let h0 = Store.hits st and m0 = Store.misses st in
    tracing := true;
    let traced = run_phase ~seconds:phase_seconds ~round:(round traced_op) () in
    tracing := false;
    let rounds = float_of_int traced.rounds in
    (* Hits and misses per round: the real op's reads and the
       re-enacted ones, each of which must hit. *)
    let extra =
      [
        ("store.hits", float_of_int (Store.hits st - h0) /. rounds);
        ("store.misses", float_of_int (Store.misses st - m0) /. rounds);
        ( "core.memo_us",
          (median traced.latencies -. median !reenacted) *. 1e6 );
      ]
    in
    finish [ untraced; traced ] (per_layer ~untraced ~traced extra)
  end
