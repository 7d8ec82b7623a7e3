(* Workload [serve]: one closed-loop connection to a spawned
   `gpr serve -j 1` daemon, sending the request mix of the repository's
   serve load generator (Gpr_serve.Load.default_cfg, the mix of
   `gpr bench --serve`): estimate and profile for each of its schemes,
   plan and lint, over Hotspot and DWT2D, with 80% exact duplicates
   (response-cache hits) and the rest uniquely tagged, so the daemon
   recomputes them through Work.run.  Every served payload must be
   byte-identical to this process's own Work.run of the same request.

   A round sends every template once uniquely tagged (a miss) and
   [hits_per_miss] times untagged (hits), in a seeded order: the 80/20
   share holds exactly in every round, whatever the seed.  Load.run
   draws each request's template and duplicate flag at random, so the
   number of misses of each template, and with it the stream's cost,
   moved with the seed.

   Set-up fills a result store in a forked child, starts the daemon on
   that store and warms it with every template once, untagged, so each
   is cached.  A miss then costs the daemon milliseconds from its
   memos, never a tuner run, and its memory high-water mark covers
   serving alone.

   The untraced phase is a fixed number of rounds (the daemon's
   response cache grows with every miss, so its high-water mark needs a
   fixed stream).  The traced phase sends the same rounds and replays
   each miss in-process to split client latency into Work.run,
   Lint.lint, JSON encoding and the rest (transport, framing,
   queueing). *)

open Common
module P = Gpr_serve.Protocol
module Work = Gpr_serve.Work
module Load = Gpr_serve.Load
module Client = Gpr_serve.Client
module C = Gpr_core.Compress
module Sim = Gpr_core.Simulate

(* Load's default mix over the tune kernels. *)
let mix opts = { Load.default_cfg with Load.kernels = Tune_wl.kernels opts }

(* Untagged requests per uniquely tagged one: 4 for a duplicate ratio
   of 0.8. *)
let hits_per_miss (cfg : Load.cfg) =
  Float.to_int (Float.round (cfg.Load.duplicate_ratio /. (1.0 -. cfg.Load.duplicate_ratio)))

(* Nominal round rate: the untraced phase is sized so it takes about
   --seconds on a 2-vCPU x86-64 VM. *)
let rounds_per_second = 8.0

(* Load's templates (load.mli does not export them). *)
let templates (cfg : Load.cfg) =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun verb ->
          match verb with
          | "estimate" | "profile" ->
            List.map (fun b -> P.request ~id:1 ~kernel:k ~backend:b verb) cfg.Load.backends
          | _ -> [ P.request ~id:1 ~kernel:k verb ])
        cfg.Load.verbs)
    cfg.Load.kernels

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; dir : string; socket : string }

let live : int list ref = ref []
let started = ref 0

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* The result store the daemon starts from: Compress records and
   per-scheme stats for the mix, computed in a forked child. *)
let fill_store dir (cfg : Load.cfg) =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let st = Gpr_engine.Store.create ~dir () in
        C.set_store (Some st);
        Sim.set_store (Some st);
        List.iter
          (fun t -> Result.iter (fun w -> ignore (Work.run w)) (Work.resolve t))
          (templates cfg);
        0
      with e ->
        prerr_endline ("serve: store fill failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    if snd (Unix.waitpid [] pid) <> Unix.WEXITED 0 then
      failwith "serve: the store fill failed"

(* Starts a daemon on the filled store in [dir] and waits until it
   answers. *)
let start opts dir =
  incr started;
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" !started) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process opts.gpr
      [| opts.gpr; "serve"; "--socket"; socket; "-j"; "1"; "--cache-dir";
         Filename.concat dir "store" |]
      null null null
  in
  Unix.close null;
  live := pid :: !live;
  match Client.connect ~retries:1500 socket with
  | Ok c ->
    Client.close c;
    { pid; dir; socket }
  | Error e -> failwith ("gpr serve did not come up: " ^ e)

(* A fresh connection for [f]. *)
let with_client d f =
  match Client.connect d.socket with
  | Error e -> failwith ("serve: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Graceful shutdown: SIGTERM, then the daemon must exit 0 and remove
   its socket. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (fun p -> p <> d.pid) !live;
  status = Unix.WEXITED 0 && not (Sys.file_exists d.socket)

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ---------------- requests ---------------- *)

let stats d id =
  with_client d @@ fun c ->
  match Client.call ~timeout_s:30.0 c (P.request ~id "stats") with
  | Ok { P.s_result = Ok j; _ } -> j
  | _ -> failwith "serve: stats request failed"

let int_field j name =
  match J.member name j with Some (J.Int n) -> n | _ -> 0

(* Highest queue depth the daemon's histogram has seen. *)
let queue_depth_max j =
  let hist =
    match J.member "metrics" j with
    | Some (J.Arr ms) ->
      List.find_opt (fun m -> J.member "name" m = Some (J.Str "serve.queue.depth")) ms
    | _ -> None
  in
  match Option.bind hist (J.member "buckets") with
  | Some (J.Arr bs) ->
    List.fold_left
      (fun acc b ->
        match (J.member "le" b, J.member "count" b) with
        | Some (J.Int le), Some (J.Int c) when c > 0 -> max acc le
        | _ -> acc)
      0 bs
  | _ -> 0

type samples = {
  work_ms : (string, float list) Hashtbl.t;  (** by verb *)
  mutable encode_us : float list;
  mutable codec_us : float list;
  mutable transport_ms : float list;
  mutable hit_ms : float list;
}

(* Frame codec cost of one exchange: the request encoded and the
   response decoded, as client and server each do. *)
let codec_s (req : P.request) (resp : P.response) =
  let frame = J.to_string (P.response_to_json resp) in
  snd
    (time (fun () ->
         ignore (P.encode_frame (J.to_string (P.request_to_json req)));
         match J.parse frame with
         | Ok j -> ignore (P.response_of_json j)
         | Error _ -> ()))

(* A traced miss, replayed in this process: Lint.lint (lint requests),
   Work.run and the payload's JSON encoding, each timed.  Returns the
   payload as this process encodes it. *)
let replay_miss sm (req : P.request) latency =
  match Work.resolve req with
  | Error _ -> None
  | Ok item ->
    (match item with
     | Work.Lint_registry w ->
       ignore
         (span "lint.run" (fun () ->
              Gpr_lint.Lint.lint ~buffer_len:(Work.buffer_len_of_workload w)
                w.Gpr_workloads.Workload.kernel
                ~launch:w.Gpr_workloads.Workload.launch))
     | _ -> ());
    let j, dt = time (fun () -> Work.run item) in
    let s, enc = time (fun () -> J.to_string j) in
    let prev = Option.value (Hashtbl.find_opt sm.work_ms req.P.q_verb) ~default:[] in
    Hashtbl.replace sm.work_ms req.P.q_verb ((dt *. 1e3) :: prev);
    sm.encode_us <- (enc *. 1e6) :: sm.encode_us;
    sm.transport_ms <- ((latency -. dt) *. 1e3) :: sm.transport_ms;
    Some s

(* One request of template [i], timed from sending it to decoding the
   answer.  Its payload must equal [expected.(i)] byte for byte.  A
   traced op also records the split of its latency into [sm]. *)
let request_op client ~expected ?sm ~hit_us next_id i (t : P.request) tag () =
  let req = { t with P.q_id = next_id (); q_tag = tag } in
  let resp, latency = time (fun () -> Client.call ~timeout_s:120.0 client req) in
  match resp with
  | Ok ({ P.s_result = Ok payload; _ } as r) when r.P.s_id = req.P.q_id ->
    let served = J.to_string payload in
    let same = served = expected.(i) in
    if not same then
      Printf.eprintf "serve %s: served payload differs from Work.run\n%!" t.P.q_verb;
    if tag = "" then hit_us.(i) <- (latency *. 1e6) :: hit_us.(i);
    let same =
      match sm with
      | None -> same
      | Some sm ->
        sm.codec_us <- (codec_s req r *. 1e6) :: sm.codec_us;
        if tag = "" then begin
          sm.hit_ms <- (latency *. 1e3) :: sm.hit_ms;
          same
        end
        else same && replay_miss sm req latency = Some served
    in
    { latency; ok = same }
  | Ok _ | Error _ ->
    Printf.eprintf "serve %s: request failed\n%!" t.P.q_verb;
    { latency; ok = false }

(* ---------------- the workload ---------------- *)

let run opts =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg = mix opts in
  let tmpl = Array.of_list (templates cfg) in
  (* Every template served once untagged, so it is cached. *)
  let start_warm dir =
    let d = start opts dir in
    with_client d (fun c ->
        Array.iteri
          (fun i t ->
            match Client.call ~timeout_s:120.0 c { t with P.q_id = i + 1 } with
            | Ok { P.s_result = Ok _; _ } -> ()
            | _ -> failwith ("serve: warm-up " ^ t.P.q_verb ^ " failed"))
          tmpl);
    d
  in
  let setup () =
    let dir = fresh_dir opts "serve" in
    mkdir_p dir;
    fill_store (Filename.concat dir "store") cfg;
    (dir, start_warm dir)
  in
  let teardown (dir, d) =
    let clean = stop d in
    rm_rf dir;
    if not clean then failwith "gpr serve did not shut down cleanly"
  in
  let (dir, d), setups =
    timed_setups ~teardown ~extra_cpu:(fun (_, d) -> process_cpu_seconds d.pid) opts setup
  in
  (* The expected payloads: this process's own Work.run of every
     template, on the same store. *)
  let st = Gpr_engine.Store.create ~dir:(Filename.concat dir "store") () in
  C.set_store (Some st);
  Sim.set_store (Some st);
  let expected =
    Array.map
      (fun t ->
        match Work.resolve t with
        | Ok w -> J.to_string (Work.run w)
        | Error e -> failwith ("serve: " ^ e.P.e_message))
      tmpl
  in
  let phase_seconds = if opts.trace then opts.seconds /. 2.0 else opts.seconds in
  let rounds = Float.to_int (rounds_per_second *. phase_seconds) in
  let next_id =
    let n = ref 1_000_000 in
    fun () ->
      incr n;
      !n
  in
  let hit_us = Array.make (Array.length tmpl) [] in
  let round ?sm client r =
    let ops =
      List.concat
        (List.mapi
           (fun i t ->
             (i, t, Printf.sprintf "u%d" (next_id ()))
             :: List.init (hits_per_miss cfg) (fun _ -> (i, t, "")))
           (Array.to_list tmpl))
    in
    List.map
      (fun (i, t, tag) -> request_op client ~expected ?sm ~hit_us next_id i t tag)
      (shuffled opts (1000 + r) ops)
  in
  let before = stats d (next_id ()) in
  (* An untraced run pairs a host sample with each round (see
     Common.run_phase): one before every request would leave each
     hit's caches cold. *)
  let paired =
    if opts.trace then None else Some (Array.length tmpl * (1 + hits_per_miss cfg))
  in
  let untraced =
    with_client d (fun client ->
        run_phase ?paired ~rounds ~seconds:phase_seconds ~round:(round client) ())
  in
  let peak = vm_hwm_mb d.pid in
  let after = stats d (next_id ()) in
  let info =
    [ ("kernels", J.Arr (List.map (fun k -> J.Str k) cfg.Load.kernels));
      ("backends", J.Arr (List.map (fun b -> J.Str b) cfg.Load.backends));
      ("verbs", J.Arr (List.map (fun v -> J.Str v) cfg.Load.verbs));
      ("templates", J.Int (Array.length tmpl));
      ("duplicate_ratio", J.Float cfg.Load.duplicate_ratio);
      ("round", J.Str (Printf.sprintf "each template once tagged, %d times untagged" (hits_per_miss cfg)));
      ("rounds", J.Int untraced.rounds);
      ("requests", J.Int untraced.attempted);
      ("daemon", J.Str "gpr serve -j 1 on a filled store, one client connection, closed loop");
      ( "hit_us_by_template",
        J.Arr
          (Array.to_list
             (Array.mapi
                (fun i t ->
                  J.Obj
                    [ ("verb", J.Str t.P.q_verb);
                      ("kernel", J.Str (Option.value t.P.q_kernel ~default:""));
                      ("backend", J.Str (Option.value t.P.q_backend ~default:""));
                      ("median", J.number (if hit_us.(i) = [] then 0.0 else median hit_us.(i))) ])
                tmpl)) ) ]
  in
  let finish phases metrics =
    let clean = stop d in
    if not clean then prerr_endline "serve: gpr serve did not shut down cleanly";
    rm_rf dir;
    C.set_store None;
    Sim.set_store None;
    { info; phases; extra_failures = (if clean then 0 else 1); metrics;
      prescaled = (if paired = None then [] else phase_metrics) }
  in
  if not opts.trace then
    finish [ untraced ] (end_to_end ~setups ~peak_heap_mb:peak untraced)
  else begin
    let sm =
      { work_ms = Hashtbl.create 4; encode_us = []; codec_us = []; transport_ms = [];
        hit_ms = [] }
    in
    tracing := true;
    let traced =
      with_client d (fun client ->
          run_phase ~rounds ~seconds:phase_seconds ~round:(round ~sm client) ())
    in
    tracing := false;
    let delta f = float_of_int (int_field after f - int_field before f) in
    let med xs = if xs = [] then 0.0 else median xs in
    let verb v = med (Option.value (Hashtbl.find_opt sm.work_ms v) ~default:[]) in
    let extra =
      [
        ("work.run_ms.estimate", verb "estimate");
        ("work.run_ms.plan", verb "plan");
        ("work.run_ms.lint", verb "lint");
        ("work.run_ms.profile", verb "profile");
        ("serve.hit_ms", med sm.hit_ms);
        ("serve.transport_ms", med sm.transport_ms);
        ("protocol.codec_us", med sm.codec_us);
        ("json.encode_us", med sm.encode_us);
        ( "serve.cache_hit_frac",
          ratio (delta "cache_hits" +. delta "coalesced")
            (float_of_int untraced.attempted) );
        ("serve.coalesced", delta "coalesced");
        ("serve.queue_depth_max", float_of_int (queue_depth_max after));
      ]
    in
    finish [ untraced; traced ] (per_layer ~untraced ~traced extra)
  end
