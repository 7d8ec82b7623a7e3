(* Machinery shared by the benchmark's workloads: the clock, the span
   recorder used by traced runs, timed phases of whole rounds, summary
   statistics and the metric tables. *)

module J = Gpr_obs.Json

(* ---------------- clock ---------------- *)

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* CPU seconds (user + system) of this process.  In-process ops are
   timed with it, so time the host gives to other tenants (scheduling,
   hypervisor steal) does not count against the program. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let t0 = cpu_seconds () in
  let r = f () in
  (r, cpu_seconds () -. t0)

(* The same, plus the CPU time of children this process has waited
   for (a set-up that forks a child to fill a store). *)
let cpu_seconds_with_children () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds a live process has run so far, summed over its threads
   (/proc/PID/task/*/schedstat, nanoseconds on CPU). *)
let process_cpu_seconds pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let path = Filename.concat (Filename.concat dir tid) "schedstat" in
      match In_channel.with_open_text path input_line with
      | line -> acc +. (Scanf.sscanf line "%f" Fun.id *. 1e-9)
      | exception (Sys_error _ | End_of_file | Scanf.Scan_failure _) -> acc)
    0.0 (Sys.readdir dir)

(* ---------------- host speed ---------------- *)

(* On a shared VM the speed of the same op drifts by 15-30% over
   seconds to minutes, in CPU time as much as in wall time.  A fixed
   reference computation (allocation, sorting, hashing, float loops),
   timed in CPU time and interleaved with the measured work, samples
   that drift.  Time metrics are reported scaled by [host_factor]: as
   they would read with the reference at its nominal time.  Never change
   [reference] or [reference_nominal_s]: every later figure is relative
   to them. *)

(* CPU seconds of one [reference] on the 2-vCPU x86-64 VM the benchmark
   was defined on. *)
let reference_nominal_s = 0.023

(* Allocation-light: its short-lived lists die in the minor heap and
   its tables are allocated once, so it adds nothing to the workloads'
   peak heap. *)
let reference_table : (int, int) Hashtbl.t = Hashtbl.create 4096
let reference_array = Array.init 10_000 (fun i -> float_of_int (i * 7 mod 1013))

let reference () =
  let st = Random.State.make [| 42 |] in
  for i = 1 to 300 do
    List.sort compare (List.init 200 (fun _ -> Random.State.float st 1.0))
    |> List.iteri (fun j x ->
           Hashtbl.replace reference_table (((i * 200) + j) land 4095)
             (Float.to_int (x *. 1e6)))
  done;
  let acc = ref 0.0 in
  for _ = 1 to 200 do
    Array.iter (fun x -> acc := !acc +. sqrt x) reference_array
  done;
  ignore (Sys.opaque_identity !acc)

let host_samples : float list ref = ref []

let sample_host () =
  let (), dt = cpu_time reference in
  host_samples := dt :: !host_samples

(* A 1/50 slice of [reference] (6 sorts, 4 float passes), for phases
   that pair host samples with their ops (see [run_phase]). *)
let reference_slice () =
  let st = Random.State.make [| 42 |] in
  for i = 1 to 6 do
    List.sort compare (List.init 200 (fun _ -> Random.State.float st 1.0))
    |> List.iteri (fun j x ->
           Hashtbl.replace reference_table (((i * 200) + j) land 4095)
             (Float.to_int (x *. 1e6)))
  done;
  let acc = ref 0.0 in
  for _ = 1 to 4 do
    Array.iter (fun x -> acc := !acc +. sqrt x) reference_array
  done;
  ignore (Sys.opaque_identity !acc)

let slice_nominal_s = reference_nominal_s /. 50.0

(* A paired op is scaled by the median of the slices within this many
   places of its own. *)
let paired_window = 5

(* Reported time = measured time x factor; a rate is divided by it. *)
let host_factor () =
  if !host_samples = [] then sample_host ();
  reference_nominal_s /. Gpr_util.Stats.mean !host_samples

(* Op seconds between two host samples in a phase. *)
let host_sample_every_s = 0.4

(* ---------------- run options ---------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test size: fewer kernels, one set-up, one round *)
  gpr : string;  (** the [gpr] executable the serve workload spawns *)
  expected : J.t;  (** expected outputs (expected.json) *)
  work_dir : string;  (** working directory inside the checkout *)
}

(* Independent deterministic streams per purpose, all from the seed. *)
let rng opts salt = Gpr_util.Rng.create ((opts.seed * 1_000_003) + salt + 1)

let shuffled opts salt xs =
  let a = Array.of_list xs in
  Gpr_util.Rng.shuffle (rng opts salt) a;
  Array.to_list a

(* ---------------- statistics ---------------- *)

(* [p] in [0, 1]; Gpr_util.Stats.percentile takes [0, 100]. *)
let percentile xs p = Gpr_util.Stats.percentile xs (p *. 100.0)
let median xs = percentile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------- spans ---------------- *)

(* A traced run wraps each call into a layer's public function in
   [span layer f].  Self time and minor-heap words exclude nested spans,
   and are kept per (kernel, layer) for the cold-cost table.  When
   tracing is off, [span] is a plain call. *)

type cell = {
  mutable self_s : float;
  mutable words : float;
  mutable calls : int;
  mutable samples : float list;  (** per-call self seconds *)
}

let tracing = ref false
let current_kernel = ref "-"
let cells : (string * string, cell) Hashtbl.t = Hashtbl.create 64
let open_spans : (float ref * float ref) list ref = ref []

let cell kernel layer =
  match Hashtbl.find_opt cells (kernel, layer) with
  | Some c -> c
  | None ->
    let c = { self_s = 0.0; words = 0.0; calls = 0; samples = [] } in
    Hashtbl.replace cells (kernel, layer) c;
    c

let span layer f =
  if not !tracing then f ()
  else begin
    let child_s = ref 0.0 and child_w = ref 0.0 in
    open_spans := (child_s, child_w) :: !open_spans;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      let dt = since t0 in
      let dw = Gc.minor_words () -. w0 in
      (match !open_spans with
       | _ :: rest -> open_spans := rest
       | [] -> ());
      (match !open_spans with
       | (ps, pw) :: _ ->
         ps := !ps +. dt;
         pw := !pw +. dw
       | [] -> ());
      let c = cell !current_kernel layer in
      let self = dt -. !child_s in
      c.self_s <- c.self_s +. self;
      c.words <- c.words +. dw -. !child_w;
      c.calls <- c.calls + 1;
      c.samples <- self :: c.samples
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let with_kernel name f =
  let saved = !current_kernel in
  current_kernel := name;
  Fun.protect ~finally:(fun () -> current_kernel := saved) f

(* Totals of one layer over every kernel. *)
let layer_self_s layer =
  Hashtbl.fold
    (fun (_, l) c acc -> if l = layer then acc +. c.self_s else acc)
    cells 0.0

let layer_samples layer =
  Hashtbl.fold
    (fun (_, l) c acc -> if l = layer then c.samples @ acc else acc)
    cells []

let median_sample_us layer =
  match layer_samples layer with
  | [] -> 0.0
  | xs -> median xs *. 1e6

(* ---------------- program counters ---------------- *)

(* The library's own aggregate counters (one atomic add per executor,
   allocator or simulator run).  They are on in every run, traced or
   not, so deterministic counts can be compared across the two. *)
let counter name = Gpr_obs.Metrics.value (Gpr_obs.Metrics.counter name)

let thread_instrs () = counter "exec.thread_instructions"
let alloc_runs () = counter "alloc.runs"

(* ---------------- phases ---------------- *)

(* A phase runs whole rounds until [seconds] of wall time have passed
   (at least one round), or exactly [rounds] rounds when given.  A round
   is the workload's fixed set of ops in a seeded order, so every phase
   measures the same op mix whatever its seed or length.  Each op times
   only its own body and reports whether its outputs checked out.

   A phase [paired] with n times a slice of the reference before every
   n-th op and reports each op at the host's nominal speed: scaled by
   [slice_nominal_s] over the median of the slices around its own.  On
   short ops the host's speed moves within a run faster than
   [host_sample_every_s]: a slow second then sets the run's p99 while
   the run's mean speed sets the scale. *)

type op = { latency : float; ok : bool }

type phase = {
  mutable latencies : float list;
  mutable round_rates : float list;  (** ops per op-second, per round *)
  mutable op_seconds : float;
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;
  mutable minor_words : float;
  mutable host : float list;  (** host samples taken during the phase *)
}

let run_phase ?(settle = false) ?paired ?rounds ~seconds
    ~(round : int -> (unit -> op) list) () =
  let p =
    { latencies = []; round_rates = []; op_seconds = 0.0; attempted = 0;
      failed = 0; rounds = 0; minor_words = 0.0; host = [] }
  in
  let before = !host_samples in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let since_sample = ref 0.0 in
  (* Per op: its round, its latency if it checked out, the index of
     the slice before it; and the slices' times. *)
  let recs = ref [] and slices = ref [] and nslices = ref 0 in
  let continue () =
    match rounds with
    | Some n -> p.rounds < max 1 n
    | None -> p.rounds = 0 || since t0 < seconds
  in
  while continue () do
    let ops = round p.rounds in
    List.iter
      (fun op ->
        (* Long ops start right after a full collection (a compaction
           where the runtime has one), so the GC work an op pays for
           depends less on what ran before it. *)
        if settle then Gc.compact ();
        Option.iter
          (fun every ->
            if p.attempted mod every = 0 then begin
              slices := snd (cpu_time reference_slice) :: !slices;
              incr nslices
            end)
          paired;
        let r =
          try op ()
          with e ->
            prerr_endline ("op failed: " ^ Printexc.to_string e);
            { latency = 0.0; ok = false }
        in
        p.attempted <- p.attempted + 1;
        if not r.ok then p.failed <- p.failed + 1;
        recs := (p.rounds, (if r.ok then Some r.latency else None), !nslices - 1) :: !recs;
        since_sample := !since_sample +. r.latency;
        if !since_sample >= host_sample_every_s then begin
          since_sample := 0.0;
          sample_host ()
        end)
      ops;
    p.rounds <- p.rounds + 1
  done;
  let slices = Array.of_list (List.rev !slices) in
  let scale i =
    if i < 0 then 1.0
    else begin
      let lo = max 0 (i - paired_window)
      and hi = min (Array.length slices - 1) (i + paired_window) in
      slice_nominal_s /. median (Array.to_list (Array.sub slices lo (hi - lo + 1)))
    end
  in
  let per_round = Array.make p.rounds (0, 0.0) in
  List.iter
    (fun (r, latency, slice) ->
      Option.iter
        (fun l ->
          let l = l *. scale slice in
          p.latencies <- l :: p.latencies;
          let n, secs = per_round.(r) in
          per_round.(r) <- (n + 1, secs +. l))
        latency)
    (List.rev !recs);
  Array.iter
    (fun (n, secs) ->
      p.op_seconds <- p.op_seconds +. secs;
      if n > 0 then p.round_rates <- (float_of_int n /. secs) :: p.round_rates)
    per_round;
  p.minor_words <- Gc.minor_words () -. w0;
  let taken = List.length !host_samples - List.length before in
  p.host <- List.filteri (fun i _ -> i < taken) !host_samples;
  p

(* ---------------- metric tables ---------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Set-up is repeated [setup_samples] times (once at smoke size) and
   the median of its CPU seconds reported: this process's, those of
   the children it waited for, and [extra_cpu state] for any it left
   running (the serve daemon).  The last state is kept, earlier ones
   are handed to [teardown]. *)
let setup_samples = 5

let timed_setups ?(teardown = ignore) ?(extra_cpu = fun _ -> 0.0) opts f =
  let rec go i acc state =
    if i = 0 then (Option.get state, List.rev acc)
    else begin
      Option.iter teardown state;
      Gc.compact ();
      let t0 = cpu_seconds_with_children () in
      let s = f () in
      let dt = cpu_seconds_with_children () -. t0 +. extra_cpu s in
      sample_host ();
      go (i - 1) (dt :: acc) (Some s)
    end
  in
  go (if opts.tiny then 1 else setup_samples) [] None

(* What a workload hands back: run parameters and tables for the
   output, its phases (for the attempted/failed totals), the metrics
   this run reports, and any failure outside the ops. *)
type outcome = {
  info : (string * J.t) list;
  phases : phase list;
  metrics : metric list;
  extra_failures : int;
  prescaled : string list;
      (** metrics already at the host's nominal speed (from a paired
          phase); every other time and rate is scaled by [host_factor] *)
}

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The end-to-end metrics [end_to_end] takes from the phase: already
   at the host's nominal speed when the phase is paired. *)
let phase_metrics = [ "ops_per_s"; "p50_ms"; "p99_ms" ]

(* End-to-end metrics shared by every workload, from an untraced
   phase.  [peak_heap_mb] is supplied by the workload (the serve
   workload measures its daemon, not itself). *)
let end_to_end ~setups ~peak_heap_mb (p : phase) =
  [
    m "setup_s" "s" (median setups);
    m "ops_per_s" "1/s" (median p.round_rates);
    m "p50_ms" "ms" (percentile p.latencies 0.5 *. 1e3);
    m "p99_ms" "ms" (percentile p.latencies 0.99 *. 1e3);
    m "peak_heap_mb" "MiB" peak_heap_mb;
  ]

(* Every per-layer metric, in BENCHMARK.json order.  A layer a workload
   never calls reads 0. *)
let per_layer_names =
  [
    ("exec.quantized_run_s", "s"); ("exec.reference_s", "s");
    ("exec.trace_s", "s"); ("exec.thread_instrs", "count");
    ("exec.ns_per_thread_instr", "ns"); ("quality.score_s", "s");
    ("precision.evals", "count"); ("precision.search_s", "s");
    ("analysis.width_s", "s"); ("alloc.run_s", "s");
    ("alloc.runs", "count"); ("backend.analyze_s", "s");
    ("sim.run_s", "s"); ("sim.cycles", "count"); ("sim.ns_per_cycle", "ns");
    ("sim_multi.run_s", "s"); ("sim_multi.cycles", "count");
    ("sim_multi.ns_per_cycle", "ns"); ("sim_cycles_per_s", "1/s");
    ("ipc_gain_pct", "%"); ("lint.run_s", "s");
    ("work.run_ms.estimate", "ms"); ("work.run_ms.plan", "ms");
    ("work.run_ms.lint", "ms"); ("work.run_ms.profile", "ms");
    ("serve.hit_ms", "ms"); ("serve.transport_ms", "ms");
    ("protocol.codec_us", "us"); ("json.encode_us", "us");
    ("serve.cache_hit_frac", "fraction"); ("serve.coalesced", "count");
    ("serve.queue_depth_max", "count"); ("store.find_us", "us");
    ("store.add_us", "us"); ("store.hits", "count");
    ("store.misses", "count"); ("fingerprint.workload_us", "us");
    ("core.memo_us", "us"); ("gc.minor_words_per_op", "words");
    ("error_frac", "fraction"); ("trace.overhead_pct", "%");
  ]

(* Tracing overhead: how much slower the traced phase ran its rounds
   than the untraced one, each half's rate taken at the host speed its
   own host samples saw.  Only meaningful where the traced phase times
   the same work with spans inside it (tune, simulate). *)
let trace_overhead_pct ~(untraced : phase) ~(traced : phase) =
  let at_host (p : phase) =
    let rate = median p.round_rates in
    if p.host = [] then rate else rate *. Gpr_util.Stats.mean p.host
  in
  100.0 *. (ratio (at_host untraced) (at_host traced) -. 1.0)

(* Per-layer values every traced run shares: span self times per round.
   The workload adds its own via [extra]; names it leaves out read 0,
   and the caller fills in [error_frac]. *)
let per_layer ~(untraced : phase) ~(traced : phase) extra =
  let rounds = float_of_int (max 1 traced.rounds) in
  let per_round layer = layer_self_s layer /. rounds in
  let common =
    [
      ("exec.quantized_run_s", per_round "exec.quantized_run");
      ("exec.reference_s", per_round "exec.reference");
      ("exec.trace_s", per_round "exec.trace");
      ("quality.score_s", per_round "quality.score");
      ("precision.search_s", per_round "precision.tune");
      ("analysis.width_s", per_round "analysis.width");
      ("alloc.run_s", per_round "alloc.run");
      ("backend.analyze_s", per_round "backend.analyze");
      ("sim.run_s", per_round "sim.run");
      ("sim_multi.run_s", per_round "sim_multi.run");
      ("lint.run_s", per_round "lint.run");
      ("store.find_us", median_sample_us "store.find");
      ("store.add_us", median_sample_us "store.add");
      ("fingerprint.workload_us", median_sample_us "fingerprint.workload");
      ( "gc.minor_words_per_op",
        ratio untraced.minor_words (float_of_int (max 1 untraced.attempted)) );
    ]
  in
  List.map
    (fun (name, unit) ->
      let value =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name common) ~default:0.0
      in
      m name unit value)
    per_layer_names

(* The kernel x layer cold-cost table of a traced phase: self seconds,
   minor words and calls per op of that kernel (one per round). *)
let kernel_layer_table ~rounds =
  let n = float_of_int (max 1 rounds) in
  let rows =
    Hashtbl.fold (fun (k, l) c acc -> (k, l, c) :: acc) cells []
    |> List.sort compare
  in
  J.Arr
    (List.map
       (fun (k, l, c) ->
         J.Obj
           [
             ("kernel", J.Str k);
             ("layer", J.Str l);
             ("seconds", J.number (c.self_s /. n));
             ("minor_words", J.number (c.words /. n));
             ("calls", J.number (float_of_int c.calls /. n));
           ])
       rows)

(* ---------------- files ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let n = ref 0 in
  fun opts tag ->
    incr n;
    let d = Filename.concat opts.work_dir (Printf.sprintf "%s-%d" tag !n) in
    rm_rf d;
    d

(* ---------------- expected outputs ---------------- *)

let expected_section opts name =
  Option.value (J.member name opts.expected) ~default:(J.Obj [])

let kernel_named name =
  match Gpr_workloads.Registry.by_name name with
  | Some w -> w
  | None -> failwith ("perfbench: no registry kernel " ^ name)
