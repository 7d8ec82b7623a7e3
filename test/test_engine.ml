(* gpr_engine: domain pool, content fingerprints, on-disk store.

   Pool properties are QCheck-driven: deterministic-order map_list
   against List.map at random parallelism, exception propagation, and
   a jobs ≫ domains stress.  Store tests cover round-trips plus the
   silent-recompute paths (missing, truncated, corrupt, wrong
   version).  Fingerprint tests pin the sensitivity contract: any edit
   to kernel, launch, params, data, config or threshold changes the
   key, and rebuilding the same content reproduces it. *)

module Pool = Gpr_engine.Pool
module Fp = Gpr_engine.Fingerprint
module Store = Gpr_engine.Store

(* ---------------------------------------------------------------- *)
(* Pool *)

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

let pool_map_matches_serial =
  qcheck_case "map_list == List.map"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
       let f x = (x * 31) lxor 17 in
       Pool.with_pool ~jobs (fun p -> Pool.map_list p f xs) = List.map f xs)

let pool_order_preserved =
  qcheck_case "ordering at jobs >> domains"
    QCheck.(int_range 2 5)
    (fun jobs ->
       (* 200 tasks on few domains: results must come back in submit
          order whatever the completion interleaving. *)
       let xs = List.init 200 Fun.id in
       Pool.with_pool ~jobs (fun p -> Pool.map_list p (fun x -> x * x) xs)
       = List.map (fun x -> x * x) xs)

exception Boom of int

let test_pool_exception () =
  let r =
    Pool.with_pool ~jobs:3 (fun p ->
        match
          Pool.map_list p
            (fun x -> if x = 7 then raise (Boom x) else x)
            [ 1; 3; 7; 9 ]
        with
        | _ -> `No_exn
        | exception Boom 7 -> `Boom)
  in
  Alcotest.(check bool) "exception re-raised in awaiting domain" true
    (r = `Boom)

let test_pool_exception_serial () =
  (* jobs = 1 runs inline but must still defer the exception to await. *)
  let r =
    Pool.with_pool ~jobs:1 (fun p ->
        match Pool.map_list p (fun _ -> failwith "boom") [ () ] with
        | _ -> `No_exn
        | exception Failure _ -> `Boom)
  in
  Alcotest.(check bool) "serial exception at await" true (r = `Boom)

let test_pool_futures () =
  Pool.with_pool ~jobs:4 (fun p ->
      let futs = List.init 50 (fun i -> Pool.submit p (fun () -> i + 1)) in
      (* Await out of submission order. *)
      let rev = List.rev_map Pool.await futs in
      Alcotest.(check (list int)) "futures independent of await order"
        (List.init 50 (fun i -> 50 - i)) rev)

let test_pool_empty_and_shutdown () =
  Alcotest.(check (list int)) "empty map" []
    (Pool.with_pool ~jobs:4 (fun p -> Pool.map_list p Fun.id []));
  let p = Pool.create ~jobs:3 in
  Alcotest.(check int) "jobs recorded" 3 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_default_jobs () =
  Alcotest.(check bool) "positive" true (Pool.default_jobs () >= 1)

(* At [-j 2] two tasks run at once: each waits (up to a timeout) for
   the other to arrive, which a pool with one computing domain cannot
   satisfy. *)
let test_pool_rendezvous () =
  let arrived = Atomic.make 0 in
  let meet _ =
    Atomic.incr arrived;
    let give_up = Unix.gettimeofday () +. 10.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.001
    done;
    Atomic.get arrived >= 2
  in
  Alcotest.(check (list bool)) "both tasks met" [ true; true ]
    (Pool.with_pool ~jobs:2 (fun p -> Pool.map_list p meet [ 0; 1 ]))

(* ---------------------------------------------------------------- *)
(* Fingerprint *)

let builder_kernel ?(name = "fp") value =
  let open Gpr_isa.Builder in
  let b = create ~name in
  let out = global_buffer b Gpr_isa.Types.S32 "out" in
  let tid = tid_x b in
  let v = iadd b ~$tid (ci value) in
  st b out ~$tid ~$v;
  finish b

let test_fp_kernel_sensitivity () =
  let k1 = builder_kernel 1 and k1' = builder_kernel 1 in
  let k2 = builder_kernel 2 in
  Alcotest.(check bool) "same content, same key" true
    (Fp.equal (Fp.kernel k1) (Fp.kernel k1'));
  Alcotest.(check bool) "edited constant changes key" false
    (Fp.equal (Fp.kernel k1) (Fp.kernel k2))

let test_fp_generated_kernels_distinct () =
  let fps =
    List.init 25 (fun i ->
        Fp.to_hex (Fp.kernel (Gpr_check.Gen.generate (i + 1)).kernel))
  in
  let distinct = List.sort_uniq compare fps in
  Alcotest.(check int) "25 generated kernels, 25 keys" 25
    (List.length distinct)

let test_fp_config_sensitivity () =
  let fermi = Gpr_arch.Config.fermi_gtx480 in
  Alcotest.(check bool) "same config" true
    (Fp.equal (Fp.config fermi) (Fp.config fermi));
  Alcotest.(check bool) "fermi <> volta" false
    (Fp.equal (Fp.config fermi) (Fp.config Gpr_arch.Config.volta_v100));
  Alcotest.(check bool) "one field edit" false
    (Fp.equal (Fp.config fermi)
       (Fp.config { fermi with register_banks = fermi.register_banks * 2 }))

let test_fp_threshold_and_launch () =
  Alcotest.(check bool) "thresholds differ" false
    (Fp.equal
       (Fp.threshold Gpr_quality.Quality.Perfect)
       (Fp.threshold Gpr_quality.Quality.High));
  let l = Gpr_isa.Types.launch_1d ~block:64 ~grid:4 in
  Alcotest.(check bool) "launch differs" false
    (Fp.equal (Fp.launch l)
       (Fp.launch (Gpr_isa.Types.launch_1d ~block:128 ~grid:4)));
  Alcotest.(check bool) "launch equal" true (Fp.equal (Fp.launch l) (Fp.launch l))

let test_fp_of_strings_unambiguous () =
  (* Length prefixing: ["ab";"c"] must not collide with ["a";"bc"]. *)
  Alcotest.(check bool) "no concat collision" false
    (Fp.equal (Fp.of_strings [ "ab"; "c" ]) (Fp.of_strings [ "a"; "bc" ]))

(* A tiny but complete workload; [value] is baked into the kernel body
   so two instances can share a name with different content. *)
let tiny_workload ?(name = "tiny") ?(value = 1.0) ?(fill = 0.0) () =
  let open Gpr_isa.Builder in
  let b = create ~name in
  let out = global_buffer b Gpr_isa.Types.F32 "out" in
  let tid = tid_x b in
  let v = var b Gpr_isa.Types.F32 "v" in
  assign b v (cf value);
  let v2 = fadd b ~$v (cf 0.25) in
  st b out ~$tid ~$v2;
  let kernel = finish b in
  {
    Gpr_workloads.Workload.name;
    group = 2;
    metric = Gpr_quality.Quality.M_deviation;
    kernel;
    launch = Gpr_isa.Types.launch_1d ~block:4 ~grid:1;
    params = [||];
    data = (fun () -> [ ("out", Gpr_exec.Exec.F_data (Array.make 4 fill)) ]);
    shared = [];
    extra_shared_bytes = 0;
    output = Gpr_workloads.Workload.Out_floats "out";
    paper_regs = 0;
  }

let test_fp_workload_sensitivity () =
  let base = tiny_workload () in
  let same = tiny_workload () in
  Alcotest.(check bool) "identical workloads share a key" true
    (Fp.equal (Fp.workload base) (Fp.workload same));
  let differs w = not (Fp.equal (Fp.workload base) (Fp.workload w)) in
  Alcotest.(check bool) "kernel edit" true
    (differs (tiny_workload ~value:2.0 ()));
  Alcotest.(check bool) "same name, different body" true
    (differs (tiny_workload ~name:"tiny" ~value:3.0 ()));
  Alcotest.(check bool) "input data edit" true
    (differs (tiny_workload ~fill:1.0 ()));
  Alcotest.(check bool) "launch edit" true
    (differs { base with launch = Gpr_isa.Types.launch_1d ~block:8 ~grid:1 });
  Alcotest.(check bool) "params edit" true
    (differs { base with params = [| Gpr_exec.Exec.P_int 42 |] });
  Alcotest.(check bool) "metric edit" true
    (differs { base with metric = Gpr_quality.Quality.M_binary })

(* A [share_inputs] workload generates and digests its inputs once; its
   fingerprint is the one the unshared workload computes fresh.  A
   [with] copy carrying other data gets that data's own fingerprint. *)
let test_fp_shared_inputs_memo () =
  let module W = Gpr_workloads.Workload in
  let raw = Gpr_workloads.Rodinia.hotspot in
  let calls = Atomic.make 0 in
  let w =
    W.share_inputs { raw with data = (fun () -> Atomic.incr calls; raw.data ()) }
  in
  let fresh = Fp.to_hex (Fp.workload raw) in
  for _ = 1 to 4 do
    Alcotest.(check string) "memo equals unshared" fresh
      (Fp.to_hex (Fp.workload w));
    ignore (w.data ())
  done;
  Alcotest.(check int) "one generation" 1 (Atomic.get calls);
  let other () =
    List.map
      (function
        | name, Gpr_exec.Exec.F_data a ->
          (name, Gpr_exec.Exec.F_data (Array.map (fun v -> v +. 1.0) a))
        | b -> b)
      (raw.data ())
  in
  let swapped = Fp.to_hex (Fp.workload { w with data = other }) in
  Alcotest.(check string) "data copy digests its own data"
    (Fp.to_hex (Fp.workload { raw with data = other })) swapped;
  Alcotest.(check bool) "data copy differs" false (String.equal fresh swapped);
  let k = (Option.get (Gpr_workloads.Registry.by_name "DWT2D")).kernel in
  let rekernelled = Fp.to_hex (Fp.workload { w with kernel = k }) in
  Alcotest.(check string) "kernel copy keeps the inputs"
    (Fp.to_hex (Fp.workload { raw with kernel = k })) rekernelled;
  Alcotest.(check bool) "kernel copy differs" false
    (String.equal fresh rekernelled);
  Alcotest.(check int) "still one generation" 1 (Atomic.get calls)

(* Two domains fingerprinting a new shared workload at once agree with
   each other and with the unshared fingerprint. *)
let test_fp_shared_inputs_race () =
  let raw = Gpr_workloads.Rodinia.dwt2d in
  let w = Gpr_workloads.Workload.share_inputs raw in
  let racers =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Fp.to_hex (Fp.workload w)))
  in
  let fresh = Fp.to_hex (Fp.workload raw) in
  List.iter
    (fun d -> Alcotest.(check string) "racer" fresh (Domain.join d))
    racers

(* Byte-identity pins: stores written by earlier builds stay valid only
   while every fingerprint keeps its value, so the printer and the input
   plumbing behind them are pinned to values recorded at gpr-engine/6.
   A deliberate change of fingerprint content must bump
   [Fingerprint.version] and re-record these. *)
let registry_pins =
  [ (* name, Fingerprint.workload, Fingerprint.kernel *)
    ("Deferred", "c4f56b62f8b381d7234eae281c2ade3f",
     "dd84ead8f73a3cd062567be3c30ff795");
    ("SSAO", "3b3e0e2896540fca99d9456367c60f37",
     "0d2bd9ee3ac4bbd5ed55177810c38b07");
    ("Elevated", "85848ebfb03d9c1fd4ad67c5c31ad353",
     "df17233f82246397878aa12090ae838e");
    ("Pathtracer", "ebbc9c00f26ff0d2af237e5b9b3e8151",
     "20db716e883953e2aef429d3d3534837");
    ("CFD", "98d38dc73ddff52e0bd6b237c4569fd6",
     "ee45bf4df7943361733d19c023a8f014");
    ("DWT2D", "b06c340ad9b6b2c9bb72b0365d50f618",
     "c3a4200348f02d1115826ac462d5167d");
    ("Hotspot", "cfc7617a185d1fc1601011098083bc8d",
     "d1b4c0431633d1326ea937bf0ef7dd81");
    ("Hotspot3D", "b785e1f1059f75b56344c01745fae4c5",
     "c97acd576afd7260b43843ba45794d97");
    ("IMGVF", "71009b1aea0e7b6420c5746a560674e1",
     "6e5784ca6513ecf0ccd8ea700a484bc5");
    ("GICOV", "d4b0773bb0c47afbc322d593623c8712",
     "dec04826709bb94e69c847e13c9a2c7d");
    ("Hybridsort", "abf7d6d6ee6943d39578027b0648333d",
     "caddb375e8df61c115b286cf3414c76c") ]

let test_fp_registry_pins () =
  Alcotest.(check string) "engine version" "gpr-engine/6" Fp.version;
  List.iter
    (fun (name, workload, kernel) ->
       let w = Option.get (Gpr_workloads.Registry.by_name name) in
       Alcotest.(check string) (name ^ " workload") workload
         (Fp.to_hex (Fp.workload w));
       Alcotest.(check string) (name ^ " kernel") kernel
         (Fp.to_hex (Fp.kernel w.kernel)))
    registry_pins;
  Alcotest.(check int) "every registry kernel pinned"
    (List.length Gpr_workloads.Registry.all) (List.length registry_pins)

(* The printed text of 200 generated kernels and of their SSA and e-SSA
   forms (phi and pi nodes, negative offsets and immediates), digested
   in order.  Generated kernels carry no float immediates; the registry
   pins cover those (~1500 of them). *)
let test_fp_printer_pin () =
  let buf = Buffer.create (1 lsl 20) in
  for seed = 1 to 200 do
    let k = (Gpr_check.Gen.generate seed).kernel in
    let ssa = Gpr_analysis.Ssa.convert k in
    let essa = Gpr_analysis.Essa.convert ssa in
    List.iter
      (fun k -> Buffer.add_string buf (Gpr_isa.Pp.kernel_to_string k))
      [ k; ssa.kernel; essa.kernel ]
  done;
  Alcotest.(check string) "generated kernel text" "929300bd212924d274bf45ff065b5c75"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------------------------------------------------------------- *)
(* Store *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpr-store-test-%d-%d" (Unix.getpid ()) !n)

let entry_file dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
  with
  | [ f ] -> Filename.concat dir f
  | files ->
    Alcotest.failf "expected exactly one entry, found %d" (List.length files)

let test_store_roundtrip () =
  let s = Store.create ~dir:(fresh_dir ()) () in
  let key = Fp.of_strings [ "roundtrip" ] in
  let v = ([ 1; 2; 3 ], [| 1.5; -2.25 |], "hello") in
  Alcotest.(check bool) "cold miss" true (Store.find s ~kind:"t" ~key = None);
  Store.add s ~kind:"t" ~key v;
  Alcotest.(check bool) "hit after add" true
    (Store.find s ~kind:"t" ~key = Some v);
  Alcotest.(check bool) "kind namespaces keys" true
    (Store.find s ~kind:"other" ~key = None);
  Alcotest.(check int) "hits" 1 (Store.hits s);
  Alcotest.(check int) "misses" 2 (Store.misses s)

let test_store_memoize () =
  let s = Store.create ~dir:(fresh_dir ()) () in
  let key = Fp.of_strings [ "memo" ] in
  let calls = ref 0 in
  let f () = incr calls; 40 + 2 in
  Alcotest.(check int) "computed" 42 (Store.memoize (Some s) ~kind:"m" ~key f);
  Alcotest.(check int) "served from disk" 42
    (Store.memoize (Some s) ~kind:"m" ~key f);
  Alcotest.(check int) "one compute" 1 !calls;
  Alcotest.(check int) "no store, always computes" 42
    (Store.memoize None ~kind:"m" ~key f);
  Alcotest.(check int) "two computes" 2 !calls

let corrupt_with dir f =
  let file = entry_file dir in
  let content =
    In_channel.with_open_bin file In_channel.input_all
  in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (f content))

let test_store_truncated () =
  let dir = fresh_dir () in
  let s = Store.create ~dir () in
  let key = Fp.of_strings [ "trunc" ] in
  Store.add s ~kind:"t" ~key [ 1; 2; 3; 4; 5 ];
  corrupt_with dir (fun c -> String.sub c 0 (String.length c / 2));
  Alcotest.(check bool) "truncated entry is a miss" true
    (Store.find s ~kind:"t" ~key = None);
  (* memoize recomputes and repairs the entry *)
  Alcotest.(check (list int)) "recomputed" [ 9 ]
    (Store.memoize (Some s) ~kind:"t" ~key (fun () -> [ 9 ]));
  Alcotest.(check bool) "repaired" true
    (Store.find s ~kind:"t" ~key = Some [ 9 ])

let test_store_corrupt_bytes () =
  let dir = fresh_dir () in
  let s = Store.create ~dir () in
  let key = Fp.of_strings [ "corrupt" ] in
  Store.add s ~kind:"t" ~key [| 3.14; 2.71 |];
  corrupt_with dir (fun c ->
      let b = Bytes.of_string c in
      (* Smash the Marshal payload (past the two header lines). *)
      for i = String.length c - 8 to String.length c - 1 do
        Bytes.set b i '\xff'
      done;
      Bytes.to_string b);
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Store.find s ~kind:"t" ~key = None)

let test_store_version_mismatch () =
  let dir = fresh_dir () in
  let s = Store.create ~dir () in
  let key = Fp.of_strings [ "version" ] in
  Store.add s ~kind:"t" ~key 123;
  corrupt_with dir (fun c ->
      (* Rewrite the version line, keeping the magic. *)
      match String.index_opt c '\n' with
      | None -> c
      | Some i ->
        let rest = String.sub c i (String.length c - i) in
        (match String.index_from_opt c (i + 1) '\n' with
         | None -> c
         | Some j ->
           String.sub c 0 (i + 1) ^ "written-by-older-library"
           ^ String.sub c j (String.length c - j))
        |> fun s' -> ignore rest; s');
  Alcotest.(check bool) "stale-version entry is a miss" true
    (Store.find s ~kind:"t" ~key = None)

let test_warm_stats_byte_identical () =
  (* A warm [Simulate.backend] hit must hand back *exactly* the stats
     the cold run produced, for every registered scheme — including
     spill, whose stats carry the spill counters and spill-port stall
     attribution.  Byte-level Marshal comparison catches any field the
     deserialised record could silently mis-assemble (the reason
     [Fingerprint.version] must move whenever [Sim.stats] changes
     shape). *)
  let w =
    match Gpr_workloads.Registry.by_name "hotspot" with
    | Some w -> w
    | None -> Alcotest.fail "hotspot workload missing"
  in
  let c = Gpr_core.Compress.analyze w in
  let threshold = Gpr_quality.Quality.High in
  let s = Store.create ~dir:(fresh_dir ()) () in
  Gpr_core.Simulate.set_store (Some s);
  Fun.protect
    ~finally:(fun () ->
      Gpr_core.Simulate.set_store None;
      Gpr_core.Simulate.clear_cache ())
    (fun () ->
      List.iter
        (fun b ->
          let id = Gpr_backend.Backend.id b in
          Gpr_core.Simulate.clear_cache ();
          let cold = Gpr_core.Simulate.backend b c threshold in
          (* Drop the in-memory memo so the warm read comes off disk. *)
          Gpr_core.Simulate.clear_cache ();
          let hits0 = Store.hits s and misses0 = Store.misses s in
          let warm = Gpr_core.Simulate.backend b c threshold in
          Alcotest.(check bool) (id ^ ": warm run hit the store") true
            (Store.hits s > hits0);
          Alcotest.(check int) (id ^ ": warm run missed nothing") misses0
            (Store.misses s);
          Alcotest.(check string) (id ^ ": stats byte-identical")
            (Marshal.to_string cold [])
            (Marshal.to_string warm []);
          (* Spot-check that what round-tripped is also well-formed. *)
          Alcotest.(check int) (id ^ ": slot identity survives the store")
            (warm.Gpr_sim.Sim.cycles
             * Gpr_arch.Config.fermi_gtx480.warp_schedulers)
            (Gpr_obs.Stall.total_slots (Gpr_sim.Sim.breakdown warm)))
        Gpr_backend.Registry.all)

let test_store_shared_across_domains () =
  (* One store, many domains: counters stay consistent and every
     memoize returns the right value. *)
  let s = Store.create ~dir:(fresh_dir ()) () in
  let results =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map_list p
          (fun i ->
             let key = Fp.of_strings [ "shard"; string_of_int (i mod 5) ] in
             Store.memoize (Some s) ~kind:"d" ~key (fun () -> i mod 5))
          (List.init 40 Fun.id))
  in
  Alcotest.(check (list int)) "all values correct"
    (List.init 40 (fun i -> i mod 5))
    results;
  Alcotest.(check int) "every lookup counted" 40
    (Store.hits s + Store.misses s)

(* ---------------- bounded stores ---------------- *)

let key_file dir ~kind ~key =
  Filename.concat dir (kind ^ "-" ^ Fp.to_hex key ^ ".bin")

let backdate dir ~kind ~key seconds_ago =
  let t = Unix.gettimeofday () -. seconds_ago in
  Unix.utimes (key_file dir ~kind ~key) t t

let test_store_entry_cap_evicts_oldest () =
  let dir = fresh_dir () in
  let s = Store.create ~max_entries:2 ~dir () in
  let k n = Fp.of_strings [ "cap"; n ] in
  Store.add s ~kind:"t" ~key:(k "a") "a";
  Store.add s ~kind:"t" ~key:(k "b") "b";
  (* Deterministic recency regardless of filesystem timestamp
     granularity: a is clearly the least recently used. *)
  backdate dir ~kind:"t" ~key:(k "a") 100.0;
  backdate dir ~kind:"t" ~key:(k "b") 50.0;
  Store.add s ~kind:"t" ~key:(k "c") "c";
  Alcotest.(check bool) "oldest evicted" true
    (Store.find s ~kind:"t" ~key:(k "a") = None);
  Alcotest.(check bool) "second survives" true
    (Store.find s ~kind:"t" ~key:(k "b") = Some "b");
  Alcotest.(check bool) "newest survives" true
    (Store.find s ~kind:"t" ~key:(k "c") = Some "c");
  Alcotest.(check int) "one eviction" 1 (Store.evictions s)

let test_store_hit_refreshes_recency () =
  let dir = fresh_dir () in
  let s = Store.create ~max_entries:2 ~dir () in
  let k n = Fp.of_strings [ "lru"; n ] in
  Store.add s ~kind:"t" ~key:(k "a") 1;
  Store.add s ~kind:"t" ~key:(k "b") 2;
  backdate dir ~kind:"t" ~key:(k "a") 100.0;
  backdate dir ~kind:"t" ~key:(k "b") 50.0;
  (* Touching a makes b the LRU entry, so the next add evicts b. *)
  Alcotest.(check bool) "a hits" true
    (Store.find s ~kind:"t" ~key:(k "a") = Some 1);
  Store.add s ~kind:"t" ~key:(k "c") 3;
  Alcotest.(check bool) "recently used survives" true
    (Store.find s ~kind:"t" ~key:(k "a") = Some 1);
  Alcotest.(check bool) "stale entry evicted" true
    (Store.find s ~kind:"t" ~key:(k "b") = None);
  Alcotest.(check bool) "newest survives" true
    (Store.find s ~kind:"t" ~key:(k "c") = Some 3)

let test_store_byte_cap_keeps_newest () =
  let dir = fresh_dir () in
  (* Cap far below one entry's size: the newest entry must still be
     served (the cap never evicts what was just written). *)
  let s = Store.create ~max_bytes:1 ~dir () in
  let k n = Fp.of_strings [ "bytes"; n ] in
  let big = String.make 4096 'x' in
  Store.add s ~kind:"t" ~key:(k "a") big;
  Alcotest.(check bool) "lone oversized entry survives" true
    (Store.find s ~kind:"t" ~key:(k "a") = Some big);
  backdate dir ~kind:"t" ~key:(k "a") 100.0;
  Store.add s ~kind:"t" ~key:(k "b") big;
  Alcotest.(check bool) "older entry evicted for bytes" true
    (Store.find s ~kind:"t" ~key:(k "a") = None);
  Alcotest.(check bool) "newest survives byte cap" true
    (Store.find s ~kind:"t" ~key:(k "b") = Some big);
  Alcotest.(check int) "one eviction" 1 (Store.evictions s)

let test_store_unbounded_never_evicts () =
  let s = Store.create ~dir:(fresh_dir ()) () in
  let k n = Fp.of_strings [ "unb"; string_of_int n ] in
  for i = 1 to 20 do Store.add s ~kind:"t" ~key:(k i) i done;
  for i = 1 to 20 do
    Alcotest.(check bool) "entry retained" true
      (Store.find s ~kind:"t" ~key:(k i) = Some i)
  done;
  Alcotest.(check int) "no evictions" 0 (Store.evictions s)

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          pool_map_matches_serial;
          pool_order_preserved;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "serial exception" `Quick
            test_pool_exception_serial;
          Alcotest.test_case "futures" `Quick test_pool_futures;
          Alcotest.test_case "empty + shutdown" `Quick
            test_pool_empty_and_shutdown;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "rendezvous at -j 2" `Quick test_pool_rendezvous;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "kernel sensitivity" `Quick
            test_fp_kernel_sensitivity;
          Alcotest.test_case "generated kernels distinct" `Quick
            test_fp_generated_kernels_distinct;
          Alcotest.test_case "config sensitivity" `Quick
            test_fp_config_sensitivity;
          Alcotest.test_case "threshold + launch" `Quick
            test_fp_threshold_and_launch;
          Alcotest.test_case "no concat ambiguity" `Quick
            test_fp_of_strings_unambiguous;
          Alcotest.test_case "workload sensitivity" `Quick
            test_fp_workload_sensitivity;
          Alcotest.test_case "shared inputs memo" `Quick
            test_fp_shared_inputs_memo;
          Alcotest.test_case "shared inputs race" `Quick
            test_fp_shared_inputs_race;
          Alcotest.test_case "registry pins" `Quick test_fp_registry_pins;
          Alcotest.test_case "printer pin" `Quick test_fp_printer_pin;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "memoize" `Quick test_store_memoize;
          Alcotest.test_case "truncated file" `Quick test_store_truncated;
          Alcotest.test_case "corrupt bytes" `Quick test_store_corrupt_bytes;
          Alcotest.test_case "version mismatch" `Quick
            test_store_version_mismatch;
          Alcotest.test_case "warm stats byte-identical" `Quick
            test_warm_stats_byte_identical;
          Alcotest.test_case "shared across domains" `Quick
            test_store_shared_across_domains;
          Alcotest.test_case "entry cap evicts oldest" `Quick
            test_store_entry_cap_evicts_oldest;
          Alcotest.test_case "hit refreshes recency" `Quick
            test_store_hit_refreshes_recency;
          Alcotest.test_case "byte cap keeps newest" `Quick
            test_store_byte_cap_keeps_newest;
          Alcotest.test_case "unbounded never evicts" `Quick
            test_store_unbounded_never_evicts;
        ] );
    ]
