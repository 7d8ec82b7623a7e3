(* gpr_backend: registry lookups, scheme analyses on a registry kernel
   (pressure/spill invariants, sim-mode mapping), fingerprint
   disjointness, and the memoisation regression: two schemes must never
   share an on-disk cache entry for the same workload, even when their
   computed stats happen to coincide. *)

module B = Gpr_backend.Backend
module Reg = Gpr_backend.Registry
module Fp = Gpr_engine.Fingerprint
module Store = Gpr_engine.Store
module Alloc = Gpr_alloc.Alloc
module L = Gpr_analysis.Liveness
module Sim = Gpr_sim.Sim
module Q = Gpr_quality.Quality
module Compress = Gpr_core.Compress
module Simulate = Gpr_core.Simulate

(* ---------------------------------------------------------------- *)
(* Registry *)

let test_registry () =
  Alcotest.(check (list string))
    "registered schemes"
    [ "baseline"; "slice"; "rrcd"; "spill" ]
    Reg.names;
  Alcotest.(check bool) "case-insensitive find" true (Reg.find "SPILL" <> None);
  Alcotest.(check bool) "unknown is None" true (Reg.find "bogus" = None);
  Alcotest.(check bool) "find_exn raises" true
    (match Reg.find_exn "bogus" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_scheme_fingerprints_distinct () =
  let fps = List.map (fun b -> Fp.to_hex (B.fingerprint b)) Reg.all in
  Alcotest.(check int) "one key per scheme"
    (List.length Reg.all)
    (List.length (List.sort_uniq compare fps))

(* ---------------------------------------------------------------- *)
(* Scheme analyses on a registry kernel *)

let hotspot = Option.get (Gpr_workloads.Registry.by_name "Hotspot")

let analyze name =
  let b = Reg.find_exn name in
  let module S = (val b : B.Scheme) in
  let width =
    Gpr_analysis.Width.analyze hotspot.kernel ~launch:hotspot.launch
  in
  (b, S.analyze ~kernel:hotspot.kernel ~width ~precision:None)

let test_baseline_scheme () =
  let _, res = analyze "baseline" in
  let base = Alloc.baseline hotspot.kernel in
  Alcotest.(check int) "baseline pressure" base.Alloc.pressure
    res.B.alloc.Alloc.pressure;
  Alcotest.(check int) "no spill slots" 0 res.B.spill_slots;
  Alcotest.(check int) "no spilled registers" 0 (Hashtbl.length res.B.spilled)

let test_slice_scheme () =
  let _, res = analyze "slice" in
  let base = Alloc.baseline hotspot.kernel in
  Alcotest.(check bool) "narrow ints shrink pressure" true
    (res.B.alloc.Alloc.pressure <= base.Alloc.pressure);
  Alcotest.(check int) "register-only scheme" 0 res.B.spill_slots

let test_spill_scheme () =
  let b, res = analyze "spill" in
  let base = Alloc.baseline hotspot.kernel in
  Alcotest.(check bool) "spilling shrinks pressure" true
    (res.B.alloc.Alloc.pressure < base.Alloc.pressure);
  let n = Hashtbl.length res.B.spilled in
  Alcotest.(check bool) "spilled 1..8 registers" true (n >= 1 && n <= 8);
  Alcotest.(check bool) "slots cover spills, within cap" true
    (res.B.spill_slots >= 1 && res.B.spill_slots <= n);
  Alcotest.(check bool) "spill footprint within 32 B/thread" true
    (B.spill_bytes_per_thread res <= 32);
  (* Every live range is resident XOR spilled. *)
  let live = L.compute hotspot.kernel in
  List.iter
    (fun (v, _, _) ->
      let placed = Alloc.lookup res.B.alloc v <> None in
      let spilled = Hashtbl.mem res.B.spilled v in
      Alcotest.(check bool)
        (Printf.sprintf "%%%d resident xor spilled" v)
        true
        (placed <> spilled))
    (L.intervals live);
  (* Specials are never spilled. *)
  Gpr_isa.Types.(
    List.iter
      (fun (v, _) ->
        Alcotest.(check bool) "special not spilled" false
          (Hashtbl.mem res.B.spilled v))
      hotspot.kernel.k_specials);
  match B.sim_mode b res with
  | Sim.Spill { latency; spilled } ->
    Alcotest.(check bool) "spill latency positive" true (latency > 0);
    Alcotest.(check int) "sim sees the spill set" n (Hashtbl.length spilled)
  | _ -> Alcotest.fail "spill scheme must simulate in Spill mode"

let test_sim_mode_mapping () =
  let mode name =
    let b, res = analyze name in
    B.sim_mode b res
  in
  (match mode "baseline" with
   | Sim.Baseline -> ()
   | _ -> Alcotest.fail "baseline scheme must simulate in Baseline mode");
  match mode "slice" with
  | Sim.Proposed _ -> ()
  | _ -> Alcotest.fail "slice scheme must simulate in Proposed mode"

(* ---------------------------------------------------------------- *)
(* Memoisation: scheme id+version keeps cache entries disjoint *)

let tiny_workload () =
  let open Gpr_isa.Builder in
  let b = create ~name:"tiny-backend" in
  let out = global_buffer b Gpr_isa.Types.F32 "out" in
  let tid = tid_x b in
  let v = var b Gpr_isa.Types.F32 "v" in
  assign b v (cf 1.0);
  let v2 = fadd b ~$v (cf 0.25) in
  st b out ~$tid ~$v2;
  let kernel = finish b in
  {
    Gpr_workloads.Workload.name = "tiny-backend";
    group = 2;
    metric = Gpr_quality.Quality.M_deviation;
    kernel;
    launch = Gpr_isa.Types.launch_1d ~block:4 ~grid:1;
    params = [||];
    data = (fun () -> [ ("out", Gpr_exec.Exec.F_data (Array.make 4 0.0)) ]);
    shared = [];
    extra_shared_bytes = 0;
    output = Gpr_workloads.Workload.Out_floats "out";
    paper_regs = 0;
  }

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpr-backend-test-%d-%d" (Unix.getpid ()) !n)

let test_backends_never_share_cache_entries () =
  let s = Store.create ~dir:(fresh_dir ()) () in
  Simulate.set_store (Some s);
  Fun.protect
    ~finally:(fun () ->
      Simulate.set_store None;
      Simulate.clear_cache ())
    (fun () ->
      let c = Compress.analyze (tiny_workload ()) in
      let b1 = Reg.find_exn "baseline" and b2 = Reg.find_exn "spill" in
      let st1 = Simulate.backend b1 c Q.High in
      Alcotest.(check int) "cold run misses" 1 (Store.misses s);
      (* The second scheme computes identical stats on this kernel (it
         spills nothing), but it must still miss: its key carries its
         own id+version. *)
      let st2 = Simulate.backend b2 c Q.High in
      Alcotest.(check int) "second scheme does not hit first entry" 2
        (Store.misses s);
      Alcotest.(check int) "no cross-scheme hit" 0 (Store.hits s);
      Alcotest.(check bool) "stats coincide on a spill-free kernel" true
        (st1 = st2);
      (* Warm re-runs hit each scheme's own entry. *)
      Simulate.clear_cache ();
      let st1' = Simulate.backend b1 c Q.High in
      Simulate.clear_cache ();
      let st2' = Simulate.backend b2 c Q.High in
      Alcotest.(check int) "per-scheme warm hits" 2 (Store.hits s);
      Alcotest.(check bool) "warm results identical" true
        (st1 = st1' && st2 = st2'))

(* The paper's classic entry points are the registered schemes: a
   [baseline] or [proposed] run and the matching [backend] run share one
   store entry, so a cleared memo answers the second from the store. *)
let test_classic_entries_are_backend_entries () =
  let c = Compress.analyze (tiny_workload ()) in
  let slice = Reg.find_exn "slice" in
  List.iter
    (fun (name, classic, b, th) ->
      let s = Store.create ~dir:(fresh_dir ()) () in
      Simulate.set_store (Some s);
      Fun.protect
        ~finally:(fun () ->
          Simulate.set_store None;
          Simulate.clear_cache ())
        (fun () ->
          let st = classic () in
          Alcotest.(check (pair int int)) (name ^ ": cold run misses") (0, 1)
            (Store.hits s, Store.misses s);
          Simulate.clear_cache ();
          let st' = Simulate.backend b c th in
          Alcotest.(check (pair int int)) (name ^ ": backend run hits") (1, 1)
            (Store.hits s, Store.misses s);
          Alcotest.(check bool) (name ^ ": same stats") true (st = st')))
    [
      ("baseline", (fun () -> Simulate.baseline c), Reg.find_exn "baseline",
       Q.High);
      ("proposed perfect", (fun () -> Simulate.proposed c Q.Perfect), slice,
       Q.Perfect);
      ("proposed high", (fun () -> Simulate.proposed c Q.High), slice, Q.High);
    ]

(* The baseline and slice seats take their allocations from the
   [Compress] record instead of running the schemes' [analyze]: both
   must agree, allocation and occupancy, on a registry kernel. *)
let test_seats_match_scheme_analyze () =
  let c = Compress.analyze hotspot in
  let bindings (a : Alloc.t) =
    List.sort compare (Hashtbl.fold (fun r p acc -> (r, p) :: acc) a.placements [])
  in
  Fun.protect ~finally:Simulate.clear_cache (fun () ->
      List.iter
        (fun (name, th) ->
          let b = Reg.find_exn name in
          let module S = (val b : B.Scheme) in
          let res =
            S.analyze ~kernel:hotspot.kernel ~width:c.width
              ~precision:
                (Some (Compress.threshold_data c th).Compress.assignment)
          in
          let seat_res, seat_occ = Simulate.footprint b c th in
          let what = name ^ "/" ^ Q.threshold_name th in
          Alcotest.(check int) (what ^ " pressure") res.B.alloc.Alloc.pressure
            seat_res.B.alloc.Alloc.pressure;
          Alcotest.(check bool) (what ^ " placements") true
            (bindings res.B.alloc = bindings seat_res.B.alloc);
          Alcotest.(check bool) (what ^ " occupancy") true
            (B.occupancy Gpr_arch.Config.fermi_gtx480 res
               ~warps_per_block:(Gpr_workloads.Workload.warps_per_block hotspot)
               ~shared_bytes_per_block:
                 (Gpr_workloads.Workload.shared_bytes_per_block hotspot)
            = seat_occ))
        [ ("baseline", Q.High); ("slice", Q.Perfect); ("slice", Q.High) ])

let test_version_bump_changes_key () =
  (* The scheme fingerprint is (id, version): bumping the version must
     move the scheme to a fresh cache key. *)
  Alcotest.(check bool) "version participates in key" false
    (Fp.equal (Fp.scheme ~id:"x" ~version:1) (Fp.scheme ~id:"x" ~version:2));
  Alcotest.(check bool) "id participates in key" false
    (Fp.equal (Fp.scheme ~id:"x" ~version:1) (Fp.scheme ~id:"y" ~version:1))

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "names + lookup" `Quick test_registry;
          Alcotest.test_case "fingerprints distinct" `Quick
            test_scheme_fingerprints_distinct;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "baseline" `Quick test_baseline_scheme;
          Alcotest.test_case "slice" `Quick test_slice_scheme;
          Alcotest.test_case "spill" `Quick test_spill_scheme;
          Alcotest.test_case "sim-mode mapping" `Quick test_sim_mode_mapping;
        ] );
      ( "memoisation",
        [
          Alcotest.test_case "schemes never share cache entries" `Quick
            test_backends_never_share_cache_entries;
          Alcotest.test_case "classic entries are backend entries" `Quick
            test_classic_entries_are_backend_entries;
          Alcotest.test_case "seats match scheme analyze" `Quick
            test_seats_match_scheme_analyze;
          Alcotest.test_case "version bump changes key" `Quick
            test_version_bump_changes_key;
        ] );
    ]
