(* Workload tests: every Table 4 kernel validates, runs, and is
   deterministic; independent CPU reference implementations check
   Hotspot, DWT2D and Hybridsort; launch geometry matches Table 4. *)

open Gpr_isa
module W = Gpr_workloads.Workload
module Registry = Gpr_workloads.Registry
module E = Gpr_exec.Exec
module Q = Gpr_quality.Quality

let find name = Option.get (Registry.by_name name)

let test_registry_complete () =
  Alcotest.(check int) "eleven kernels" 11 (List.length Registry.all);
  List.iter
    (fun n ->
       Alcotest.(check bool) (n ^ " present") true (Registry.by_name n <> None))
    [ "Deferred"; "SSAO"; "Elevated"; "Pathtracer"; "CFD"; "DWT2D";
      "Hotspot"; "Hotspot3D"; "IMGVF"; "GICOV"; "Hybridsort" ]

let test_kernels_validate () =
  List.iter
    (fun (w : W.t) ->
       match Cfg.validate w.kernel with
       | Ok () -> ()
       | Error e -> Alcotest.fail (w.name ^ ": " ^ e))
    Registry.all

let test_table4_geometry () =
  (* Warps per block from Table 4. *)
  let expected =
    [ ("Deferred", 8); ("SSAO", 8); ("Elevated", 8); ("Pathtracer", 8);
      ("CFD", 6); ("DWT2D", 6); ("Hotspot", 8); ("Hotspot3D", 8);
      ("IMGVF", 10); ("GICOV", 6); ("Hybridsort", 8) ]
  in
  List.iter
    (fun (name, warps) ->
       Alcotest.(check int) (name ^ " warps/block") warps
         (W.warps_per_block (find name)))
    expected

let test_imgvf_shared_matches_paper () =
  Alcotest.(check int) "14560 bytes" 14560
    (W.shared_bytes_per_block (find "IMGVF"))

(* The registry generates each workload's inputs once and hands out
   copies: equal contents, never the same array, and a run's writes do
   not reach the next call. *)
let storage_distinct (_, a) (_, b) =
  match (a, b) with
  | E.F_data x, E.F_data y -> x != y
  | E.I_data x, E.I_data y -> x != y
  | _ -> false

let bump = function
  | _, E.F_data a -> Array.iteri (fun i v -> a.(i) <- v +. 1.0) a
  | _, E.I_data a -> Array.iteri (fun i v -> a.(i) <- v + 1) a

let test_inputs_fresh_copies () =
  List.iter
    (fun (w : W.t) ->
       let d0 = w.data () in
       let d1 = w.data () in
       Alcotest.(check bool) (w.name ^ " equal") true (d0 = d1);
       Alcotest.(check bool) (w.name ^ " distinct arrays") true
         (List.for_all2 storage_distinct d0 d1);
       List.iter bump d1;
       Alcotest.(check bool) (w.name ^ " written") false (d0 = d1);
       Alcotest.(check bool) (w.name ^ " writes do not leak") true (d0 = w.data ()))
    Registry.all

(* Two domains making the first call at once both get the generator's
   data; after that the generator never runs again. *)
let test_inputs_first_call_race () =
  let raw = Gpr_workloads.Rodinia.dwt2d in
  let calls = Atomic.make 0 in
  let w =
    W.share_inputs { raw with data = (fun () -> Atomic.incr calls; raw.data ()) }
  in
  let racers = List.init 2 (fun _ -> Domain.spawn (fun () -> w.data ())) in
  match List.map Domain.join racers with
  | [ a; b ] ->
    let want = raw.data () in
    Alcotest.(check bool) "first racer" true (a = want);
    Alcotest.(check bool) "second racer" true (b = want);
    Alcotest.(check bool) "distinct arrays" true (List.for_all2 storage_distinct a b);
    let n = Atomic.get calls in
    Alcotest.(check bool) "one or two generations" true (n = 1 || n = 2);
    Alcotest.(check bool) "later call" true (w.data () = want);
    Alcotest.(check int) "no generation after publishing" n (Atomic.get calls)
  | _ -> assert false

(* A shared workload's digest and buffer lengths come from the inputs
   it keeps: they match the generator's, which runs once. *)
let test_inputs_digest_once () =
  let raw = Gpr_workloads.Rodinia.hotspot3d in
  let calls = Atomic.make 0 in
  let w =
    W.share_inputs { raw with data = (fun () -> Atomic.incr calls; raw.data ()) }
  in
  let want = Digest.string (Marshal.to_string (raw.data ()) []) in
  for _ = 1 to 3 do
    Alcotest.(check string) "digest" (Digest.to_hex want)
      (Digest.to_hex (W.inputs_digest w))
  done;
  let names = List.map fst (raw.data ()) @ List.map fst w.shared @ [ "absent" ] in
  let lens = W.buffer_len w and raw_lens = W.buffer_len raw in
  List.iter
    (fun n -> Alcotest.(check (option int)) n (raw_lens n) (lens n))
    names;
  Alcotest.(check int) "one generation" 1 (Atomic.get calls)

let test_references_deterministic () =
  List.iter
    (fun (w : W.t) ->
       let a = W.reference w in
       let b = W.reference w in
       Alcotest.(check bool) (w.name ^ " deterministic") true (a = b);
       Alcotest.(check bool) (w.name ^ " non-trivial output") true
         (Array.exists (fun v -> v <> 0.0) a);
       Alcotest.(check bool) (w.name ^ " finite") true
         (Array.for_all (fun v -> Float.is_finite v) a))
    Registry.all

let test_reference_scores_perfect () =
  List.iter
    (fun (w : W.t) ->
       let r = W.reference w in
       let score = W.score w ~out:(Array.copy r) ~reference:r in
       Alcotest.(check bool)
         (w.name ^ " self-score perfect")
         true
         (Q.meets score Q.Perfect))
    Registry.all

(* ---------------------------------------------------------------- *)
(* Independent CPU references *)

let test_hybridsort_actually_sorts () =
  let w = find "Hybridsort" in
  let out = W.reference w in
  (* Sorted per 2048-key tile, and a permutation of its input. *)
  let inp =
    match List.assoc "keys_in" (w.data ()) with
    | E.F_data a -> a
    | E.I_data _ -> Alcotest.fail "unexpected int keys"
  in
  let tile = 2048 in
  for blk = 0 to (Array.length out / tile) - 1 do
    let slice a = Array.sub a (blk * tile) tile in
    let o = slice out in
    for i = 1 to tile - 1 do
      if o.(i - 1) > o.(i) then
        Alcotest.fail (Printf.sprintf "tile %d unsorted at %d" blk i)
    done;
    let si = slice inp in
    Array.sort compare si;
    Alcotest.(check bool)
      (Printf.sprintf "tile %d permutation" blk)
      true (si = o)
  done

let test_hotspot_matches_cpu () =
  let w = find "Hotspot" in
  let data = w.data () in
  let temp = match List.assoc "temp" data with E.F_data a -> a | _ -> assert false in
  let power = match List.assoc "power" data with E.F_data a -> a | _ -> assert false in
  let out = W.reference w in
  let dim = 64 in
  let f32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let step = 0.25 and rx = 0.125 and rz = 0.0625 and amb = 0.5 in
  let at x y =
    let x = max 0 (min (dim - 1) x) and y = max 0 (min (dim - 1) y) in
    temp.((y * dim) + x)
  in
  (* Spot-check a sample of cells against a scalar implementation. *)
  List.iter
    (fun (x, y) ->
       let i = (y * dim) + x in
       let lap =
         f32 (f32 (f32 (at x (y - 1)) +. at x (y + 1))
              +. f32 (at (x - 1) y +. at (x + 1) y))
       in
       let lap = f32 ((temp.(i) *. -4.0) +. lap) in
       let drive = f32 ((power.(i) *. rx) +. f32 (lap *. 0.25)) in
       let cool = f32 (f32 (amb -. temp.(i)) *. rz) in
       let delta = f32 (f32 (drive +. cool) *. step) in
       let expect = f32 (temp.(i) +. delta) in
       Alcotest.(check (float 1e-5))
         (Printf.sprintf "cell (%d,%d)" x y)
         expect out.(i))
    [ (0, 0); (5, 9); (31, 31); (63, 63); (17, 40); (63, 0); (0, 63); (32, 1) ]

let test_dwt2d_level2_ll_matches_cpu () =
  let w = find "DWT2D" in
  let data = w.data () in
  let src = match List.assoc "dwt_in" data with E.F_data a -> a | _ -> assert false in
  let out = W.reference w in
  let width = 96 in
  (* LL2 of 4x4 block (bx, by) = mean of the 16 pixels (for the Haar
     filter bank, level-2 LL is the overall average). *)
  List.iter
    (fun (bx, by) ->
       let sum = ref 0.0 in
       for dy = 0 to 3 do
         for dx = 0 to 3 do
           sum := !sum +. src.((((by * 4) + dy) * width) + (bx * 4) + dx)
         done
       done;
       let expect = !sum /. 16.0 in
       let got = out.((by * width) + bx) in
       Alcotest.(check (float 1e-4))
         (Printf.sprintf "LL2 (%d,%d)" bx by)
         expect got)
    [ (0, 0); (3, 7); (11, 11); (8, 2) ]

let test_gicov_scores_nonnegative () =
  let out = W.reference (find "GICOV") in
  Alcotest.(check bool) "scores >= 0" true (Array.for_all (fun v -> v >= 0.0) out)

let test_graphics_outputs_in_unit_range () =
  List.iter
    (fun name ->
       let out = W.reference (find name) in
       Alcotest.(check bool) (name ^ " in [0,1]") true
         (Array.for_all (fun v -> v >= 0.0 && v <= 1.0) out))
    [ "Deferred"; "SSAO"; "Elevated"; "Pathtracer" ]

let test_quantized_run_degrades_gracefully () =
  (* Quantising everything to fp8 must not crash and must score worse
     than (or equal to) the reference. *)
  let w = find "Hotspot" in
  let r = W.reference w in
  let fp8 = Gpr_fp.Format_.of_level 6 in
  let out =
    W.run_quantized w
      ~quantize:(Array.make (Gpr_exec.Exec.count_static_instrs w.W.kernel) fp8)
  in
  match W.score w ~out ~reference:r with
  | Q.S_deviation_pct d ->
    Alcotest.(check bool) "fp8 visibly degrades" true (d > 0.1);
    Alcotest.(check bool) "but bounded" true (d < 100.0)
  | _ -> Alcotest.fail "expected deviation score"

let test_trace_barrier_counts () =
  (* IMGVF's trace must contain its barriers: 2 staging + 2 per
     iteration per warp. *)
  let w = find "IMGVF" in
  let trace = W.trace w ~quantize:None in
  let bars =
    Array.fold_left
      (fun acc (it : Gpr_exec.Trace.item) ->
         if it.t_unit = Gpr_isa.Types.Sync then acc + 1 else acc)
      0 trace.items
  in
  Alcotest.(check bool) "many barriers" true (bars > 0);
  let per_warp = bars / (trace.num_blocks * trace.warps_per_block) in
  Alcotest.(check int) "barriers per warp" (1 + (2 * 4)) per_warp

let () =
  Alcotest.run "workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "kernels validate" `Quick test_kernels_validate;
          Alcotest.test_case "table4 geometry" `Quick test_table4_geometry;
          Alcotest.test_case "imgvf shared" `Quick test_imgvf_shared_matches_paper;
          Alcotest.test_case "inputs fresh copies" `Quick test_inputs_fresh_copies;
          Alcotest.test_case "inputs digest once" `Quick test_inputs_digest_once;
          Alcotest.test_case "inputs first-call race" `Quick
            test_inputs_first_call_race;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "references stable" `Slow test_references_deterministic;
          Alcotest.test_case "self-score perfect" `Slow test_reference_scores_perfect;
        ] );
      ( "cpu-references",
        [
          Alcotest.test_case "hybridsort sorts" `Quick test_hybridsort_actually_sorts;
          Alcotest.test_case "hotspot stencil" `Quick test_hotspot_matches_cpu;
          Alcotest.test_case "dwt2d LL2" `Quick test_dwt2d_level2_ll_matches_cpu;
          Alcotest.test_case "gicov nonneg" `Quick test_gicov_scores_nonnegative;
          Alcotest.test_case "graphics range" `Quick
            test_graphics_outputs_in_unit_range;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "fp8 degrades" `Quick
            test_quantized_run_degrades_gracefully;
          Alcotest.test_case "imgvf barriers" `Quick test_trace_barrier_counts;
        ] );
    ]
