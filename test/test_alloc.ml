(* Slice-granular allocator tests: baseline equivalence with max-live,
   packing correctness (no two simultaneously-live variables sharing a
   slice), pressure monotonicity in widths, and split accounting. *)

open Gpr_isa
open Gpr_isa.Types
module A = Gpr_alloc.Alloc
module L = Gpr_analysis.Liveness

(* A kernel with a tunable number of simultaneously-live values. *)
let fan_kernel n_live =
  let b = Builder.create ~name:(Printf.sprintf "fan%d" n_live) in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let vals =
    List.init n_live (fun k -> iadd b ~$i (ci (k * 17)))
  in
  (* Consume them all at the end so they stay live together. *)
  let sum =
    List.fold_left (fun acc v -> iadd b ~$acc ~$v) (mov b S32 (ci 0)) vals
  in
  st b out ~$i ~$sum;
  finish b

let mixed_kernel () =
  let b = Builder.create ~name:"mixed" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let i = global_thread_id_x b in
  let small1 = iand b ~$i (ci 0xf) in          (* 4 bits *)
  let small2 = iand b ~$i (ci 0x3f) in         (* 6 bits *)
  let f1 = itof b ~$i in
  let f2 = fmul b ~$f1 (cf 2.0) in
  let s = iadd b ~$small1 ~$small2 in
  let r = ffma b ~$f2 ~$f1 ~$(itof b ~$s) in
  st b out ~$i ~$r;
  finish b

let test_baseline_matches_max_live () =
  (* Architectural-name allocation is a linear scan over interval
     hulls, so the baseline pressure matches max-live up to small
     hull/typing slack — mirroring how the paper's own PTX-level
     allocation slightly overestimates ptxas (Sec. 5.1). *)
  List.iter
    (fun n ->
       let k = fan_kernel n in
       let live = L.compute k in
       let alloc = A.baseline k in
       let ml = L.max_live live in
       Alcotest.(check bool)
         (Printf.sprintf "pressure in [max_live, max_live+2] (n=%d)" n)
         true
         (alloc.A.pressure >= ml && alloc.A.pressure <= ml + 2))
    [ 1; 4; 9; 16; 33 ]

let test_narrow_widths_reduce_pressure () =
  let k = fan_kernel 16 in
  let base = A.baseline k in
  (* All values fit 8 bits -> 2 slices each -> 4 per register. *)
  let packed = A.run k ~width_of:(fun _ -> 8) in
  Alcotest.(check bool) "packed smaller" true
    (packed.A.pressure < base.A.pressure);
  Alcotest.(check bool) "at least 3x" true
    (packed.A.pressure * 3 <= base.A.pressure)

let test_pressure_monotone_in_width () =
  let k = fan_kernel 12 in
  let p w = (A.run k ~width_of:(fun _ -> w)).A.pressure in
  let ps = List.map p [ 4; 8; 12; 16; 20; 24; 28; 32 ] in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (nondecreasing ps)

(* Core invariant: at every program point, the slices of simultaneously
   live variables are disjoint. *)
let check_no_overlap k widths =
  let alloc = A.run k ~width_of:widths in
  let live = L.compute k in
  (* For each block boundary, collect live sets and check placements. *)
  let cfg = Cfg.of_kernel k in
  for bl = 0 to Cfg.num_blocks cfg - 1 do
    let check set =
      let used = Hashtbl.create 16 in
      L.Iset.iter
        (fun v ->
           match A.lookup alloc v with
           | None -> Alcotest.fail (Printf.sprintf "no placement for %%%d" v)
           | Some p ->
             let add reg mask =
               if reg >= 0 then
                 for s = 0 to 7 do
                   if mask land (1 lsl s) <> 0 then begin
                     let key = (reg, s) in
                     if Hashtbl.mem used key then
                       Alcotest.fail
                         (Printf.sprintf "slice clash at r%d.%d" reg s);
                     Hashtbl.replace used key ()
                   end
                 done
             in
             add p.A.reg0 p.A.mask0;
             add p.A.reg1 p.A.mask1)
        set
    in
    check (L.live_in live bl);
    check (L.live_out live bl)
  done;
  alloc

let test_no_slice_overlap_mixed () =
  let k = mixed_kernel () in
  let range = Gpr_analysis.Range.analyze k ~launch:(launch_1d ~block:64 ~grid:2) in
  let widths (r : vreg) =
    match r.ty with
    | F32 -> 20
    | S32 | U32 -> Gpr_analysis.Range.var_bitwidth range r.id
    | Pred -> 32
  in
  ignore (check_no_overlap k widths)

let test_no_slice_overlap_fan () =
  List.iter
    (fun (n, w) -> ignore (check_no_overlap (fan_kernel n) (fun _ -> w)))
    [ (7, 8); (13, 12); (21, 4); (10, 32); (18, 20) ]

let prop_no_overlap_random_widths =
  QCheck.Test.make ~name:"no slice overlap with random widths" ~count:60
    QCheck.(pair (int_range 2 20) (int_range 1 1000000))
    (fun (n, seed) ->
       let k = fan_kernel n in
       let rng = Gpr_util.Rng.create seed in
       let cache = Hashtbl.create 16 in
       let widths (r : vreg) =
         match Hashtbl.find_opt cache r.id with
         | Some w -> w
         | None ->
           let w = 1 + Gpr_util.Rng.int rng 32 in
           Hashtbl.replace cache r.id w;
           w
       in
       ignore (check_no_overlap k widths);
       true)

let prop_no_overlap_generated_kernels =
  (* Same core invariant, over the fuzzer's kernel generator instead of
     the structured fan/mixed shapes: random CFGs, types and liveness. *)
  QCheck.Test.make ~name:"no slice overlap on generated kernels" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
       let k = (Gpr_check.Gen.generate seed).Gpr_check.Gen.kernel in
       let rng = Gpr_util.Rng.create (seed lxor 0x5f5f) in
       let cache = Hashtbl.create 16 in
       let widths (r : vreg) =
         match Hashtbl.find_opt cache r.id with
         | Some w -> w
         | None ->
           let w = 1 + Gpr_util.Rng.int rng 32 in
           Hashtbl.replace cache r.id w;
           w
       in
       ignore (check_no_overlap k widths);
       true)

let prop_no_split_pressure_dominates =
  (* Splits only ever help: the allocator with splits disabled must
     never report lower pressure than with them enabled. *)
  QCheck.Test.make ~name:"forbidding splits never lowers pressure" ~count:40
    QCheck.(pair (int_range 1 10_000) (int_range 1 32))
    (fun (seed, w) ->
       let k = (Gpr_check.Gen.generate seed).Gpr_check.Gen.kernel in
       let split = A.run ~allow_split:true k ~width_of:(fun _ -> w) in
       let nosplit = A.run ~allow_split:false k ~width_of:(fun _ -> w) in
       nosplit.A.pressure >= split.A.pressure)

let test_split_placements_counted () =
  (* Force fragmentation: many 5-slice (17..20-bit) values leave 3-slice
     holes that only splits can use. *)
  let k = fan_kernel 16 in
  let alloc = A.run k ~width_of:(fun _ -> 20) in
  (* Several variables may alias one architectural name, so count
     *distinct* split placements. *)
  let distinct = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (p : A.placement) ->
       Hashtbl.replace distinct (p.A.reg0, p.A.mask0, p.A.reg1, p.A.mask1) p)
    alloc.A.placements;
  let split_in_table =
    Hashtbl.fold
      (fun _ p acc -> if A.is_split p then acc + 1 else acc)
      distinct 0
  in
  Alcotest.(check int) "split counter consistent" alloc.A.split_count
    split_in_table;
  (* Each placement's slice count must match its mask population. *)
  Hashtbl.iter
    (fun _ (p : A.placement) ->
       Alcotest.(check int) "slices = popcount"
         (Gpr_util.Bits.popcount p.A.mask0 + Gpr_util.Bits.popcount p.A.mask1)
         p.A.slices;
       Alcotest.(check bool) "enough bits" true (p.A.slices * 4 >= p.A.bits))
    alloc.A.placements

let test_workload_allocs_fit_arch_table () =
  List.iter
    (fun (w : Gpr_workloads.Workload.t) ->
       let alloc = A.baseline w.kernel in
       Alcotest.(check bool)
         (w.name ^ " fits 256-entry table")
         true (A.fits_arch_table alloc))
    Gpr_workloads.Registry.all

(* Placement pins: every field of every placement, in the table's
   iteration order (which downstream consumers fold over), plus the
   summary counts.  Two width functions: the width analysis's (as lint
   audits) and a scrambled one that makes names of mixed widths merge,
   so the order names return to their pools shows. *)
let alloc_digest (t : A.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d|" t.pressure t.num_arch_regs t.peak_slices
    t.split_count;
  Hashtbl.iter
    (fun v (p : A.placement) ->
      Printf.bprintf b "%d:%d,%x,%d,%x,%d,%d,%b,%b;" v p.reg0 p.mask0 p.reg1
        p.mask1 p.slices p.bits p.signed p.is_float)
    t.placements;
  Digest.to_hex (Digest.string (Buffer.contents b))

let analysed_widths kernel ~launch =
  let w = Gpr_analysis.Width.analyze kernel ~launch in
  fun (r : vreg) ->
    match r.ty with
    | Pred | F32 -> 32
    | S32 | U32 -> Gpr_analysis.Width.var_bitwidth w r.id

let scrambled_widths (r : vreg) = 1 + (r.id * 7919 mod 32)

let registry_pins =
  [
    ( "deferred",
      "1b2b7b3975855a17154023f10a6a2141",
      "9e769afe8d986fe1d5fc2de042a447f1" );
    ( "ssao",
      "b98e7305137b3a0270ef839c1d320846",
      "370a181b19741650fe45b626d3cf1402" );
    ( "elevated",
      "9fa4e03debb64e247fe194e0e63de789",
      "f40bd04b292e4584928e3c16778537d7" );
    ( "pathtracer",
      "5b9748d1721b848613a49b9b704b233b",
      "f5c78f24894cd6f36a97ef58d259c347" );
    ( "cfd",
      "67584ecf289aa93372b328ef125dc944",
      "c50bcbde286072dad7cd0ce5940c655b" );
    ( "dwt2d",
      "84fdae47c5278c61637ab539b81e7285",
      "fa796ce6b1b06d70bdf8f058dd00c0f2" );
    ( "hotspot",
      "60b4ba80a7e4406b06c60fd310adb97a",
      "70ca5df7711657bb38842bd2a969d629" );
    ( "hotspot3d",
      "39b53e3c794fa9c0e864162c0af49626",
      "71362d8fa15c9a87c7df55be34696987" );
    ( "imgvf",
      "078eea785eb727adf21e2ce10cbd2098",
      "dd394e5b28f45bd9ffc27da250ee8020" );
    ( "gicov",
      "6b7f421147dd304d802479bad0e29c42",
      "b5bf3ca000b7d43075b9fc58d89c9730" );
    ( "hybridsort",
      "5565308db6691955ccb30808c5751f8a",
      "87812875f3c2883b2bed063e757bfc95" );
  ]

let test_registry_placement_pins () =
  List.iter
    (fun (w : Gpr_workloads.Workload.t) ->
      let k = w.kernel in
      let analysed, scrambled =
        match List.find_opt (fun (n, _, _) -> n = k.k_name) registry_pins with
        | Some (_, a, s) -> (a, s)
        | None -> Alcotest.failf "no pin for %s" k.k_name
      in
      Alcotest.(check string) (k.k_name ^ " analysed widths") analysed
        (alloc_digest (A.run k ~width_of:(analysed_widths k ~launch:w.launch)));
      Alcotest.(check string) (k.k_name ^ " scrambled widths") scrambled
        (alloc_digest (A.run k ~width_of:scrambled_widths)))
    Gpr_workloads.Registry.all

let test_generated_placement_pin () =
  let b = Buffer.create 8192 in
  for seed = 1 to 200 do
    let c = Gpr_check.Gen.generate seed in
    Buffer.add_string b
      (alloc_digest (A.run c.kernel ~width_of:(analysed_widths c.kernel ~launch:c.launch)));
    Buffer.add_string b
      (alloc_digest (A.run ~allow_split:false c.kernel ~width_of:scrambled_widths))
  done;
  Alcotest.(check string) "200 generated kernels"
    "26192599001d98de7c674d89d38abe39"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  let q = QCheck_alcotest.to_alcotest ~verbose:false in
  Alcotest.run "alloc"
    [
      ( "pressure",
        [
          Alcotest.test_case "baseline = max live" `Quick
            test_baseline_matches_max_live;
          Alcotest.test_case "narrow reduces" `Quick
            test_narrow_widths_reduce_pressure;
          Alcotest.test_case "monotone in width" `Quick
            test_pressure_monotone_in_width;
        ] );
      ( "packing",
        [
          Alcotest.test_case "no overlap (mixed)" `Quick test_no_slice_overlap_mixed;
          Alcotest.test_case "no overlap (fan)" `Quick test_no_slice_overlap_fan;
          Alcotest.test_case "splits counted" `Quick test_split_placements_counted;
          Alcotest.test_case "workloads fit table" `Quick
            test_workload_allocs_fit_arch_table;
          Alcotest.test_case "registry placement pins" `Quick
            test_registry_placement_pins;
          Alcotest.test_case "generated placement pin" `Quick
            test_generated_placement_pin;
        ] );
      ( "packing-props",
        [
          q prop_no_overlap_random_widths;
          q prop_no_overlap_generated_kernels;
          q prop_no_split_pressure_dominates;
        ] );
    ]
