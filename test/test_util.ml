(* Unit and property tests for gpr_util: intervals, bit math, RNG,
   statistics, images and table rendering. *)

module I = Gpr_util.Interval
module Bits = Gpr_util.Bits

(* ---------------------------------------------------------------- *)
(* Interval: directed cases *)

let itv = Alcotest.testable (fun ppf t -> I.pp ppf t) I.equal

let test_interval_basics () =
  Alcotest.check itv "join" (I.of_ints 0 10) (I.join (I.of_ints 0 3) (I.of_ints 7 10));
  Alcotest.check itv "meet" (I.of_ints 7 8) (I.meet (I.of_ints 0 8) (I.of_ints 7 10));
  Alcotest.check itv "meet disjoint" I.bot (I.meet (I.of_ints 0 3) (I.of_ints 7 10));
  Alcotest.check itv "add" (I.of_ints 7 13) (I.add (I.of_ints 0 3) (I.of_ints 7 10));
  Alcotest.check itv "sub" (I.of_ints (-10) (-4)) (I.sub (I.of_ints 0 3) (I.of_ints 7 10));
  Alcotest.check itv "neg" (I.of_ints (-3) 2) (I.neg (I.of_ints (-2) 3));
  Alcotest.check itv "mul signs" (I.of_ints (-20) 30)
    (I.mul (I.of_ints (-2) 3) (I.of_ints (-5) 10));
  Alcotest.check itv "abs straddle" (I.of_ints 0 5) (I.abs (I.of_ints (-5) 3));
  Alcotest.check itv "min" (I.of_ints (-2) 3) (I.min_ (I.of_ints (-2) 8) (I.of_ints 0 3));
  Alcotest.check itv "max" (I.of_ints 0 8) (I.max_ (I.of_ints (-2) 8) (I.of_ints 0 3))

let test_interval_div () =
  Alcotest.check itv "div pos" (I.of_ints 2 20) (I.div (I.of_ints 20 40) (I.of_ints 2 8));
  Alcotest.check itv "div by zero only" I.bot (I.div (I.of_ints 1 2) (I.of_const 0));
  (* Divisor straddling zero: result bounded by dividend magnitude. *)
  let r = I.div (I.of_ints (-10) 20) (I.of_ints (-2) 2) in
  Alcotest.(check bool) "straddle sound" true (I.subset (I.of_ints (-10) 20) r)

let test_interval_shift () =
  Alcotest.check itv "shl const" (I.of_ints 8 40) (I.shl (I.of_ints 1 5) (I.of_const 3));
  Alcotest.check itv "shr const" (I.of_ints 1 5) (I.shr (I.of_ints 8 40) (I.of_const 3));
  (* Arithmetic shift floors: -2 asr 3 = -1 (regression caught by the
     range-soundness property test). *)
  Alcotest.check itv "shr negative" (I.of_ints (-1) 1)
    (I.shr (I.of_ints (-2) 8) (I.of_const 3));
  Alcotest.check itv "shr all negative" (I.of_ints (-13) (-1))
    (I.shr (I.of_ints (-100) (-3)) (I.of_const 3))

let test_interval_widen_narrow () =
  let a = I.of_ints 0 5 and b = I.of_ints 0 9 in
  Alcotest.check itv "widen hi" (I.range (I.Finite 0) I.Pos_inf) (I.widen a b);
  Alcotest.check itv "widen stable" a (I.widen a (I.of_ints 2 4));
  let w = I.widen a b in
  Alcotest.check itv "narrow recovers" (I.of_ints 0 9) (I.narrow w b)

let test_interval_rem () =
  let r = I.rem (I.of_ints 0 100) (I.of_const 8) in
  Alcotest.(check bool) "rem within [0,7]" true (I.subset r (I.of_ints 0 7))

let test_interval_clamp () =
  Alcotest.check itv "clamp id" (I.of_ints 0 5) (I.clamp_i32 (I.of_ints 0 5));
  Alcotest.check itv "clamp overflow" I.i32
    (I.clamp_i32 (I.of_ints 0 0x1_0000_0000))

(* ---------------------------------------------------------------- *)
(* Interval: qcheck soundness properties *)

let gen_small = QCheck.Gen.int_range (-1000) 1000

let gen_interval =
  QCheck.Gen.(
    map2
      (fun a b -> I.of_ints (min a b) (max a b))
      gen_small gen_small)

let arb_interval = QCheck.make ~print:I.to_string gen_interval

let arb_interval_with_member =
  let gen =
    QCheck.Gen.(
      gen_interval >>= fun itv ->
      match itv with
      | I.Range (I.Finite lo, I.Finite hi) ->
        map (fun x -> (itv, x)) (int_range lo hi)
      | _ -> assert false)
  in
  QCheck.make ~print:(fun (i, x) -> Printf.sprintf "%s ∋ %d" (I.to_string i) x) gen

let prop_sound name concrete abstract =
  QCheck.Test.make ~name ~count:500
    (QCheck.pair arb_interval_with_member arb_interval_with_member)
    (fun ((ia, a), (ib, b)) ->
       match concrete a b with
       | None -> QCheck.assume_fail ()
       | Some c -> I.contains (abstract ia ib) c)

let interval_soundness_tests =
  [
    prop_sound "add sound" (fun a b -> Some (a + b)) I.add;
    prop_sound "sub sound" (fun a b -> Some (a - b)) I.sub;
    prop_sound "mul sound" (fun a b -> Some (a * b)) I.mul;
    prop_sound "div sound" (fun a b -> if b = 0 then None else Some (a / b)) I.div;
    prop_sound "rem sound" (fun a b -> if b = 0 then None else Some (a mod b)) I.rem;
    prop_sound "min sound" (fun a b -> Some (min a b)) I.min_;
    prop_sound "max sound" (fun a b -> Some (max a b)) I.max_;
    prop_sound "shr sound"
      (fun a b -> Some (a asr (b land 7)))
      (fun ia _ib -> I.shr ia (I.of_ints 0 7));
  ]

let prop_join_contains =
  QCheck.Test.make ~name:"join contains both" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) ->
       let j = I.join a b in
       I.subset a j && I.subset b j)

let prop_meet_subset =
  QCheck.Test.make ~name:"meet subset of both" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) ->
       let m = I.meet a b in
       I.subset m a && I.subset m b)

let prop_widen_upper =
  QCheck.Test.make ~name:"widen is an upper bound" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) ->
       let w = I.widen a b in
       I.subset a w && I.subset b w)

(* Lattice laws over a generator that also hits the extreme elements:
   join/meet form a bounded lattice with [bot] and [top]. *)
let arb_interval_ext =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (8, gen_interval);
          (1, return I.bot);
          (1, return I.top);
          (1, return I.i32);
          (1, map (fun a -> I.range (I.Finite a) I.Pos_inf) gen_small);
        ])
  in
  QCheck.make ~print:I.to_string gen

let prop_lattice_commutes =
  QCheck.Test.make ~name:"join/meet commute" ~count:500
    (QCheck.pair arb_interval_ext arb_interval_ext)
    (fun (a, b) ->
       I.equal (I.join a b) (I.join b a) && I.equal (I.meet a b) (I.meet b a))

let prop_lattice_idempotent =
  QCheck.Test.make ~name:"join/meet idempotent" ~count:500 arb_interval_ext
    (fun a -> I.equal (I.join a a) a && I.equal (I.meet a a) a)

let prop_lattice_assoc =
  QCheck.Test.make ~name:"join/meet associate" ~count:500
    (QCheck.triple arb_interval_ext arb_interval_ext arb_interval_ext)
    (fun (a, b, c) ->
       I.equal (I.join a (I.join b c)) (I.join (I.join a b) c)
       && I.equal (I.meet a (I.meet b c)) (I.meet (I.meet a b) c))

(* Intervals are not a distributive lattice in general, but absorption
   holds whenever meet is exact — which it is, since the meet of two
   intervals is an interval. *)
let prop_lattice_absorption =
  QCheck.Test.make ~name:"absorption laws" ~count:500
    (QCheck.pair arb_interval_ext arb_interval_ext)
    (fun (a, b) ->
       I.equal (I.join a (I.meet a b)) a && I.equal (I.meet a (I.join a b)) a)

let prop_lattice_units =
  QCheck.Test.make ~name:"bot/top are units" ~count:500 arb_interval_ext
    (fun a ->
       I.equal (I.join a I.bot) a
       && I.equal (I.meet a I.top) a
       && I.equal (I.meet a I.bot) I.bot
       && I.equal (I.join a I.top) I.top)

let prop_subset_order =
  QCheck.Test.make ~name:"subset agrees with join/meet" ~count:500
    (QCheck.pair arb_interval_ext arb_interval_ext)
    (fun (a, b) ->
       (I.subset a b = I.equal (I.join a b) b)
       && (I.subset a b = I.equal (I.meet a b) a))

let prop_band_sound =
  QCheck.Test.make ~name:"band sound for non-negative" ~count:500
    (QCheck.pair (QCheck.int_bound 1000) (QCheck.int_bound 1000))
    (fun (a, b) ->
       I.contains (I.band (I.of_ints 0 1000) (I.of_ints 0 1000)) (a land b)
       && I.contains (I.bor (I.of_ints 0 1000) (I.of_ints 0 1000)) (a lor b)
       && I.contains (I.bxor (I.of_ints 0 1000) (I.of_ints 0 1000)) (a lxor b))

(* ---------------------------------------------------------------- *)
(* Bits *)

let test_bits_widths () =
  Alcotest.(check int) "unsigned 0" 1 (Bits.bits_for_unsigned 0);
  Alcotest.(check int) "unsigned 1" 1 (Bits.bits_for_unsigned 1);
  Alcotest.(check int) "unsigned 255" 8 (Bits.bits_for_unsigned 255);
  Alcotest.(check int) "unsigned 256" 9 (Bits.bits_for_unsigned 256);
  Alcotest.(check int) "signed 0" 1 (Bits.bits_for_signed 0);
  Alcotest.(check int) "signed -1" 1 (Bits.bits_for_signed (-1));
  Alcotest.(check int) "signed 1" 2 (Bits.bits_for_signed 1);
  Alcotest.(check int) "signed -128" 8 (Bits.bits_for_signed (-128));
  Alcotest.(check int) "signed 127" 8 (Bits.bits_for_signed 127);
  Alcotest.(check int) "signed 128" 9 (Bits.bits_for_signed 128);
  Alcotest.(check int) "range [0,50]" 7 (Bits.bits_for_signed_range 0 50);
  Alcotest.(check int) "urange [0,50]" 6 (Bits.bits_for_unsigned_range 0 50)

let test_bits_extend () =
  Alcotest.(check int) "sign extend -1" (-1) (Bits.sign_extend ~width:4 0xf);
  Alcotest.(check int) "sign extend 7" 7 (Bits.sign_extend ~width:4 0x7);
  Alcotest.(check int) "zero extend" 0xf (Bits.zero_extend ~width:4 0xff);
  Alcotest.(check bool) "fits signed" true (Bits.fits_signed ~width:8 (-128));
  Alcotest.(check bool) "fits signed no" false (Bits.fits_signed ~width:8 128);
  Alcotest.(check bool) "fits unsigned" true (Bits.fits_unsigned ~width:8 255)

let test_bits_slices () =
  Alcotest.(check int) "1 bit -> 1 slice" 1 (Bits.slices_of_bits 1);
  Alcotest.(check int) "4 bits" 1 (Bits.slices_of_bits 4);
  Alcotest.(check int) "5 bits" 2 (Bits.slices_of_bits 5);
  Alcotest.(check int) "32 bits" 8 (Bits.slices_of_bits 32);
  Alcotest.(check int) "popcount" 3 (Bits.popcount 0b10101);
  Alcotest.(check int) "popcount full warp" 32 (Bits.popcount 0xffff_ffff);
  Alcotest.(check int) "popcount bit 32" 1 (Bits.popcount 0x1_0000_0000);
  Alcotest.(check int) "popcount -1" 63 (Bits.popcount (-1));
  Alcotest.(check int) "popcount min_int" 1 (Bits.popcount min_int)

let prop_sign_extend_roundtrip =
  QCheck.Test.make ~name:"sign_extend inverts masking" ~count:500
    (QCheck.pair (QCheck.int_range 1 30) (QCheck.int_range (-10000) 10000))
    (fun (w, x) ->
       QCheck.assume (Bits.fits_signed ~width:w x);
       Bits.sign_extend ~width:w (x land Bits.mask w) = x)

(* Pack/unpack identity: storing a value in [width] low bits and
   reading it back through the matching extension is the identity on
   every value that fits — exactly the contract the slice-packed
   register datapath relies on. *)
let prop_pack_unpack_signed =
  QCheck.Test.make ~name:"signed pack/unpack identity" ~count:500
    (QCheck.pair (QCheck.int_range 1 30) (QCheck.int_range (-100000) 100000))
    (fun (w, x) ->
       QCheck.assume (Bits.fits_signed ~width:w x);
       Bits.sign_extend ~width:w (x land Bits.mask w) = x)

let prop_pack_unpack_unsigned =
  QCheck.Test.make ~name:"unsigned pack/unpack identity" ~count:500
    (QCheck.pair (QCheck.int_range 1 30) (QCheck.int_range 0 200000))
    (fun (w, x) ->
       QCheck.assume (Bits.fits_unsigned ~width:w x);
       Bits.zero_extend ~width:w (x land Bits.mask w) = x)

let prop_extend_canonical =
  (* Both extensions are projections: re-masking the extended value
     recovers the stored bit pattern for arbitrary inputs. *)
  QCheck.Test.make ~name:"extend then mask is mask" ~count:500
    (QCheck.pair (QCheck.int_range 1 30) (QCheck.int_range (-100000) 100000))
    (fun (w, x) ->
       Bits.sign_extend ~width:w x land Bits.mask w = x land Bits.mask w
       && Bits.zero_extend ~width:w x = x land Bits.mask w)

let prop_bits_for_minimal =
  QCheck.Test.make ~name:"bits_for widths are minimal" ~count:500
    (QCheck.int_range (-100000) 100000)
    (fun x ->
       let w = Bits.bits_for_signed x in
       Bits.fits_signed ~width:w x
       && (w = 1 || not (Bits.fits_signed ~width:(w - 1) x))
       &&
       if x >= 0 then
         let u = Bits.bits_for_unsigned x in
         Bits.fits_unsigned ~width:u x
         && (u = 1 || not (Bits.fits_unsigned ~width:(u - 1) x))
       else true)

(* Half the cases are 32-bit values (the SWAR path: warp masks with
   bits 30 and 31), half any int (the loop: bits above 31, negatives). *)
let prop_popcount =
  QCheck.Test.make ~name:"popcount matches naive count" ~count:500
    (QCheck.oneof [ QCheck.int_range 0 0xffff_ffff; QCheck.int ])
    (fun x ->
       let naive = ref 0 in
       for i = 0 to 62 do
         if (x lsr i) land 1 = 1 then incr naive
       done;
       Bits.popcount x = !naive)

let prop_slices =
  QCheck.Test.make ~name:"slices_of_bits is a clamped ceiling" ~count:200
    (QCheck.int_range 1 64)
    (fun b ->
       let s = Bits.slices_of_bits b in
       s = max 1 (min 8 ((b + 3) / 4)))

(* ---------------------------------------------------------------- *)
(* Rng determinism and distribution sanity *)

let test_rng_deterministic () =
  let a = Gpr_util.Rng.create 42 and b = Gpr_util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Gpr_util.Rng.int a 1000)
      (Gpr_util.Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Gpr_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Gpr_util.Rng.int r 10 in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < 10);
    let f = Gpr_util.Rng.uniform r in
    Alcotest.(check bool) "uniform bounds" true (f >= 0.0 && f < 1.0)
  done

let test_rng_mean () =
  let r = Gpr_util.Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do sum := !sum +. Gpr_util.Rng.uniform r done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_shuffle_permutation () =
  let r = Gpr_util.Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Gpr_util.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ---------------------------------------------------------------- *)
(* Stats *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Gpr_util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0
    (Gpr_util.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-6)) "geomean_ratio of equal" 10.0
    (Gpr_util.Stats.geomean_ratio [ 10.0; 10.0 ]);
  let lo, hi = Gpr_util.Stats.min_max [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "min" 1.0 lo;
  Alcotest.(check (float 0.0)) "max" 3.0 hi;
  Alcotest.(check (float 1e-9)) "median" 2.0
    (Gpr_util.Stats.percentile [ 1.0; 2.0; 3.0 ] 50.0)

(* Every function runs once per round, in order; the result is the
   fastest call of each, so a slower round does not raise it. *)
let test_best_cpu_times () =
  let log = ref [] and round = ref 0 in
  let spin () =
    let t0 = Sys.time () in
    while Sys.time () -. t0 < 0.01 do () done
  in
  let fs =
    [| (fun () -> incr round; log := 0 :: !log; if !round = 2 then spin ());
       (fun () -> log := 1 :: !log) |]
  in
  let best = Gpr_util.Stats.best_cpu_times ~rounds:3 fs in
  Alcotest.(check (list int)) "interleaved" [ 0; 1; 0; 1; 0; 1 ] (List.rev !log);
  Alcotest.(check int) "one per function" 2 (Array.length best);
  Alcotest.(check bool) "slow round not kept" true (best.(0) < 0.01)

(* The rank used to go out of bounds for p outside [0, 100]; it now
   clamps to the extreme order statistics. *)
let test_percentile_edges () =
  let xs = [ 5.0; 1.0; 3.0 ] in
  let pc p = Gpr_util.Stats.percentile xs p in
  Alcotest.(check (float 0.0)) "p=0 is the minimum" 1.0 (pc 0.0);
  Alcotest.(check (float 0.0)) "p=100 is the maximum" 5.0 (pc 100.0);
  Alcotest.(check (float 0.0)) "p<0 clamps to the minimum" 1.0 (pc (-10.0));
  Alcotest.(check (float 0.0)) "p>100 clamps to the maximum" 5.0 (pc 1000.0);
  Alcotest.(check (float 0.0)) "singleton, any p" 7.0
    (Gpr_util.Stats.percentile [ 7.0 ] 250.0);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Gpr_util.Stats.percentile [] 50.0));
  Alcotest.(check bool) "nan p is nan" true
    (Float.is_nan (pc Float.nan))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:500
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 20) (float_range (-100.0) 100.0))
        (float_range (-50.0) 150.0)
        (float_range (-50.0) 150.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Gpr_util.Stats.percentile xs lo <= Gpr_util.Stats.percentile xs hi)

(* ---------------------------------------------------------------- *)
(* Image *)

let test_image () =
  let img = Gpr_util.Image.init ~width:4 ~height:3 (fun ~x ~y -> float_of_int (x + y)) in
  Alcotest.(check (float 0.0)) "get" 3.0 (Gpr_util.Image.get img ~x:2 ~y:1);
  Alcotest.(check (float 0.0)) "clamped" 5.0
    (Gpr_util.Image.get_clamped img ~x:10 ~y:10);
  Gpr_util.Image.set img ~x:0 ~y:0 9.0;
  Alcotest.(check (float 0.0)) "set" 9.0 (Gpr_util.Image.get img ~x:0 ~y:0);
  let doubled = Gpr_util.Image.map (fun v -> v *. 2.0) img in
  Alcotest.(check (float 0.0)) "map" 18.0 (Gpr_util.Image.get doubled ~x:0 ~y:0)

(* ---------------------------------------------------------------- *)
(* Tab *)

let test_tab_render () =
  let s =
    Gpr_util.Tab.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "20" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* All lines padded to the same visible width pattern: header and rows
     share column widths. *)
  Alcotest.(check bool) "right aligned numbers" true
    (String.length (List.nth lines 2) >= String.length "alpha  1")

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests) in
  Alcotest.run "util"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "div" `Quick test_interval_div;
          Alcotest.test_case "shift" `Quick test_interval_shift;
          Alcotest.test_case "widen/narrow" `Quick test_interval_widen_narrow;
          Alcotest.test_case "rem" `Quick test_interval_rem;
          Alcotest.test_case "clamp" `Quick test_interval_clamp;
        ] );
      qsuite "interval-props"
        (interval_soundness_tests
         @ [
             prop_join_contains; prop_meet_subset; prop_widen_upper;
             prop_band_sound; prop_lattice_commutes; prop_lattice_idempotent;
             prop_lattice_assoc; prop_lattice_absorption; prop_lattice_units;
             prop_subset_order;
           ]);
      ( "bits",
        [
          Alcotest.test_case "widths" `Quick test_bits_widths;
          Alcotest.test_case "extend" `Quick test_bits_extend;
          Alcotest.test_case "slices" `Quick test_bits_slices;
        ] );
      qsuite "bits-props"
        [
          prop_sign_extend_roundtrip; prop_pack_unpack_signed;
          prop_pack_unpack_unsigned; prop_extend_canonical;
          prop_bits_for_minimal; prop_popcount; prop_slices;
        ];
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "mean" `Quick test_rng_mean;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "best cpu times" `Quick test_best_cpu_times;
        ] );
      qsuite "stats-props" [ prop_percentile_monotone ];
      ("image", [ Alcotest.test_case "image" `Quick test_image ]);
      ("tab", [ Alcotest.test_case "render" `Quick test_tab_render ]);
    ]
