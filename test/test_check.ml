(* Tests of the differential fuzzing subsystem itself: the oracle is
   clean on healthy code, catches injected analysis bugs, and the
   shrinker minimises counterexamples while preserving the failure
   class. *)

open Gpr_isa.Types
module Gen = Gpr_check.Gen
module Diff = Gpr_check.Diff
module Shrink = Gpr_check.Shrink
module Runner = Gpr_check.Runner
module Range = Gpr_analysis.Range
module I = Gpr_util.Interval

let test_generator_deterministic () =
  let a = Gen.generate 42 and b = Gen.generate 42 in
  Alcotest.(check string)
    "same kernel"
    (Gpr_isa.Pp.kernel_to_string a.Gen.kernel)
    (Gpr_isa.Pp.kernel_to_string b.Gen.kernel);
  Alcotest.(check bool) "same data" true (a.Gen.data () = b.Gen.data ());
  Alcotest.(check bool)
    "fresh arrays per call" false
    (match (a.Gen.data (), a.Gen.data ()) with
     | (_, Gpr_exec.Exec.I_data x) :: _, (_, Gpr_exec.Exec.I_data y) :: _ ->
       x == y
     | _ -> true)

let test_generator_varies () =
  let shapes =
    List.init 8 (fun i ->
        Gpr_isa.Pp.instr_count (Gen.generate (i + 1)).Gen.kernel)
  in
  Alcotest.(check bool)
    "kernels differ across seeds" true
    (List.length (List.sort_uniq compare shapes) > 1)

let test_clean_seeds () =
  let summary = Runner.run ~shrink:false ~seed:1 ~count:40 () in
  Alcotest.(check int) "all checked" 40 summary.Runner.checked;
  (match summary.Runner.reports with
   | [] -> ()
   | r :: _ -> Alcotest.fail (Runner.report_to_string r))

let test_clean_seeds_backend_stages () =
  (* The scheme-generic oracle stages (plain-vs-backend differential +
     timing parity) must also be clean on known-good seeds. *)
  let summary =
    Runner.run ~shrink:false ~backends:[ "spill"; "baseline" ] ~seed:1
      ~count:25 ()
  in
  Alcotest.(check int) "all checked" 25 summary.Runner.checked;
  (match summary.Runner.reports with
   | [] -> ()
   | r :: _ -> Alcotest.fail (Runner.report_to_string r));
  Alcotest.(check bool) "unknown backend rejected up front" true
    (match Runner.run ~shrink:false ~backends:[ "bogus" ] ~seed:1 ~count:1 () with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* Wrap a (possibly corrupted) interval analysis into the width
   record the oracle consumes: no known-bits/congruence/demanded
   refinement, so the product widths are exactly the interval widths
   under test. *)
let width_of_range (rt : Range.t) =
  let n = Array.length rt.Range.var_bits in
  {
    Gpr_analysis.Width.range = rt;
    known = Array.make n Gpr_analysis.Knownbits.Bot;
    cong = Array.make n Gpr_analysis.Congruence.Bot;
    demanded = Array.make n 32;
    var_bits = Array.copy rt.Range.var_bits;
  }

(* Corrupt the analysis result after the fact: collapsing every finite
   range to its lower bound makes the analysis claim values it cannot
   justify, which the runtime soundness hook must catch. *)
let collapse_ranges (rt : Range.t) =
  {
    rt with
    Range.var_ranges =
      Array.map
        (fun iv ->
           match iv with
           | I.Range (I.Finite lo, I.Finite hi) when hi > lo ->
             I.of_const lo
           | _ -> iv)
        rt.Range.var_ranges;
  }

let bad_analyze k ~launch =
  width_of_range (collapse_ranges (Range.analyze k ~launch))

let test_catches_bad_ranges () =
  let case = Gen.generate 3 in
  match Diff.check ~analyze:bad_analyze Diff.Exact case with
  | () -> Alcotest.fail "corrupted analysis went undetected"
  | exception Diff.Check_failed (Diff.Range_violation _) -> ()
  | exception Diff.Check_failed f ->
    Alcotest.fail ("wrong failure class: " ^ Diff.to_string f)

(* Corrupt the claimed widths instead: ranges stay sound, so the first
   thing to break is the slice round-trip through the datapath. *)
let narrow_bits (rt : Range.t) =
  {
    rt with
    Range.var_bits =
      Array.map (fun b -> if b > 2 then b - 2 else b) rt.Range.var_bits;
  }

let narrow_analyze k ~launch =
  width_of_range (narrow_bits (Range.analyze k ~launch))

let test_catches_bad_widths () =
  let case = Gen.generate 3 in
  match Diff.check ~analyze:narrow_analyze Diff.Exact case with
  | () -> Alcotest.fail "corrupted widths went undetected"
  | exception Diff.Check_failed (Diff.Storage_violation _) -> ()
  | exception Diff.Check_failed f ->
    Alcotest.fail ("wrong failure class: " ^ Diff.to_string f)

(* Faulty register-file schemes: a healthy scheme whose resources are
   corrupted after the fact, as a broken [analyze] would produce them.
   The scheme-generic oracle must catch each. *)
module Backend = Gpr_backend.Backend
module Alloc = Gpr_alloc.Alloc

let corrupt_scheme corrupt : Backend.t =
  let module S = (val Gpr_backend.Registry.find_exn "slice" : Backend.Scheme)
  in
  (module struct
    include S

    let analyze ~kernel ~width ~precision =
      corrupt kernel (S.analyze ~kernel ~width ~precision)
  end)

let with_placements (res : Backend.resources) f =
  let placements = Hashtbl.copy res.Backend.alloc.Alloc.placements in
  f placements;
  { res with Backend.alloc = { res.Backend.alloc with Alloc.placements } }

(* Forget the placement of the first live register: it is then neither
   resident nor spilled. *)
let drop_live_register kernel res =
  let live = Gpr_analysis.Liveness.(intervals (compute kernel)) in
  with_placements res (fun placements ->
      match live with
      | (v, _, _) :: _ -> Hashtbl.remove placements v
      | [] -> ())

(* Shrink every multi-slice integer placement to its lowest slice.  The
   result is still structurally valid (4 bits in one slice, masks a
   subset of disjoint ones), so only the storage round-trip can see
   it. *)
let over_narrow _kernel res =
  let narrow (p : Alloc.placement) =
    if p.is_float || p.slices <= 1 then p
    else
      { p with
        mask0 = p.mask0 land (- p.mask0); reg1 = -1; mask1 = 0; slices = 1;
        bits = 4 }
  in
  with_placements res (Hashtbl.filter_map_inplace (fun _ p -> Some (narrow p)))

let expect_backend_failure what scheme ~is_expected =
  let case = Gen.generate 3 in
  match Diff.check_backend scheme case with
  | () -> Alcotest.fail (what ^ " went undetected")
  | exception Diff.Check_failed f when is_expected f -> ()
  | exception Diff.Check_failed f ->
    Alcotest.fail ("wrong failure class: " ^ Diff.to_string f)

let test_backend_catches_dropped_register () =
  expect_backend_failure "dropped live register"
    (corrupt_scheme drop_live_register)
    ~is_expected:(function Diff.Alloc_violation _ -> true | _ -> false)

let test_backend_catches_over_narrow () =
  expect_backend_failure "over-narrowed placement"
    (corrupt_scheme over_narrow)
    ~is_expected:(function Diff.Storage_violation _ -> true | _ -> false)

let test_shrinks_counterexample () =
  let case = Gen.generate 3 in
  let still_fails kernel =
    match Diff.check ~analyze:bad_analyze Diff.Exact { case with Gen.kernel } with
    | () -> false
    | exception Diff.Check_failed f -> Diff.category f = "range"
    | exception _ -> false
  in
  Alcotest.(check bool) "original fails" true (still_fails case.Gen.kernel);
  let shrunk = Shrink.shrink ~still_fails case.Gen.kernel in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d" (Shrink.size case.Gen.kernel)
       (Shrink.size shrunk))
    true
    (Shrink.size shrunk < Shrink.size case.Gen.kernel);
  Alcotest.(check bool) "shrunk still fails" true (still_fails shrunk);
  Alcotest.(check bool)
    "local minimum is small" true
    (Shrink.size shrunk <= 5)

(* The shrinker on a synthetic monotone predicate: "contains an ffma"
   survives any removal of other instructions, so greedy descent must
   reach exactly one instruction. *)
let test_shrink_to_predicate_minimum () =
  let b = Gpr_isa.Builder.create ~name:"shr" in
  let open Gpr_isa.Builder in
  let out = global_buffer b F32 "out" in
  let gid = global_thread_id_x b in
  let x = itof b ~$gid in
  let y = fadd b ~$x (cf 1.0) in
  let z = ffma b ~$x ~$y (cf 0.5) in
  let w = fmul b ~$z ~$z in
  st b out ~$gid ~$w;
  let kernel = finish b in
  let has_ffma k =
    Array.exists
      (fun blk ->
         Array.exists (function Ffma _ -> true | _ -> false) blk.instrs)
      k.k_blocks
  in
  let shrunk = Shrink.shrink ~still_fails:has_ffma kernel in
  Alcotest.(check int) "one instruction left" 1 (Shrink.size shrunk);
  Alcotest.(check bool) "it is the ffma" true (has_ffma shrunk)

let test_copy_kernel_isolates () =
  let case = Gen.generate 5 in
  let k = case.Gen.kernel in
  let copy = Shrink.copy_kernel k in
  copy.k_blocks.(0).instrs <- [||];
  Alcotest.(check bool)
    "original untouched" true
    (Array.length k.k_blocks.(0).instrs > 0)

let test_exec_step_budget () =
  (* A deliberate infinite loop must hit the executor's watchdog, not
     hang: this is what keeps the shrinker total. *)
  let b = Gpr_isa.Builder.create ~name:"spin" in
  let open Gpr_isa.Builder in
  let out = global_buffer b S32 "out" in
  let gid = global_thread_id_x b in
  let v = var b S32 "v" in
  assign b v (ci 0);
  while_ b
    (fun () -> ige b ~$v (ci 0))
    (fun () -> assign b v (ci 1));
  st b out ~$gid ~$v;
  let kernel = finish b in
  let module E = Gpr_exec.Exec in
  let launch = launch_1d ~block:32 ~grid:1 in
  let data = [ ("out", E.I_data (Array.make 32 0)) ] in
  let bindings = E.bindings_for kernel ~data () in
  match
    E.run kernel ~launch ~params:[||] ~bindings
      { E.default_config with max_steps = Some 10_000 }
  with
  | _ -> Alcotest.fail "watchdog did not fire"
  | exception Failure msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions the budget" true (contains msg "budget")

let test_exec_branch_budget () =
  (* Greedy shrinking can empty a loop body completely, leaving a cycle
     of blocks whose only work is the branch terminator.  Branches are
     not traced, but they must still drain the step budget or such a
     candidate spins forever. *)
  let b = Gpr_isa.Builder.create ~name:"spin_br" in
  let open Gpr_isa.Builder in
  let out = global_buffer b S32 "out" in
  let gid = global_thread_id_x b in
  let v = var b S32 "v" in
  assign b v (ci 0);
  while_ b
    (fun () -> ige b ~$v (ci 0))
    (fun () -> assign b v (ci 1));
  st b out ~$gid ~$v;
  let kernel = finish b in
  Array.iter
    (fun blk ->
       blk.instrs <- [||];
       match blk.term with
       | Cbr (_, t, _) -> blk.term <- Br t
       | _ -> ())
    kernel.k_blocks;
  let module E = Gpr_exec.Exec in
  let launch = launch_1d ~block:32 ~grid:1 in
  let data = [ ("out", E.I_data (Array.make 32 0)) ] in
  let bindings = E.bindings_for kernel ~data () in
  match
    E.run kernel ~launch ~params:[||] ~bindings
      { E.default_config with max_steps = Some 10_000 }
  with
  | _ -> Alcotest.fail "watchdog did not fire on a pure-branch loop"
  | exception Failure msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions the budget" true (contains msg "budget")

(* Sharding the seed space over a domain pool must produce the same
   summary as the serial run — seeds are independent and results are
   collected in seed order. *)
let test_sharded_matches_serial () =
  let serial = Runner.run ~shrink:false ~seed:1 ~count:16 () in
  let sharded = Runner.run ~shrink:false ~seed:1 ~count:16 ~jobs:3 () in
  Alcotest.(check int) "same checked" serial.Runner.checked
    sharded.Runner.checked;
  Alcotest.(check (list string)) "same reports"
    (List.map Runner.report_to_string serial.Runner.reports)
    (List.map Runner.report_to_string sharded.Runner.reports)

let prop_random_seeds_clean =
  QCheck.Test.make ~name:"oracle clean on random seeds" ~count:25
    (QCheck.int_range 1000 1_000_000)
    (fun seed -> Runner.run_seed ~shrink:false seed = None)

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "varies" `Quick test_generator_varies;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean seeds" `Quick test_clean_seeds;
          Alcotest.test_case "clean seeds (backend stages)" `Quick
            test_clean_seeds_backend_stages;
          Alcotest.test_case "catches bad ranges" `Quick test_catches_bad_ranges;
          Alcotest.test_case "catches bad widths" `Quick test_catches_bad_widths;
          Alcotest.test_case "backend catches dropped register" `Quick
            test_backend_catches_dropped_register;
          Alcotest.test_case "backend catches over-narrow placement" `Quick
            test_backend_catches_over_narrow;
          Alcotest.test_case "step budget" `Quick test_exec_step_budget;
          Alcotest.test_case "step budget (pure-branch loop)" `Quick
            test_exec_branch_budget;
          Alcotest.test_case "sharded matches serial" `Quick
            test_sharded_matches_serial;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "shrinks counterexample" `Quick
            test_shrinks_counterexample;
          Alcotest.test_case "predicate minimum" `Quick
            test_shrink_to_predicate_minimum;
          Alcotest.test_case "copy isolates" `Quick test_copy_kernel_isolates;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_random_seeds_clean;
        ] );
    ]
