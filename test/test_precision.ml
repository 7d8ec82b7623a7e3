(* Precision-tuner tests on synthetic evaluation oracles where the
   achievable format of every site is known in advance, plus an
   end-to-end run on a real kernel with dead and live float values. *)

open Gpr_isa.Types
module P = Gpr_precision.Precision
module Q = Gpr_quality.Quality
module F = Gpr_fp.Format_
module Inputs = Gpr_workloads.Inputs

let mk_sites n =
  List.init n (fun i -> (i, { id = 100 + i; ty = F32; name = "f" }))

(* The format an evaluation stores site [pc] in: 32 bits past the
   table's end. *)
let bits_at table pc =
  if pc < Array.length table then table.(pc).F.total_bits else 32

(* Oracle: quality holds iff every site is at least [floor] bits wide. *)
let oracle ~floors sites ~quantize =
  let ok =
    List.for_all (fun (pc, _) -> bits_at quantize pc >= List.assoc pc floors) sites
  in
  if ok then Q.S_deviation_pct 0.0 else Q.S_deviation_pct 100.0

let test_single_site_floor () =
  List.iter
    (fun floor_bits ->
       let sites = mk_sites 1 in
       let floors = [ (0, floor_bits) ] in
       let asg =
         P.tune ~sites ~evaluate:(oracle ~floors sites) ~threshold:Q.Perfect ()
       in
       let f = Hashtbl.find asg.P.formats 0 in
       Alcotest.(check int)
         (Printf.sprintf "reaches floor %d" floor_bits)
         floor_bits f.F.total_bits)
    [ 32; 28; 24; 20; 16; 12; 8 ]

let test_mixed_floors () =
  let sites = mk_sites 4 in
  let floors = [ (0, 8); (1, 20); (2, 32); (3, 12) ] in
  let asg =
    P.tune ~sites ~evaluate:(oracle ~floors sites) ~threshold:Q.Perfect ()
  in
  List.iter
    (fun (pc, want) ->
       Alcotest.(check int)
         (Printf.sprintf "site %d" pc)
         want (Hashtbl.find asg.P.formats pc).F.total_bits)
    floors

let test_budget_safety () =
  let sites = mk_sites 8 in
  let floors = List.init 8 (fun i -> (i, if i mod 2 = 0 then 8 else 24)) in
  let eval = oracle ~floors sites in
  let asg = P.tune ~budget:3 ~sites ~evaluate:eval ~threshold:Q.Perfect () in
  Alcotest.(check bool) "within budget" true (asg.P.evaluations <= 3);
  Alcotest.(check bool) "still valid" true
    (Q.meets (eval ~quantize:(P.quantizer asg)) Q.Perfect)

let test_min_group_coarsens () =
  let sites = mk_sites 8 in
  let floors = List.init 8 (fun i -> (i, if i = 0 then 32 else 8)) in
  (* With min_group = 8 the whole group is pinned by site 0. *)
  let asg =
    P.tune ~min_group:8 ~sites ~evaluate:(oracle ~floors sites)
      ~threshold:Q.Perfect ()
  in
  List.iter
    (fun (pc, _) ->
       Alcotest.(check int) "pinned at 32" 32
         (Hashtbl.find asg.P.formats pc).F.total_bits)
    floors;
  (* Fine-grained bisection frees the other sites. *)
  let asg =
    P.tune ~min_group:1 ~sites ~evaluate:(oracle ~floors sites)
      ~threshold:Q.Perfect ()
  in
  Alcotest.(check int) "site 0 pinned" 32
    (Hashtbl.find asg.P.formats 0).F.total_bits;
  Alcotest.(check int) "site 3 free" 8
    (Hashtbl.find asg.P.formats 3).F.total_bits

let test_no_reduction_and_quantizer () =
  (* An all-f32 table leaves every float register untouched: the
     loaded 1/3 is not even rounded to f32. *)
  let module E = Gpr_exec.Exec in
  let open Gpr_isa in
  let b = Builder.create ~name:"id" in
  let open Builder in
  let x = global_buffer b F32 "x" in
  let i = global_thread_id_x b in
  st b x ~$i ~$(ld b x ~$i);
  let kernel = finish b in
  let sites = E.float_def_sites kernel in
  let asg = P.no_reduction ~sites in
  let table = P.quantizer asg in
  Alcotest.(check int) "ends after the last site"
    (1 + List.fold_left (fun m (pc, _) -> max m pc) 0 sites)
    (Array.length table);
  Alcotest.(check bool) "all f32" true (Array.for_all (fun f -> f = F.f32) table);
  let xd = Array.make 32 (1.0 /. 3.0) in
  ignore
    (E.run kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
       ~bindings:(E.bindings_for kernel ~data:[ ("x", E.F_data xd) ] ())
       { E.default_config with quantize = Some table });
  Alcotest.(check int64) "identity table" (Int64.bits_of_float (1.0 /. 3.0))
    (Int64.bits_of_float xd.(0));
  Alcotest.(check (float 1e-9)) "mean 32" 32.0 (P.mean_bits asg)

let test_var_bits_max_over_sites () =
  let r = { id = 7; ty = F32; name = "x" } in
  let sites = [ (0, r); (1, r) ] in
  let formats = Hashtbl.create 4 in
  Hashtbl.replace formats 0 (F.of_level 6);  (* 8 bits *)
  Hashtbl.replace formats 1 (F.of_level 3);  (* 20 bits *)
  let asg = { P.formats; sites; evaluations = 0 } in
  let vb = P.var_bits asg in
  Alcotest.(check int) "max width" 20 (Hashtbl.find vb 7);
  Alcotest.(check (float 1e-9)) "mean bits" 14.0 (P.mean_bits asg)

let test_tuner_on_real_kernel () =
  (* A kernel with a value killed by multiplication with zero: its
     precision is irrelevant, while the surviving value's precision is
     bounded by the perfect threshold. *)
  let open Gpr_isa in
  let b = Builder.create ~name:"sens" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let i = global_thread_id_x b in
  let x = ld b out ~$i in
  let dead = fmul b ~$x (cf 1.2345678) in
  let killed = fmul b ~$dead (cf 0.0) in
  let alive = fmul b ~$x (cf 0.9993) in
  st b out ~$i ~$(fadd b ~$killed ~$alive);
  let kernel = finish b in
  let module E = Gpr_exec.Exec in
  let launch = launch_1d ~block:32 ~grid:1 in
  let run quantize =
    let data = Inputs.qfloats ~seed:9 ~n:32 in
    let bindings = E.bindings_for kernel ~data:[ ("out", E.F_data data) ] () in
    ignore
      (E.run kernel ~launch ~params:[||] ~bindings
         { E.default_config with quantize });
    data
  in
  let reference = run None in
  let sites = E.float_def_sites kernel in
  (* ld, dead, killed, alive, fadd *)
  Alcotest.(check int) "five float sites" 5 (List.length sites);
  let evaluate ~quantize =
    Q.S_deviation_pct (Q.deviation_pct (run (Some quantize)) ~reference)
  in
  let asg = P.tune ~sites ~evaluate ~threshold:Q.Perfect () in
  (* Quality must hold at the final assignment... *)
  Alcotest.(check bool) "final valid" true
    (Q.meets (evaluate ~quantize:(P.quantizer asg)) Q.Perfect);
  (* ...and the dead chain compresses further than the live one. *)
  (match sites with
   | _ld :: (pc_dead, _) :: _ ->
     Alcotest.(check bool) "dead value fully reduced" true
       ((Hashtbl.find asg.P.formats pc_dead).F.total_bits <= 12)
   | _ -> Alcotest.fail "no sites");
  Alcotest.(check bool) "mean below 32" true (P.mean_bits asg < 32.0)

let () =
  Alcotest.run "precision"
    [
      ( "oracle",
        [
          Alcotest.test_case "single-site floors" `Quick test_single_site_floor;
          Alcotest.test_case "mixed floors" `Quick test_mixed_floors;
          Alcotest.test_case "budget safety" `Quick test_budget_safety;
          Alcotest.test_case "min_group coarsens" `Quick test_min_group_coarsens;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "no_reduction + quantizer" `Quick
            test_no_reduction_and_quantizer;
          Alcotest.test_case "var_bits max" `Quick test_var_bits_max_over_sites;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "dead vs live values" `Quick
            test_tuner_on_real_kernel ] );
    ]
