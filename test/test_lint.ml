(* Static kernel verifier tests: one positive (diagnostic fired, right
   code and location) and one negative case per pass, a seeded corpus
   of known-racy/divergent kernels checked against both the expected
   diagnostic code and the dynamic monitor, and the fuzz-backed
   soundness-parity property (static-clean => dynamic-monitor-silent)
   over generated kernels. *)

open Gpr_isa
open Gpr_isa.Types
module L = Gpr_lint.Lint
module D = Gpr_lint.Diag
module U = Gpr_lint.Uniformity
module E = Gpr_exec.Exec
module I = Gpr_util.Interval

let codes ds = List.map (fun d -> d.D.d_code) ds
let has_code c ds = List.mem c (codes ds)

let errors ds = List.filter (fun d -> d.D.d_severity = D.Error) ds

let check_has kernel c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" kernel.k_name c
       (String.concat " " (codes ds)))
    true (has_code c ds)

let check_lacks kernel c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s must not report %s" kernel.k_name c)
    false (has_code c ds)

(* Run the executor with the dynamic barrier/race monitor armed and
   collect its events.  Buffers default to zero-filled arrays. *)
let monitor_events ?(shared = []) kernel ~launch =
  let data =
    Array.to_list kernel.k_buffers
    |> List.filter_map (fun (b : buffer) ->
           if b.buf_space = Shared then None
           else
             Some
               ( b.buf_name,
                 match b.buf_elem with
                 | F32 -> E.F_data (Array.make 1024 0.0)
                 | _ -> E.I_data (Array.make 1024 0) ))
  in
  let bindings = E.bindings_for kernel ~data ~shared () in
  let events = ref [] in
  ignore
    (E.run ~check:true kernel ~launch ~params:[||] ~bindings
       {
         E.default_config with
         max_steps = Some 1_000_000;
         on_monitor = Some (fun ev -> events := ev :: !events);
       });
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Pass 1: divergence *)

let test_divergence_positive () =
  let b = Builder.create ~name:"div_pos" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  if_then b (ilt b ~$tid (ci 7)) (fun () -> st b out ~$tid (ci 1));
  let k = finish b in
  let launch = launch_1d ~block:32 ~grid:1 in
  let ds = L.lint k ~launch in
  check_has k "GL100" ds;
  (* the abstract values behind it: tid is stride-1 affine *)
  let ctx = L.make_ctx k ~launch in
  let uni = L.uniformity ctx in
  let tid_id =
    match List.find_opt (fun (_, s) -> s = Tid_x) k.k_specials with
    | Some (id, _) -> id
    | None -> Alcotest.fail "no tid.x special"
  in
  (match U.value uni tid_id with
  | U.Affine (1, base) ->
    Alcotest.(check bool) "tid base {0}" true (I.equal base (I.of_const 0))
  | v -> Alcotest.fail ("tid classified " ^ U.av_to_string v))

let test_divergence_negative () =
  let b = Builder.create ~name:"div_neg" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let n = param_i32 b ~range:(0, 16) "n" in
  let tid = tid_x b in
  (* branch on a uniform (parameter) predicate: no divergence *)
  if_then b (ilt b ~$n (ci 7)) (fun () -> st b out ~$tid (ci 1));
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_lacks k "GL100" ds;
  Alcotest.(check int) "no errors" 0 (List.length (errors ds))

(* ------------------------------------------------------------------ *)
(* Pass 2: barrier *)

let divergent_barrier_kernel () =
  let b = Builder.create ~name:"bar_div" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let tid = tid_x b in
  if_then b (ilt b ~$tid (ci 16)) (fun () ->
      st b sh ~$tid ~$tid;
      bar b);
  finish b

let test_barrier_positive () =
  let k = divergent_barrier_kernel () in
  let ds = L.lint k ~launch:(launch_1d ~block:64 ~grid:1) in
  check_has k "GL101" ds;
  let d = List.find (fun d -> d.D.d_code = "GL101") ds in
  Alcotest.(check bool) "GL101 is an error" true (d.D.d_severity = D.Error);
  (* location points at an actual bar.sync *)
  (match D.quote k d.D.d_loc with
  | Some q ->
    Alcotest.(check bool) ("location quotes a bar: " ^ q) true
      (String.length q >= 3 && String.sub q 0 3 = "bar")
  | None -> Alcotest.fail "GL101 lost its location")

let test_barrier_divergent_exit () =
  let b = Builder.create ~name:"bar_exit" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let tid = tid_x b in
  if_then b (ilt b ~$tid (ci 4)) (fun () -> ret b);
  st b sh ~$tid ~$tid;
  bar b;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:64 ~grid:1) in
  check_has k "GL102" ds;
  check_has k "GL101" ds

let test_barrier_negative () =
  let b = Builder.create ~name:"bar_ok" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let n = param_i32 b ~range:(0, 16) "n" in
  let tid = tid_x b in
  (* uniform branch around work, barrier at top level: fine *)
  if_then b (ilt b ~$n (ci 9)) (fun () -> st b sh ~$tid ~$tid);
  bar b;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:64 ~grid:1) in
  check_lacks k "GL101" ds;
  check_lacks k "GL102" ds

(* ------------------------------------------------------------------ *)
(* Pass 3: shared races *)

let ww_race_kernel () =
  let b = Builder.create ~name:"race_ww" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let tid = tid_x b in
  st b sh (ci 0) ~$tid;
  finish b

let rw_race_kernel () =
  let b = Builder.create ~name:"race_rw" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b sh ~$tid ~$tid;
  (* same barrier interval: thread t reads the element thread t+1 wrote *)
  let v = ld b sh ~$(iadd b ~$tid (ci 1)) in
  st b out ~$tid ~$v;
  finish b

let test_race_ww () =
  let k = ww_race_kernel () in
  let ds = L.lint k ~launch:(launch_1d ~block:64 ~grid:1) in
  check_has k "GL201" ds;
  let d = List.find (fun d -> d.D.d_code = "GL201") ds in
  Alcotest.(check bool) "error severity" true (d.D.d_severity = D.Error)

let test_race_rw () =
  let k = rw_race_kernel () in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL202" ds

let test_race_possible () =
  let b = Builder.create ~name:"race_maybe" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let tid = tid_x b in
  (* divergent (non-affine) index: the analysis cannot prove anything *)
  st b sh ~$(irem b ~$tid (ci 7)) ~$tid;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL203" ds;
  check_lacks k "GL201" ds

let test_race_benign_broadcast () =
  let b = Builder.create ~name:"race_bcast" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  st b sh (ci 0) (ci 42);
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:64 ~grid:1) in
  check_has k "GL204" ds;
  check_lacks k "GL201" ds

let test_race_negative () =
  let b = Builder.create ~name:"race_ok" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  (* the canonical exchange: tid-indexed store, barrier, shifted load *)
  st b sh ~$tid ~$tid;
  bar b;
  let v = ld b sh ~$(iadd b ~$tid (ci 1)) in
  st b out ~$tid ~$v;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  List.iter (fun c -> check_lacks k c ds) [ "GL201"; "GL202"; "GL203"; "GL204" ]

(* ------------------------------------------------------------------ *)
(* Pass 4: compression soundness *)

let param_kernel () =
  let b = Builder.create ~name:"narrow" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let n = param_i32 b ~range:(0, 1000) "n" in
  let tid = tid_x b in
  st b out ~$tid ~$(iadd b ~$n (ci 1));
  finish b

let test_compression_positive () =
  let k = param_kernel () in
  let launch = launch_1d ~block:32 ~grid:1 in
  (* Force every integer into 4 bits: ranges like [0,1000] need more, so
     the audit must flag the allocation as unsound. *)
  let width_of (r : vreg) = match r.ty with S32 | U32 -> 4 | _ -> 32 in
  let ctx = L.make_ctx ~width_of k ~launch in
  let ds = L.run ctx in
  check_has k "GL301" ds

let test_compression_structural () =
  let b = Builder.create ~name:"malformed" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let v = iadd b ~$tid (ci 1) in
  st b out ~$tid ~$v;
  let k = finish b in
  let launch = launch_1d ~block:32 ~grid:1 in
  let alloc = Gpr_alloc.Alloc.baseline k in
  (* corrupt v's slice count: structurally malformed placement *)
  (match Gpr_alloc.Alloc.lookup alloc v.id with
  | Some p ->
    Hashtbl.replace alloc.placements v.id
      { p with Gpr_alloc.Alloc.slices = p.Gpr_alloc.Alloc.slices + 1 }
  | None -> Alcotest.fail "v not placed");
  let ds = L.run (L.make_ctx ~alloc k ~launch) in
  check_has k "GL302" ds

let test_compression_overlap () =
  let b = Builder.create ~name:"overlap" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  (* x and y are simultaneously live (both feed the final store) *)
  let x = iadd b ~$tid (ci 1) in
  let y = iadd b ~$tid (ci 2) in
  st b out ~$tid ~$(iadd b ~$x ~$y);
  let k = finish b in
  let launch = launch_1d ~block:32 ~grid:1 in
  let alloc = Gpr_alloc.Alloc.baseline k in
  (* force y onto x's physical register and slices *)
  (match Gpr_alloc.Alloc.lookup alloc x.id with
  | Some px -> Hashtbl.replace alloc.placements y.id px
  | None -> Alcotest.fail "x not placed");
  let ds = L.run (L.make_ctx ~alloc k ~launch) in
  check_has k "GL303" ds

let test_compression_negative () =
  let k = param_kernel () in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  List.iter (fun c -> check_lacks k c ds) [ "GL301"; "GL302"; "GL303" ]

(* ------------------------------------------------------------------ *)
(* Pass 5: bounds *)

let test_bounds_definite () =
  let b = Builder.create ~name:"oob_def" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  st b out (ci (-1)) (ci 0);
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL401" ds

let test_bounds_possible () =
  let b = Builder.create ~name:"oob_maybe" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b out ~$tid (ci 0);
  let k = finish b in
  let buffer_len = function "out" -> Some 16 | _ -> None in
  let ds = L.lint ~buffer_len k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL402" ds;
  check_lacks k "GL401" ds

let test_bounds_negative () =
  let b = Builder.create ~name:"oob_none" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b out ~$tid (ci 0);
  let k = finish b in
  let buffer_len = function "out" -> Some 32 | _ -> None in
  let ds = L.lint ~buffer_len k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_lacks k "GL401" ds;
  check_lacks k "GL402" ds

(* ------------------------------------------------------------------ *)
(* Pass 6: definite assignment / dead stores *)

let test_defs_use_before_assign () =
  let b = Builder.create ~name:"maybe_uninit" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let n = param_i32 b ~range:(0, 16) "n" in
  let tid = tid_x b in
  let x = var b S32 "x" in
  if_then b (ilt b ~$n (ci 8)) (fun () -> assign b x (ci 5));
  (* on the else path x was never assigned *)
  st b out ~$tid ~$x;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL501" ds

let test_defs_dead_store () =
  let b = Builder.create ~name:"dead" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let (_ : vreg) = iadd b ~$tid (ci 99) in
  st b out ~$tid ~$tid;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL502" ds

let test_defs_negative () =
  let b = Builder.create ~name:"defs_ok" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let x = var b S32 "x" in
  assign b x (ci 1);
  st b out ~$tid ~$(iadd b ~$x ~$tid);
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_lacks k "GL501" ds;
  check_lacks k "GL502" ds

(* ------------------------------------------------------------------ *)
(* Pass 7: bitwidth advisories *)

let test_bitwidth_redundant_mask () =
  let b = Builder.create ~name:"remask" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let x = iand b ~$tid (ci 0xff) in
  (* known bits prove x fits in 8 bits, so this second mask is a no-op *)
  let y = iand b ~$x (ci 0xffff) in
  st b out ~$tid ~$y;
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL601" ds

let test_bitwidth_dead_high_bits () =
  let b = Builder.create ~name:"deadhigh" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  (* v carries ~10 significant bits but only the low 3 are ever read *)
  let v = imul b ~$tid ~$tid in
  st b out ~$tid ~$(iand b ~$v (ci 7));
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL602" ds

let test_bitwidth_shift_oob () =
  let b = Builder.create ~name:"bigshift" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b out ~$tid ~$(ishl b ~$tid (ci 33));
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  check_has k "GL603" ds;
  let d = List.find (fun d -> d.D.d_code = "GL603") ds in
  Alcotest.(check bool) "GL603 is a warning" true (d.D.d_severity = D.Warning)

let test_bitwidth_negative () =
  let b = Builder.create ~name:"bits_ok" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b out ~$tid ~$(iadd b ~$tid (ci 1));
  let k = finish b in
  let ds = L.lint k ~launch:(launch_1d ~block:32 ~grid:1) in
  List.iter (fun c -> check_lacks k c ds) [ "GL601"; "GL602"; "GL603" ]

(* ------------------------------------------------------------------ *)
(* Seeded hazard corpus: each kernel must produce its expected static
   code, and where the hazard is dynamically observable the monitor
   must fire too (static and dynamic verdicts agree). *)

let test_hazard_corpus () =
  let block = 64 in
  let launch = launch_1d ~block ~grid:1 in
  let corpus =
    [
      (divergent_barrier_kernel (), "GL101", true, [ ("sh", block) ]);
      (ww_race_kernel (), "GL201", true, [ ("sh", block) ]);
      (rw_race_kernel (), "GL202", true, [ ("sh", block + 1) ]);
    ]
  in
  List.iter
    (fun (k, code, expect_dynamic, shared) ->
      let ds = L.lint k ~launch in
      check_has k code ds;
      Alcotest.(check bool)
        (k.k_name ^ " not monitor-clean")
        false (L.monitor_clean ds);
      if expect_dynamic then
        let events = monitor_events ~shared k ~launch in
        Alcotest.(check bool)
          (k.k_name ^ " dynamic monitor fires")
          true
          (List.length events > 0))
    corpus

(* A clean kernel: no diagnostics at all, and a silent monitor. *)
let test_clean_kernel () =
  let b = Builder.create ~name:"clean" in
  let open Builder in
  let sh = shared_buffer b S32 "sh" in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  st b sh ~$tid ~$tid;
  bar b;
  let v = ld b sh ~$(iadd b ~$tid (ci 1)) in
  st b out ~$tid ~$v;
  let k = finish b in
  let launch = launch_1d ~block:32 ~grid:1 in
  let ds = L.lint k ~launch in
  Alcotest.(check bool)
    ("clean kernel: " ^ String.concat " " (codes ds))
    true (L.monitor_clean ds);
  Alcotest.(check int) "monitor silent" 0
    (List.length (monitor_events ~shared:[ ("sh", 33) ] k ~launch))

(* ------------------------------------------------------------------ *)
(* Registry gate: zero error-severity diagnostics on every workload. *)

let test_registry_no_errors () =
  List.iter
    (fun (w : Gpr_workloads.Workload.t) ->
      let ds =
        L.lint ~buffer_len:(Gpr_workloads.Workload.buffer_len w) w.kernel
          ~launch:w.launch
      in
      let errs = errors ds in
      Alcotest.(check int)
        (Printf.sprintf "%s error diagnostics (%s)" w.name
           (String.concat " " (codes errs)))
        0 (List.length errs))
    Gpr_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Soundness parity over generated kernels: Diff.check_lint raises
   Lint_unsound iff the dynamic monitor fires on a statically-clean
   kernel. *)

let prop_parity =
  QCheck.Test.make ~name:"static-clean => dynamic-monitor silent" ~count:500
    (QCheck.int_range 1 50_000_000)
    (fun seed ->
      let case = Gpr_check.Gen.generate seed in
      match Gpr_check.Diff.check_lint case with
      | () -> true
      | exception Gpr_check.Diff.Check_failed f ->
        QCheck.Test.fail_reportf "seed %d: %s" seed
          (Gpr_check.Diff.to_string f))

let () =
  Alcotest.run "lint"
    [
      ( "divergence",
        [
          Alcotest.test_case "positive" `Quick test_divergence_positive;
          Alcotest.test_case "negative" `Quick test_divergence_negative;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "positive" `Quick test_barrier_positive;
          Alcotest.test_case "divergent exit" `Quick test_barrier_divergent_exit;
          Alcotest.test_case "negative" `Quick test_barrier_negative;
        ] );
      ( "shared-race",
        [
          Alcotest.test_case "write-write" `Quick test_race_ww;
          Alcotest.test_case "read-write" `Quick test_race_rw;
          Alcotest.test_case "possible" `Quick test_race_possible;
          Alcotest.test_case "benign broadcast" `Quick test_race_benign_broadcast;
          Alcotest.test_case "negative" `Quick test_race_negative;
        ] );
      ( "compression",
        [
          Alcotest.test_case "narrow mask" `Quick test_compression_positive;
          Alcotest.test_case "malformed placement" `Quick
            test_compression_structural;
          Alcotest.test_case "overlap" `Quick test_compression_overlap;
          Alcotest.test_case "negative" `Quick test_compression_negative;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "definite" `Quick test_bounds_definite;
          Alcotest.test_case "possible" `Quick test_bounds_possible;
          Alcotest.test_case "negative" `Quick test_bounds_negative;
        ] );
      ( "defs",
        [
          Alcotest.test_case "use before assign" `Quick
            test_defs_use_before_assign;
          Alcotest.test_case "dead store" `Quick test_defs_dead_store;
          Alcotest.test_case "negative" `Quick test_defs_negative;
        ] );
      ( "bitwidth",
        [
          Alcotest.test_case "redundant mask" `Quick
            test_bitwidth_redundant_mask;
          Alcotest.test_case "dead high bits" `Quick
            test_bitwidth_dead_high_bits;
          Alcotest.test_case "shift out of range" `Quick
            test_bitwidth_shift_oob;
          Alcotest.test_case "negative" `Quick test_bitwidth_negative;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "hazard corpus" `Quick test_hazard_corpus;
          Alcotest.test_case "clean kernel" `Quick test_clean_kernel;
          Alcotest.test_case "registry no errors" `Quick test_registry_no_errors;
        ] );
      ("parity", [ QCheck_alcotest.to_alcotest prop_parity ]);
    ]
