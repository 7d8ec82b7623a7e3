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

(* GL303 completeness: the sorted sweep in the compression pass must
   report exactly the pairs a naive all-pairs check over the same
   intervals reports, in the same order. *)

let vname (r : vreg) =
  if r.name = "" then Printf.sprintf "%%r%d" r.id else "%" ^ r.name

(* The original audit: every interval pair, live together and sharing a
   slice of some register, consing a diagnostic per pair. *)
let gl303_reference k (alloc : Gpr_alloc.Alloc.t) =
  let sites = Hashtbl.create 64 in
  Array.iter
    (fun bi ->
      Array.iteri
        (fun i ins ->
          match defs ins with
          | Some d when not (Hashtbl.mem sites d.id) ->
            Hashtbl.add sites d.id (vname d, D.instr_loc bi i)
          | _ -> ())
        k.k_blocks.(bi).instrs)
    (Cfg.reverse_postorder (Cfg.of_kernel k));
  let name v =
    match Hashtbl.find_opt sites v with
    | Some (n, _) -> n
    | None -> Printf.sprintf "%%r%d" v
  in
  let loc v =
    match Hashtbl.find_opt sites v with Some (_, l) -> l | None -> D.kernel_loc
  in
  let regs (p : Gpr_alloc.Alloc.placement) =
    (p.reg0, p.mask0) :: (if p.reg1 >= 0 then [ (p.reg1, p.mask1) ] else [])
  in
  let share a b =
    List.exists
      (fun (ra, ma) -> List.exists (fun (rb, mb) -> ra = rb && ma land mb <> 0) (regs b))
      (regs a)
  in
  let ivals =
    Gpr_analysis.Liveness.(intervals (compute k))
    |> List.filter (fun (v, _, _) -> Gpr_alloc.Alloc.lookup alloc v <> None)
    |> Array.of_list
  in
  let out = ref [] in
  Array.iteri
    (fun i (v1, s1, e1) ->
      for j = i + 1 to Array.length ivals - 1 do
        let v2, s2, e2 = ivals.(j) in
        let p1 = Option.get (Gpr_alloc.Alloc.lookup alloc v1)
        and p2 = Option.get (Gpr_alloc.Alloc.lookup alloc v2) in
        if s1 < e2 && s2 < e1 && share p1 p2 then
          out :=
            ( loc v1,
              Printf.sprintf
                "placements of %s and %s share register slices while both \
                 are live"
                (name v1) (name v2) )
            :: !out
      done)
    ivals;
  !out

let gl303_of_pass k ~alloc =
  let ctx = L.make_ctx ~alloc k ~launch:(launch_1d ~block:32 ~grid:1) in
  let pass = List.find (fun p -> p.L.p_name = "compression") L.passes in
  List.filter_map
    (fun d -> if d.D.d_code = "GL303" then Some (d.D.d_loc, d.D.d_message) else None)
    (pass.L.p_run ctx)

let check_gl303 what k alloc =
  let got = gl303_of_pass k ~alloc in
  let want = gl303_reference k alloc in
  Alcotest.(check int) (what ^ ": GL303 count") (List.length want) (List.length got);
  Alcotest.(check bool) (what ^ ": GL303 diagnostics and order") true (got = want);
  got

let placement ?(reg1 = -1) ?(mask1 = 0) reg0 mask0 =
  let slices = Gpr_util.Bits.popcount mask0 + Gpr_util.Bits.popcount mask1 in
  {
    Gpr_alloc.Alloc.reg0; mask0; reg1; mask1; slices; bits = 4 * slices;
    signed = true; is_float = false;
  }

(* [n] values all live at the final reduction. *)
let wide_kernel n =
  let b = Builder.create ~name:"wide" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let vs = List.init n (fun i -> iadd b ~$tid (ci (i + 1))) in
  let sum = List.fold_left (fun acc v -> iadd b ~$acc ~$v) tid vs in
  st b out ~$tid ~$sum;
  (finish b, vs)

let test_gl303_one_slot () =
  let k, vs = wide_kernel 12 in
  let alloc = Gpr_alloc.Alloc.baseline k in
  List.iter
    (fun (v : vreg) -> Hashtbl.replace alloc.placements v.id (placement 100 0x0f))
    vs;
  let got = check_gl303 "one register and mask" k alloc in
  Alcotest.(check int) "every pair of the 12 reported" (12 * 11 / 2)
    (List.length got)

let test_gl303_split_halves () =
  let k, vs = wide_kernel 6 in
  let alloc = Gpr_alloc.Alloc.baseline k in
  let set (v : vreg) p = Hashtbl.replace alloc.placements v.id p in
  (* Registers 101-106 are clear of the baseline placements of the
     other values, and every register-0 half is distinct, so each
     overlap below goes through a reg1/mask1 half. *)
  (match vs with
  | [ a; b; c; d; e; f ] ->
    set a (placement 101 0x0f ~reg1:102 ~mask1:0x01);
    set b (placement 102 0x01);  (* a.reg1 x b.reg0 *)
    set c (placement 103 0x01 ~reg1:101 ~mask1:0x80);  (* silent: disjoint masks *)
    set d (placement 104 0x01 ~reg1:101 ~mask1:0x01);  (* a.reg0 x d.reg1 *)
    set e (placement 105 0x01 ~reg1:102 ~mask1:0x02);  (* silent *)
    set f (placement 106 0x01 ~reg1:102 ~mask1:0x03)
    (* a.reg1 x f.reg1, b.reg0 x f.reg1, e.reg1 x f.reg1 *)
  | _ -> assert false);
  let got = check_gl303 "split halves" k alloc in
  Alcotest.(check int) "five overlaps through split halves" 5 (List.length got)

let test_gl303_disjoint_lifetimes () =
  let b = Builder.create ~name:"disjoint" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let x = iadd b ~$tid (ci 1) in
  st b out ~$tid ~$x;
  let y = iadd b ~$tid (ci 2) in
  st b out ~$tid ~$y;
  let k = finish b in
  let alloc = Gpr_alloc.Alloc.baseline k in
  (* y starts after x's last use: sharing x's slices is sound *)
  (match Gpr_alloc.Alloc.lookup alloc x.id with
  | Some px -> Hashtbl.replace alloc.placements y.id px
  | None -> Alcotest.fail "x not placed");
  let got = check_gl303 "disjoint lifetimes" k alloc in
  Alcotest.(check int) "sharing between disjoint lifetimes is silent" 0
    (List.length got)

(* Generated kernels with every placement scrambled over four registers,
   half of them split. *)
let test_gl303_scrambled () =
  let rng = Gpr_util.Rng.create 303 in
  let total = ref 0 in
  for seed = 1 to 60 do
    let k = (Gpr_check.Gen.generate seed).kernel in
    let alloc = Gpr_alloc.Alloc.baseline k in
    let vars = Hashtbl.fold (fun v _ acc -> v :: acc) alloc.placements [] in
    List.iter
      (fun v ->
        let mask () = 1 lsl Gpr_util.Rng.int rng 8 in
        let p =
          if Gpr_util.Rng.bool rng then placement (Gpr_util.Rng.int rng 4) (mask ())
          else
            placement (Gpr_util.Rng.int rng 4) (mask ())
              ~reg1:(Gpr_util.Rng.int rng 4) ~mask1:(mask ())
        in
        Hashtbl.replace alloc.placements v p)
      (List.sort compare vars);
    total :=
      !total
      + List.length (check_gl303 (Printf.sprintf "seed %d" seed) k alloc)
  done;
  Alcotest.(check bool) "scrambled allocations report overlaps" true (!total > 0)

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

(* [gpr lint all --json] renders [Diag.list_to_json] over the registry;
   its bytes are pinned by digest (1882 diagnostics, 432512 bytes). *)
let test_registry_json_pin () =
  let targets =
    List.map
      (fun (w : Gpr_workloads.Workload.t) ->
        ( w.kernel.k_name,
          L.lint ~buffer_len:(Gpr_workloads.Workload.buffer_len w) w.kernel
            ~launch:w.launch ))
      Gpr_workloads.Registry.all
  in
  let text = Gpr_obs.Json.to_string (D.list_to_json targets) in
  Alcotest.(check int) "bytes" 432512 (String.length text);
  Alcotest.(check string) "digest" "5acb9520963ba077a99aa4f5b80fe23a"
    (Digest.to_hex (Digest.string text))

let test_json_escapes () =
  let d =
    {
      D.d_code = "GL000"; d_severity = D.Warning; d_pass = "p";
      d_loc = D.block_loc 3; d_message = "a\"b\\c\nd\re\tf\bg\012h\001";
    }
  in
  Alcotest.(check string) "escaped object"
    "{\"kernel\":\"k\",\"code\":\"GL000\",\"severity\":\"warning\",\"pass\":\"p\",\"block\":3,\"instr\":null,\"message\":\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001\"}"
    (Gpr_obs.Json.to_string (D.to_json ~kernel_name:"k" d))

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
          Alcotest.test_case "GL303 one register and mask" `Quick
            test_gl303_one_slot;
          Alcotest.test_case "GL303 split halves" `Quick
            test_gl303_split_halves;
          Alcotest.test_case "GL303 disjoint lifetimes" `Quick
            test_gl303_disjoint_lifetimes;
          Alcotest.test_case "GL303 scrambled generated" `Quick
            test_gl303_scrambled;
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
          Alcotest.test_case "registry JSON pin" `Quick test_registry_json_pin;
          Alcotest.test_case "JSON escapes" `Quick test_json_escapes;
        ] );
      ("parity", [ QCheck_alcotest.to_alcotest prop_parity ]);
    ]
