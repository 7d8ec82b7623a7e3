(* Tests for dominance, liveness, SSA/e-SSA and the range analysis.
   The centrepiece is the paper's Figure 8 worked example. *)

open Gpr_isa
open Gpr_isa.Types
module I = Gpr_util.Interval
module A = Gpr_analysis

let launch64 = launch_1d ~block:64 ~grid:4

(* Figure 8a/8b.  In the paper's e-SSA CFG the increment [k2 = kt + 1]
   reads the branch-filtered [kt] once per outer iteration (there is no
   inner-loop phi for k in Fig. 8b), so we place the increment in the
   outer loop body:
     k = 0
     while k < 50 {
       i = 0; j = k
       while i < j { print k; i = i + 1 }
       k = k + 1
     }
     print k
   "print" is modelled as a store to a global buffer. *)
let fig8_kernel () =
  let b = Builder.create ~name:"fig8" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let k = var b S32 "k" in
  let i = var b S32 "i" in
  let j = var b S32 "j" in
  assign b k (ci 0);
  while_ b
    (fun () -> ilt b ~$k (ci 50))
    (fun () ->
       assign b i (ci 0);
       assign b j ~$k;
       while_ b
         (fun () -> ilt b ~$i ~$j)
         (fun () ->
            st b out (ci 0) ~$k;
            assign b i ~$(iadd b ~$i (ci 1)));
       assign b k ~$(iadd b ~$k (ci 1)));
  st b out (ci 1) ~$k;
  (finish b, k, i, j)

let check_range t (v : vreg) lo hi name =
  let r = A.Range.var_range t v.id in
  Alcotest.(check string)
    name
    (I.to_string (I.of_ints lo hi))
    (I.to_string r)

let test_fig8_ranges () =
  let kernel, k, i, j = fig8_kernel () in
  let t = A.Range.analyze kernel ~launch:launch64 in
  (* Figure 8d: k ∈ [0,50], j ∈ [0,49].  The paper reports i ∈ [0,50]
     because Fig. 8b inserts no σ for i at the inner branch; our e-SSA
     also refines i (i_t ≤ j0 - 1 = 48), giving the tighter [0,49]. *)
  check_range t k 0 50 "I[k]";
  check_range t i 0 49 "I[i]";
  check_range t j 0 49 "I[j]";
  Alcotest.(check int) "bits k" 7 (A.Range.var_bitwidth t k.id);
  Alcotest.(check int) "bits j" 7 (A.Range.var_bitwidth t j.id)

(* Note: Fig. 8 reports 6 bits for values in [0,50] treating them as
   unsigned; our S32 variables include a sign bit, hence 7. A U32 loop
   gives exactly the paper's 6 bits: *)
let test_fig8_unsigned_bits () =
  let b = Builder.create ~name:"fig8u" in
  let open Builder in
  let out = global_buffer b U32 "out" in
  let k = var b U32 "k" in
  assign b k (ci 0);
  while_ b
    (fun () -> setp b Lt U32 ~$k (ci 50))
    (fun () ->
       st b out (ci 0) ~$k;
       assign b k ~$(iadd b ~ty:U32 ~$k (ci 1)));
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:launch64 in
  Alcotest.(check string) "I[k]" "[0, 50]" (I.to_string (A.Range.var_range t k.id));
  Alcotest.(check int) "bits k unsigned" 6 (A.Range.var_bitwidth t k.id)

let test_tid_seeding () =
  let b = Builder.create ~name:"tid" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let g = global_thread_id_x b in
  st b out ~$g ~$tid;
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:(launch_1d ~block:256 ~grid:30) in
  Alcotest.(check string) "tid range" "[0, 255]"
    (I.to_string (A.Range.var_range t tid.id));
  (* gtid = ctaid * ntid + tid = [0, 29*256+255] = [0, 7679] *)
  Alcotest.(check string) "gtid range" "[0, 7679]"
    (I.to_string (A.Range.var_range t g.id));
  Alcotest.(check int) "gtid bits" 14 (A.Range.var_bitwidth t g.id)

let test_param_and_buffer_ranges () =
  let b = Builder.create ~name:"pb" in
  let open Builder in
  let img = global_buffer b S32 ~range:(0, 255) "img" in
  let out = global_buffer b S32 "out" in
  let n = param_i32 b ~range:(1, 1024) "n" in
  let x = ld b img (ci 0) in
  let y = imul b ~$x ~$n in
  st b out (ci 0) ~$y;
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:launch64 in
  Alcotest.(check string) "img load" "[0, 255]"
    (I.to_string (A.Range.var_range t x.id));
  Alcotest.(check string) "x*n" "[0, 261120]"
    (I.to_string (A.Range.var_range t y.id))

let test_selp_join () =
  let b = Builder.create ~name:"selp" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let p = ilt b (ci 1) (ci 2) in
  let v = selp b S32 (ci (-5)) (ci 100) p in
  st b out (ci 0) ~$v;
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:launch64 in
  Alcotest.(check string) "selp join" "[-5, 100]"
    (I.to_string (A.Range.var_range t v.id));
  Alcotest.(check int) "selp bits" 8 (A.Range.var_bitwidth t v.id)

let test_if_refinement () =
  (* if (x < 10) y = x else y = 0  =>  y ∈ [0, 9] given x ∈ [0, 255] *)
  let b = Builder.create ~name:"refine" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let x = param_i32 b ~range:(0, 255) "x" in
  let y = var b S32 "y" in
  let p = ilt b ~$x (ci 10) in
  if_ b p (fun () -> assign b y ~$x) (fun () -> assign b y (ci 0));
  st b out (ci 0) ~$y;
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:launch64 in
  Alcotest.(check string) "refined y" "[0, 9]"
    (I.to_string (A.Range.var_range t y.id))

let test_clamp_pattern () =
  (* idx = min(max(ftoi f, 0), 63): conversion is unbounded but the
     clamp recovers a narrow range — the idiom our image kernels use. *)
  let b = Builder.create ~name:"clamp" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let f = param_f32 b "f" in
  let raw = ftoi b ~$f in
  let lo = imax b ~$raw (ci 0) in
  let idx = imin b ~$lo (ci 63) in
  st b out ~$idx (ci 1);
  let kernel = finish b in
  let t = A.Range.analyze kernel ~launch:launch64 in
  Alcotest.(check string) "clamped" "[0, 63]"
    (I.to_string (A.Range.var_range t idx.id));
  Alcotest.(check int) "clamped bits" 7 (A.Range.var_bitwidth t idx.id)

(* --------------------------------------------------------------- *)
(* Dominance *)

let diamond_kernel () =
  let b = Builder.create ~name:"diamond" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let p = ilt b (ci 0) (ci 1) in
  if_ b p
    (fun () -> st b out (ci 0) (ci 1))
    (fun () -> st b out (ci 0) (ci 2));
  st b out (ci 1) (ci 3);
  finish b

let test_dominance_diamond () =
  let kernel = diamond_kernel () in
  let cfg = Cfg.of_kernel kernel in
  let dom = A.Dominance.compute cfg in
  (* blocks: 0 entry, 1 then, 2 else, 3 join *)
  Alcotest.(check (option int)) "idom then" (Some 0) (A.Dominance.idom dom 1);
  Alcotest.(check (option int)) "idom else" (Some 0) (A.Dominance.idom dom 2);
  Alcotest.(check (option int)) "idom join" (Some 0) (A.Dominance.idom dom 3);
  Alcotest.(check bool) "0 dom 3" true (A.Dominance.dominates dom 0 3);
  Alcotest.(check bool) "1 !dom 3" false (A.Dominance.dominates dom 1 3);
  Alcotest.(check bool) "df of 1" true
    (List.mem 3 (A.Dominance.dominance_frontier dom 1))

let test_ipdom_diamond () =
  let kernel = diamond_kernel () in
  let cfg = Cfg.of_kernel kernel in
  let post = A.Dominance.compute_post cfg in
  Alcotest.(check (option int)) "ipdom entry" (Some 3) (A.Dominance.ipdom post 0);
  Alcotest.(check (option int)) "ipdom then" (Some 3) (A.Dominance.ipdom post 1);
  Alcotest.(check (option int)) "ipdom else" (Some 3) (A.Dominance.ipdom post 2)

let test_ipdom_loop () =
  let kernel, _, _, _ = fig8_kernel () in
  let cfg = Cfg.of_kernel kernel in
  let post = A.Dominance.compute_post cfg in
  (* Every block's IPDOM chain must reach the (single) Ret block. *)
  let rets = Cfg.exit_blocks cfg in
  Alcotest.(check int) "one exit" 1 (List.length rets);
  let ret = List.hd rets in
  let rec reaches b depth =
    if depth > 64 then false
    else if b = ret then true
    else match A.Dominance.ipdom post b with
      | Some nxt -> reaches nxt (depth + 1)
      | None -> false
  in
  for b = 0 to Cfg.num_blocks cfg - 1 do
    Alcotest.(check bool) (Printf.sprintf "block %d reaches exit" b) true
      (reaches b 0)
  done

(* --------------------------------------------------------------- *)
(* Liveness *)

let test_liveness_basic () =
  let b = Builder.create ~name:"live" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let a = mov b S32 (ci 1) in
  let c = mov b S32 (ci 2) in
  let d = iadd b ~$a ~$c in
  st b out (ci 0) ~$d;
  let kernel = finish b in
  let live = A.Liveness.compute kernel in
  (* Straight-line kernel: nothing live at exit. *)
  Alcotest.(check int) "live-out empty" 0
    (A.Liveness.Iset.cardinal (A.Liveness.live_out live 0));
  Alcotest.(check bool) "pressure >= 2" true (A.Liveness.max_live live >= 2)

let test_liveness_loop_carried () =
  let kernel, k, _, _ = fig8_kernel () in
  let live = A.Liveness.compute kernel in
  (* k is live across the outer loop: it must appear in some block's
     live-in set other than entry. *)
  let cfg = Cfg.of_kernel kernel in
  let found = ref false in
  for bl = 1 to Cfg.num_blocks cfg - 1 do
    if A.Liveness.Iset.mem k.id (A.Liveness.live_in live bl) then found := true
  done;
  Alcotest.(check bool) "k live in loop" true !found

let test_intervals_cover_defs () =
  let kernel, _, _, _ = fig8_kernel () in
  let live = A.Liveness.compute kernel in
  let ivs = A.Liveness.intervals live in
  List.iter
    (fun (_, lo, hi) ->
       Alcotest.(check bool) "interval nonempty" true (lo < hi))
    ivs

(* The original construction of [Liveness.intervals], kept as the
   oracle: a backward walk recording the live set at every program
   point, then two [Hashtbl] updates per point per live variable.  The
   order of equal starts (the fold order of [lo]) is part of the
   contract. *)
let intervals_reference kernel live =
  let module S = A.Liveness.Iset in
  let tracked (r : vreg) = r.ty <> Pred in
  let add r s = if tracked r then S.add r.id s else s in
  let lo = Hashtbl.create 64 and hi = Hashtbl.create 64 in
  let note p set =
    S.iter
      (fun v ->
        (match Hashtbl.find_opt lo v with
        | None -> Hashtbl.replace lo v p
        | Some l -> if p < l then Hashtbl.replace lo v p);
        match Hashtbl.find_opt hi v with
        | None -> Hashtbl.replace hi v (p + 1)
        | Some h -> if p + 1 > h then Hashtbl.replace hi v (p + 1))
      set
  in
  let next = ref 0 in
  Array.iter
    (fun b ->
      let blk = kernel.k_blocks.(b) in
      let base = !next and ninstr = Array.length blk.instrs in
      next := base + ninstr + 1;
      let live =
        ref
          (List.fold_left (fun s r -> add r s)
             (A.Liveness.live_out live b) (term_uses blk.term))
      in
      note (base + ninstr) !live;
      for i = ninstr - 1 downto 0 do
        let ins = blk.instrs.(i) in
        note (base + i)
          (match defs ins with Some d -> add d !live | None -> !live);
        (match defs ins with Some d -> live := S.remove d.id !live | None -> ());
        match ins with
        | Phi _ -> ()
        | _ -> live := List.fold_left (fun s r -> add r s) !live (uses ins)
      done;
      note base !live)
    (Cfg.reverse_postorder (Cfg.of_kernel kernel));
  Hashtbl.fold (fun v l acc -> (v, l, Hashtbl.find hi v) :: acc) lo []
  |> List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2)

let check_intervals_oracle what kernel =
  let live = A.Liveness.compute kernel in
  Alcotest.(check (list (triple int int int)))
    (what ^ " intervals") (intervals_reference kernel live)
    (A.Liveness.intervals live)

let test_intervals_oracle_registry () =
  List.iter
    (fun (w : Gpr_workloads.Workload.t) ->
      let k = w.Gpr_workloads.Workload.kernel in
      check_intervals_oracle k.k_name k;
      check_intervals_oracle (k.k_name ^ " ssa") (A.Ssa.convert k).kernel)
    Gpr_workloads.Registry.all

(* [n] variables read but never assigned: all live into the entry block,
   so all start at point 0 and only the tie order separates them. *)
let equal_starts_kernel n =
  let b = Builder.create ~name:"ties" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let vs = List.init n (fun i -> var b S32 (Printf.sprintf "u%d" i)) in
  let sum = List.fold_left (fun acc v -> iadd b ~$acc ~$v) tid vs in
  st b out ~$tid ~$sum;
  finish b

let test_intervals_oracle_generated () =
  List.iter
    (fun n ->
      check_intervals_oracle (Printf.sprintf "%d ties" n) (equal_starts_kernel n))
    [ 5; 40; 100; 300 ];
  for seed = 1 to 600 do
    let c = Gpr_check.Gen.generate seed in
    check_intervals_oracle (Printf.sprintf "seed %d" seed) c.kernel
  done;
  let rng = Gpr_util.Rng.create 17 in
  for n = 1 to 40 do
    check_intervals_oracle
      (Printf.sprintf "random cfg %d" n)
      (Gpr_check.Gen.random_cfg_kernel rng (1 + (n mod 12)))
  done

(* --------------------------------------------------------------- *)
(* SSA structural properties *)

let test_ssa_single_def () =
  let kernel, _, _, _ = fig8_kernel () in
  let ssa = A.Ssa.convert kernel in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun blk ->
       Array.iter
         (fun ins ->
            match defs ins with
            | Some d ->
              Alcotest.(check bool)
                (Printf.sprintf "single def of %%%d" d.id)
                false (Hashtbl.mem seen d.id);
              Hashtbl.replace seen d.id ()
            | None -> ())
         blk.instrs)
    ssa.A.Ssa.kernel.k_blocks

let test_ssa_phi_operand_count () =
  let kernel, _, _, _ = fig8_kernel () in
  let ssa = A.Ssa.convert kernel in
  let cfg = Cfg.of_kernel ssa.A.Ssa.kernel in
  Array.iter
    (fun blk ->
       let npreds = List.length (Cfg.preds cfg blk.label) in
       Array.iter
         (fun ins ->
            match ins with
            | Phi (_, ops) ->
              Alcotest.(check int)
                (Printf.sprintf "phi arity in block %d" blk.label)
                npreds (List.length ops)
            | _ -> ())
         blk.instrs)
    ssa.A.Ssa.kernel.k_blocks

let test_essa_has_pis () =
  let kernel, _, _, _ = fig8_kernel () in
  let essa = A.Essa.convert (A.Ssa.convert kernel) in
  let pis = ref 0 in
  Array.iter
    (fun blk ->
       Array.iter
         (fun ins -> match ins with Pi _ -> incr pis | _ -> ())
         blk.instrs)
    essa.A.Ssa.kernel.k_blocks;
  (* Two conditional branches, each with refinable integer operands on
     both sides. *)
  Alcotest.(check bool) "pi nodes inserted" true (!pis >= 4)

(* Property: CHK dominators agree with brute-force dominance (b is
   dominated by a iff removing a makes b unreachable from entry) on
   random CFGs.  The generator lives in {!Gpr_check.Gen}, shared with
   the differential fuzzer. *)
let random_cfg_kernel = Gpr_check.Gen.random_cfg_kernel

let reachable_without kernel ~removed =
  let n = Array.length kernel.k_blocks in
  let seen = Array.make n false in
  let rec dfs b =
    if b <> removed && not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs (successors kernel.k_blocks.(b).term)
    end
  in
  if removed <> 0 then dfs 0;
  seen

let prop_dominance_brute_force =
  QCheck.Test.make ~name:"CHK dominators = brute force" ~count:120
    QCheck.(pair (int_range 2 10) (int_range 1 1_000_000))
    (fun (n, seed) ->
       let rng = Gpr_util.Rng.create seed in
       let kernel = random_cfg_kernel rng n in
       let cfg = Cfg.of_kernel kernel in
       let dom = A.Dominance.compute cfg in
       let reach = reachable_without kernel ~removed:(-1) in
       let ok = ref true in
       for a = 0 to n - 1 do
         let without_a = reachable_without kernel ~removed:a in
         for b = 0 to n - 1 do
           if reach.(a) && reach.(b) then begin
             let brute = a = b || not without_a.(b) in
             if A.Dominance.dominates dom a b <> brute then ok := false
           end
         done
       done;
       !ok)

(* Property: the range analysis is sound — every value a register
   actually takes during execution lies inside its computed range.
   Random straight-line kernels over gid with growth-bounded operators
   (so 32-bit wrap-around, which the analysis deliberately does not
   model, cannot occur). *)
let prop_ranges_sound =
  QCheck.Test.make ~name:"range analysis sound vs execution" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
       let rng = Gpr_util.Rng.create seed in
       let n_nodes = 10 in
       let kernel, tracked =
         Gpr_check.Gen.random_straightline rng ~n_nodes
       in
       let nthreads = 64 in
       let launch = launch_1d ~block:32 ~grid:2 in
       let t = A.Range.analyze kernel ~launch in
       let outd = Array.make (nthreads * n_nodes) 0 in
       let module E = Gpr_exec.Exec in
       let bindings =
         E.bindings_for kernel ~data:[ ("out", E.I_data outd) ] ()
       in
       ignore (E.run kernel ~launch ~params:[||] ~bindings E.default_config);
       List.for_all
         (fun ((v : vreg), slot) ->
            let range = A.Range.var_range t v.id in
            let ok = ref true in
            for th = 0 to nthreads - 1 do
              if not (I.contains range outd.((th * n_nodes) + slot)) then
                ok := false
            done;
            !ok)
         tracked)

(* --------------------------------------------------------------- *)
(* Bit-precise domains: known-bits and congruence transfer functions
   must over-approximate the executor's concrete integer semantics
   (wrap to 32 bits, shift amounts masked to 5 bits, Div-by-0 -> 0,
   Rem-by-0 -> x), and the reduced product must dominate the interval
   widths on every registry kernel — strictly, on at least three. *)

module KB = A.Knownbits
module CG = A.Congruence
module Sem = Gpr_exec.Exec.Sem

let all_ibinops =
  [ Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor; Shl; Shr ]

let all_iunops = [ Ineg; Inot; Iabs ]

let stored rng ty =
  (* bias toward small magnitudes so shifts/masks see realistic amounts *)
  let raw =
    match Gpr_util.Rng.int rng 3 with
    | 0 -> Gpr_util.Rng.int rng 64 - 8
    | 1 -> Gpr_util.Rng.int rng 0x1_0000
    | _ -> Gpr_util.Rng.int rng 0x1_0000_0000 - 0x8000_0000
  in
  Sem.wrap (ty = U32) raw

(* An integer abstract domain's transfer functions, plus a way to draw
   a random abstract value guaranteed to contain a concrete [x]. *)
module type INT_DOMAIN = sig
  type t

  val tag : string
  val binop : dtype -> ibinop -> t -> t -> t
  val unop : dtype -> iunop -> t -> t
  val mad : t -> t -> t -> t
  val mem : int -> t -> bool
  val to_string : t -> string
  val containing : Gpr_util.Rng.t -> int -> t
end

(* Every transfer function must contain the executor's own result
   ([Exec.Sem], the code the lane loops run) for operands drawn from
   its inputs, so a change to the concrete semantics is checked too. *)
module Transfer_sound (D : INT_DOMAIN) = struct
  let prop ~name =
    QCheck.Test.make ~name ~count:300 (QCheck.int_range 1 1_000_000)
      (fun seed ->
        let rng = Gpr_util.Rng.create seed in
        let ty = if Gpr_util.Rng.int rng 2 = 0 then S32 else U32 in
        let u = ty = U32 in
        let x = stored rng ty and y = stored rng ty and z = stored rng ty in
        let ax = D.containing rng x
        and ay = D.containing rng y
        and az = D.containing rng z in
        List.iter
          (fun op ->
            let c = Sem.ibin op u x y in
            let a = D.binop ty op ax ay in
            if not (D.mem c a) then
              QCheck.Test.fail_reportf
                "%s %s %s: %d op %d = %d escapes %s (from %s, %s)" D.tag
                (if u then "u32" else "s32")
                (Pp.ibinop_name op) x y c (D.to_string a) (D.to_string ax)
                (D.to_string ay))
          all_ibinops;
        List.iter
          (fun op ->
            let c = Sem.iun op u x in
            let a = D.unop ty op ax in
            if not (D.mem c a) then
              QCheck.Test.fail_reportf "%s unop: %d -> %d escapes %s" D.tag x
                c (D.to_string a))
          all_iunops;
        let c = Sem.imad u x y z in
        let a = D.mad ax ay az in
        if not (D.mem c a) then
          QCheck.Test.fail_reportf "%s mad: %d,%d,%d -> %d escapes %s" D.tag x
            y z c (D.to_string a);
        true)
end

module KB_sound = Transfer_sound (struct
  include KB

  let tag = "kb"

  let containing rng x =
    let m = Gpr_util.Rng.int rng 0x1_0000_0000 in
    KB.Kb { ones = x land lnot m land 0xffff_ffff; unk = m }
end)

module CG_sound = Transfer_sound (struct
  include CG

  let tag = "cg"

  let containing rng x =
    let k = Gpr_util.Rng.int rng 32 in
    if k = 0 then CG.top
    else CG.Cg { k; r = Sem.wrap_u32 x land ((1 lsl k) - 1) }
end)

let prop_knownbits_sound =
  KB_sound.prop ~name:"known-bits transfer sound vs concrete"

let prop_congruence_sound =
  CG_sound.prop ~name:"congruence transfer sound vs concrete"

(* Dominance: on every registry kernel the product width never exceeds
   the interval width, for any variable. *)
let test_registry_dominance () =
  List.iter
    (fun (w : Gpr_workloads.Workload.t) ->
      let wt = A.Width.analyze w.kernel ~launch:w.launch in
      Array.iteri
        (fun id _ ->
          let p = A.Width.var_bitwidth wt id in
          let iv = A.Width.interval_bitwidth wt id in
          if p > iv then
            Alcotest.failf "%s: %%%d product %d > interval %d" w.name id p iv)
        wt.A.Width.var_bits)
    Gpr_workloads.Registry.all

(* The product must actually buy something: strictly more narrow
   integer variables than intervals alone on at least three registry
   kernels (the acceptance bar of the width framework), including the
   three kernels whose integer idioms — lattice hashes, packed
   G-buffer material words — were chosen to defeat plain intervals. *)
let test_registry_strictly_narrower () =
  let improved =
    List.filter
      (fun (w : Gpr_workloads.Workload.t) ->
        let wt = A.Width.analyze w.kernel ~launch:w.launch in
        A.Width.narrow_int_count wt w.kernel
        > A.Width.interval_narrow_int_count wt w.kernel)
      Gpr_workloads.Registry.all
  in
  let names = List.map (fun (w : Gpr_workloads.Workload.t) -> w.name) improved in
  Alcotest.(check bool)
    (Printf.sprintf ">= 3 kernels strictly narrower (got: %s)"
       (String.concat " " names))
    true
    (List.length improved >= 3);
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (expected ^ " strictly narrower")
        true (List.mem expected names))
    [ "Deferred"; "Elevated"; "Pathtracer" ]

(* A value that is written but never read demands 0 bits; its storage
   width collapses to the 1-bit floor even though its interval needs
   more. *)
let test_dead_var_width_one () =
  let b = Builder.create ~name:"deadvar" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let tid = tid_x b in
  let x = var b S32 "x" in
  assign b x (ci 12345);
  st b out ~$tid ~$tid;
  let kernel = finish b in
  let wt = A.Width.analyze kernel ~launch:(launch_1d ~block:32 ~grid:1) in
  Alcotest.(check int) "demanded 0" 0 (A.Width.demanded_width wt x.id);
  Alcotest.(check bool) "interval needs > 1 bit" true
    (A.Width.interval_bitwidth wt x.id > 1);
  Alcotest.(check int) "product width 1" 1 (A.Width.var_bitwidth wt x.id)

let () =
  Alcotest.run "analysis"
    [
      ( "range",
        [
          Alcotest.test_case "fig8 ranges" `Quick test_fig8_ranges;
          Alcotest.test_case "fig8 unsigned bits" `Quick test_fig8_unsigned_bits;
          Alcotest.test_case "tid seeding" `Quick test_tid_seeding;
          Alcotest.test_case "param/buffer ranges" `Quick
            test_param_and_buffer_ranges;
          Alcotest.test_case "selp join" `Quick test_selp_join;
          Alcotest.test_case "if refinement" `Quick test_if_refinement;
          Alcotest.test_case "clamp after cvt" `Quick test_clamp_pattern;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "diamond" `Quick test_dominance_diamond;
          Alcotest.test_case "ipdom diamond" `Quick test_ipdom_diamond;
          Alcotest.test_case "ipdom loop" `Quick test_ipdom_loop;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "basic" `Quick test_liveness_basic;
          Alcotest.test_case "loop carried" `Quick test_liveness_loop_carried;
          Alcotest.test_case "interval sanity" `Quick test_intervals_cover_defs;
          Alcotest.test_case "intervals oracle registry" `Quick
            test_intervals_oracle_registry;
          Alcotest.test_case "intervals oracle generated" `Quick
            test_intervals_oracle_generated;
        ] );
      ( "ssa",
        [
          Alcotest.test_case "single def" `Quick test_ssa_single_def;
          Alcotest.test_case "phi arity" `Quick test_ssa_phi_operand_count;
          Alcotest.test_case "essa pis" `Quick test_essa_has_pis;
        ] );
      ( "dominance-props",
        [ QCheck_alcotest.to_alcotest ~verbose:false prop_dominance_brute_force ] );
      ( "range-props",
        [ QCheck_alcotest.to_alcotest ~verbose:false prop_ranges_sound ] );
      ( "width",
        [
          Alcotest.test_case "registry dominance" `Quick
            test_registry_dominance;
          Alcotest.test_case "registry strictly narrower" `Quick
            test_registry_strictly_narrower;
          Alcotest.test_case "dead var width 1" `Quick
            test_dead_var_width_one;
        ] );
      ( "domain-props",
        [
          QCheck_alcotest.to_alcotest ~verbose:false prop_knownbits_sound;
          QCheck_alcotest.to_alcotest ~verbose:false prop_congruence_sound;
        ] );
    ]
