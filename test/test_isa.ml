(* Tests for the mini-PTX ISA: builder lowering, CFG structure,
   validation, pretty-printing, plus arch/occupancy and the Table 3
   float formats. *)

open Gpr_isa
open Gpr_isa.Types
module F = Gpr_fp.Format_

(* ---------------------------------------------------------------- *)
(* Builder / CFG *)

let test_builder_straightline () =
  let b = Builder.create ~name:"s" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let x = fadd b (cf 1.0) (cf 2.0) in
  st b out (ci 0) ~$x;
  let k = finish b in
  Alcotest.(check int) "one block" 1 (Array.length k.k_blocks);
  Alcotest.(check int) "two instrs" 2 (Array.length k.k_blocks.(0).instrs);
  (match k.k_blocks.(0).term with
   | Ret -> ()
   | _ -> Alcotest.fail "expected ret")

let test_builder_if_shape () =
  let b = Builder.create ~name:"if" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let p = ilt b (ci 0) (ci 1) in
  if_ b p
    (fun () -> st b out (ci 0) (ci 1))
    (fun () -> st b out (ci 0) (ci 2));
  let k = finish b in
  Alcotest.(check int) "four blocks" 4 (Array.length k.k_blocks);
  (match k.k_blocks.(0).term with
   | Cbr (_, 1, 2) -> ()
   | _ -> Alcotest.fail "entry should cbr to 1/2");
  let cfg = Cfg.of_kernel k in
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] (Cfg.preds cfg 3)

let test_builder_while_shape () =
  let b = Builder.create ~name:"w" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = var b S32 "i" in
  assign b i (ci 0);
  while_ b
    (fun () -> ilt b ~$i (ci 10))
    (fun () ->
       st b out ~$i ~$i;
       assign b i ~$(iadd b ~$i (ci 1)));
  let k = finish b in
  (* entry, header, body, exit *)
  Alcotest.(check int) "four blocks" 4 (Array.length k.k_blocks);
  let cfg = Cfg.of_kernel k in
  (* header has two predecessors: entry and body *)
  Alcotest.(check int) "header preds" 2 (List.length (Cfg.preds cfg 1))

let test_builder_for_counts () =
  let b = Builder.create ~name:"f" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  for_ b ~lo:(ci 0) ~hi:(ci 5) (fun i -> st b out ~$i ~$i);
  let k = finish b in
  Alcotest.(check bool) "kernel valid" true
    (match Cfg.validate k with Ok () -> true | Error _ -> false)

let test_builder_ret_early () =
  let b = Builder.create ~name:"r" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let p = ilt b (ci 1) (ci 0) in
  if_then b p (fun () -> ret b);
  st b out (ci 0) (ci 1);
  let k = finish b in
  let cfg = Cfg.of_kernel k in
  Alcotest.(check bool) "multiple exits" true
    (List.length (Cfg.exit_blocks cfg) >= 2)

let test_validate_catches_bad_branch () =
  let blk = { label = 0; instrs = [||]; term = Br 7 } in
  let k =
    { k_name = "bad"; k_blocks = [| blk |]; k_params = [||];
      k_buffers = [||]; k_num_vregs = 0; k_specials = [] }
  in
  (match Cfg.validate k with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected invalid")

let test_validate_catches_type_error () =
  let f = { id = 0; ty = F32; name = "f" } in
  let blk =
    { label = 0; instrs = [| Ibin (Add, f, Imm_i 1, Imm_i 2) |]; term = Ret }
  in
  let k =
    { k_name = "bad"; k_blocks = [| blk |]; k_params = [||];
      k_buffers = [||]; k_num_vregs = 1; k_specials = [] }
  in
  (match Cfg.validate k with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected type error")

let test_rpo_starts_at_entry () =
  let b = Builder.create ~name:"rpo" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  for_ b ~lo:(ci 0) ~hi:(ci 3) (fun i -> st b out ~$i ~$i);
  let k = finish b in
  let cfg = Cfg.of_kernel k in
  let rpo = Cfg.reverse_postorder cfg in
  Alcotest.(check int) "entry first" 0 rpo.(0)

let contains_substring s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_pp_roundtrip_mentions_ops () =
  let b = Builder.create ~name:"pp" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let x = ffma b (cf 1.0) (cf 2.0) (cf 3.0) in
  let y = fsqrt b ~$x in
  st b out (ci 0) ~$y;
  let k = finish b in
  let s = Pp.kernel_to_string k in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " printed") true (contains_substring s needle))
    [ "fma.rn.f32"; "sqrt.f32"; "st.global"; ".entry pp"; "ret" ]

let test_instr_count () =
  let b = Builder.create ~name:"cnt" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let x = iadd b (ci 1) (ci 2) in
  let y = imul b ~$x (ci 3) in
  st b out (ci 0) ~$y;
  Alcotest.(check int) "three instrs" 3 (Pp.instr_count (finish b))

let test_unit_classes () =
  let f = { id = 0; ty = F32; name = "f" } in
  let s = { id = 1; ty = S32; name = "s" } in
  Alcotest.(check bool) "sin is sfu" true
    (unit_class_of (Fun (Fsin, f, Imm_f 1.0)) = Sfu);
  Alcotest.(check bool) "fadd is spu" true
    (unit_class_of (Fbin (Fadd, f, Imm_f 1.0, Imm_f 2.0)) = Spu);
  Alcotest.(check bool) "idiv is sfu" true
    (unit_class_of (Ibin (Div, s, Imm_i 1, Imm_i 2)) = Sfu);
  Alcotest.(check bool) "iadd is spu" true
    (unit_class_of (Ibin (Add, s, Imm_i 1, Imm_i 2)) = Spu);
  Alcotest.(check bool) "bar is sync" true (unit_class_of Bar = Sync)

let test_nested_control_flow () =
  (* if inside while inside if: the builder must produce a valid CFG
     with correct reconvergence structure. *)
  let b = Builder.create ~name:"nest" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let outer = ilt b ~$i (ci 16) in
  if_then b outer (fun () ->
      let acc = var b S32 "acc" in
      assign b acc (ci 0);
      while_ b
        (fun () -> ilt b ~$acc (ci 8))
        (fun () ->
           let odd = ieq b ~$(iand b ~$acc (ci 1)) (ci 1) in
           if_ b odd
             (fun () -> assign b acc ~$(iadd b ~$acc (ci 3)))
             (fun () -> assign b acc ~$(iadd b ~$acc (ci 1))));
      st b out ~$i ~$acc);
  let k = finish b in
  (match Cfg.validate k with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* And it executes correctly: 0 ->1 ->4 ->5 ->8. *)
  let module E = Gpr_exec.Exec in
  let outd = Array.make 32 (-1) in
  let bindings = E.bindings_for k ~data:[ ("out", E.I_data outd) ] () in
  ignore (E.run k ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
            ~bindings E.default_config);
  for t = 0 to 31 do
    Alcotest.(check int) "nested result" (if t < 16 then 8 else -1) outd.(t)
  done

let test_pand () =
  let b = Builder.create ~name:"pand" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let p1 = ige b ~$i (ci 4) in
  let p2 = ilt b ~$i (ci 8) in
  let both = pand b p1 p2 in
  st b out ~$i ~$(selp b S32 (ci 1) (ci 0) both);
  let k = finish b in
  let module E = Gpr_exec.Exec in
  let outd = Array.make 32 (-1) in
  let bindings = E.bindings_for k ~data:[ ("out", E.I_data outd) ] () in
  ignore (E.run k ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
            ~bindings E.default_config);
  for t = 0 to 31 do
    Alcotest.(check int) "conjunction" (if t >= 4 && t < 8 then 1 else 0)
      outd.(t)
  done

let test_specials_cached () =
  (* Repeated tid_x calls reuse one register. *)
  let b = Builder.create ~name:"cache" in
  let open Builder in
  let t1 = tid_x b and t2 = tid_x b in
  let g1 = global_thread_id_x b and g2 = global_thread_id_x b in
  Alcotest.(check int) "tid cached" t1.id t2.id;
  Alcotest.(check int) "gtid cached" g1.id g2.id;
  let out = global_buffer b S32 "out" in
  st b out ~$g1 ~$t1;
  ignore (finish b)

(* ---------------------------------------------------------------- *)
(* Occupancy (Sec. 2 motivating numbers) *)

let test_occupancy_imgvf_paper_example () =
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  (* Original IMGVF: 52 regs, 10 warps/block -> 1 block, 21% occupancy. *)
  let r =
    Gpr_arch.Occupancy.compute cfg ~regs_per_thread:52 ~warps_per_block:10
      ~shared_bytes_per_block:14560
  in
  Alcotest.(check int) "blocks" 1 r.blocks_per_sm;
  Alcotest.(check bool) "occ ~21%" true (abs_float (r.occupancy -. 0.2083) < 0.01);
  (* Compressed: 29 regs -> 3 blocks, 62.5%. *)
  let r =
    Gpr_arch.Occupancy.compute cfg ~regs_per_thread:29 ~warps_per_block:10
      ~shared_bytes_per_block:14560
  in
  Alcotest.(check int) "blocks compressed" 3 r.blocks_per_sm;
  Alcotest.(check (float 1e-9)) "occ 62.5%" 0.625 r.occupancy

let test_occupancy_shared_limit () =
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  (* IMGVF at high quality: 24 regs would allow 4 blocks, but shared
     memory caps it at 3 (Sec. 6.1). *)
  let r =
    Gpr_arch.Occupancy.compute cfg ~regs_per_thread:24 ~warps_per_block:10
      ~shared_bytes_per_block:14560
  in
  Alcotest.(check int) "blocks" 3 r.blocks_per_sm;
  Alcotest.(check string) "limiter" "shared memory"
    (Gpr_arch.Occupancy.limiter_to_string r.limiter)

let test_occupancy_warp_limit () =
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  let r =
    Gpr_arch.Occupancy.compute cfg ~regs_per_thread:10 ~warps_per_block:8
      ~shared_bytes_per_block:0
  in
  Alcotest.(check int) "blocks" 6 r.blocks_per_sm;
  Alcotest.(check (float 1e-9)) "full occupancy" 1.0 r.occupancy

let test_occupancy_block_limit () =
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  let r =
    Gpr_arch.Occupancy.compute cfg ~regs_per_thread:4 ~warps_per_block:1
      ~shared_bytes_per_block:0
  in
  Alcotest.(check int) "max 8 blocks" 8 r.blocks_per_sm

let test_occupancy_too_big () =
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  Alcotest.check_raises "block too large"
    (Invalid_argument
       "Occupancy.compute: one block exceeds SM resources (registers)")
    (fun () ->
       ignore
         (Gpr_arch.Occupancy.compute cfg ~regs_per_thread:70 ~warps_per_block:16
            ~shared_bytes_per_block:0))

(* ---------------------------------------------------------------- *)
(* Float formats (Table 3) *)

let test_formats_table3 () =
  let expect = [ (32, 8, 23); (28, 7, 20); (24, 6, 17); (20, 5, 14);
                 (16, 5, 10); (12, 4, 7); (8, 3, 4) ] in
  List.iter2
    (fun f (total, e, m) ->
       Alcotest.(check int) "total" total f.F.total_bits;
       Alcotest.(check int) "exp" e f.F.exp_bits;
       Alcotest.(check int) "man" m f.F.man_bits)
    F.all expect

let test_format_f32_identity () =
  List.iter
    (fun x ->
       (* Values must already be representable in single precision. *)
       let x = Int32.float_of_bits (Int32.bits_of_float x) in
       Alcotest.(check (float 0.0)) "f32 identity" x (F.quantize F.f32 x))
    [ 0.0; 1.0; -1.5; 3.14159265; 1e-20; 1e20; -0.125 ]

let test_format_fp16_values () =
  let fp16 = Option.get (F.of_total_bits 16) in
  (* 1.0 and powers of two are exact in every format. *)
  Alcotest.(check (float 0.0)) "1.0 exact" 1.0 (F.quantize fp16 1.0);
  Alcotest.(check (float 0.0)) "0.5 exact" 0.5 (F.quantize fp16 0.5);
  Alcotest.(check (float 0.0)) "-4.0 exact" (-4.0) (F.quantize fp16 (-4.0));
  (* fp16 (e5m10) max normal is 65504. *)
  Alcotest.(check (float 0.0)) "max finite" 65504.0 (F.max_finite fp16);
  Alcotest.(check bool) "overflow to inf" true
    (F.quantize fp16 1e6 = infinity);
  Alcotest.(check bool) "neg overflow" true
    (F.quantize fp16 (-1e6) = neg_infinity);
  (* Denormal flush. *)
  Alcotest.(check (float 0.0)) "underflow to zero" 0.0 (F.quantize fp16 1e-8)

let test_format_special_values () =
  List.iter
    (fun f ->
       Alcotest.(check bool) (F.to_string f ^ " inf") true
         (F.quantize f infinity = infinity);
       Alcotest.(check bool) (F.to_string f ^ " -inf") true
         (F.quantize f neg_infinity = neg_infinity);
       Alcotest.(check bool) (F.to_string f ^ " nan") true
         (Float.is_nan (F.quantize f nan));
       Alcotest.(check bool) (F.to_string f ^ " nan pattern") true
         (F.is_nan_pattern f (F.encode f nan));
       Alcotest.(check bool) (F.to_string f ^ " inf pattern") true
         (F.is_inf_pattern f (F.encode f infinity)))
    F.all

let test_format_levels () =
  Alcotest.(check int) "f32 level" 0 (F.level F.f32);
  Alcotest.(check int) "narrowest" 8 (F.of_level 6).F.total_bits;
  Alcotest.(check bool) "next narrower of 8 is none" true
    (F.next_narrower (F.of_level 6) = None);
  Alcotest.(check bool) "next wider of 32 is none" true
    (F.next_wider F.f32 = None)

let prop_quantize_error_bound =
  QCheck.Test.make ~name:"relative error within bound" ~count:1000
    (QCheck.float_range (-1e4) 1e4)
    (fun x ->
       let x = Int32.float_of_bits (Int32.bits_of_float x) in
       QCheck.assume (Float.is_finite x && Float.abs x > 1e-3);
       List.for_all
         (fun f ->
            let q = F.quantize f x in
            (* Skip if out of the format's range (overflow/underflow). *)
            if Float.abs x > F.max_finite f
            || Float.abs x < F.min_positive_normal f then true
            else
              Float.abs (q -. x) /. Float.abs x
              <= F.relative_error_bound f *. 1.0001)
         F.all)

let prop_encode_fits_width =
  QCheck.Test.make ~name:"encode fits declared width" ~count:1000
    (QCheck.float_range (-1e30) 1e30)
    (fun x ->
       List.for_all
         (fun f ->
            let bits = F.encode f x in
            bits >= 0 && bits < 1 lsl f.F.total_bits)
         F.all)

let prop_quantize_idempotent =
  QCheck.Test.make ~name:"quantize idempotent" ~count:1000
    (QCheck.float_range (-1e6) 1e6)
    (fun x ->
       List.for_all
         (fun f ->
            let q = F.quantize f x in
            (not (Float.is_finite q)) || F.quantize f q = q)
         F.all)

let prop_quantize_is_round_trip =
  (* Every f32 bit pattern class: normals, denormals, zeros, inf, NaN.
     The f32 format itself only rounds to single precision. *)
  QCheck.Test.make ~name:"quantize = decode (encode x)" ~count:2000
    QCheck.(map Int32.float_of_bits int32)
    (fun x ->
       let same f x =
         Int64.bits_of_float (F.quantize f x)
         = Int64.bits_of_float
             (if f.F.total_bits = 32 then Int32.float_of_bits (Int32.bits_of_float x)
              else F.decode f (F.encode f x))
       in
       (* The same pattern moved onto a rounding tie of each format. *)
       let tie f =
         let shift = 23 - f.F.man_bits in
         let b = Int32.to_int (Int32.bits_of_float x) in
         Int32.float_of_bits
           (Int32.of_int ((b land lnot ((1 lsl shift) - 1)) lor (1 lsl max 0 (shift - 1))))
       in
       List.for_all (fun f -> same f x && same f (tie f)) F.all)

let prop_quantize_monotone_width =
  QCheck.Test.make ~name:"wider format never worse" ~count:500
    (QCheck.float_range (-1e3) 1e3)
    (fun x ->
       let x = Int32.float_of_bits (Int32.bits_of_float x) in
       QCheck.assume (Float.is_finite x);
       let err f =
         let q = F.quantize f x in
         if Float.is_finite q then Float.abs (q -. x) else infinity
       in
       let errors = List.map err F.all in
       let rec nondecreasing = function
         | a :: (b :: _ as rest) -> a <= b +. 1e-30 && nondecreasing rest
         | _ -> true
       in
       nondecreasing errors)

(* ---------------------------------------------------------------- *)
(* Rounding exactness: [F.quantize] (through [quantize_lanes], the
   executor's entry point, and as a scalar) and [Exec.Sem.f32] round
   with double arithmetic on the f32 normal range; they must agree bit
   for bit with the bit-level code.  GPR_FP_EXACT_ALL=1 enumerates all
   2^32 f32 patterns for every format instead of the default binades
   (CI runs it). *)

module Sem = Gpr_exec.Exec.Sem

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let f32_ref x = Int32.float_of_bits (Int32.bits_of_float x)

let fail_round what f x got want =
  Alcotest.failf "%s %s: x = %h (%#Lx): got %h, want %h" what (F.to_string f) x
    (Int64.bits_of_float x) got want

(* Rounding depends on the dropped bits, the kept low bit and whether
   the kept bits are all ones (a carry into the exponent).  A binade is
   walked as kept part [hi] (the mantissa's bits from [shift] up) times
   every dropped part: all of it by default; at an edge, the lowest
   (even) and the highest (carrying) kept value of the format and every
   61st of the rest, from an odd one. *)
type walk = { shift : int; keep : int -> bool }

let whole = { shift = 23; keep = (fun _ -> true) }

let edge f =
  let top = (1 lsl f.F.man_bits) - 1 in
  { shift = 23 - f.F.man_bits; keep = (fun hi -> hi = 0 || hi = top || hi mod 61 = 7) }

(* [k] gets each bit pattern (an int, so nothing is boxed per call). *)
let iter_binade walk e k =
  for sign = 0 to 1 do
    for hi = 0 to (1 lsl (23 - walk.shift)) - 1 do
      if walk.keep hi then
        for lo = 0 to (1 lsl walk.shift) - 1 do
          k ((sign lsl 31) lor (e lsl 23) lor (hi lsl walk.shift) lor lo)
        done
    done
  done

let[@inline] of_pattern b = Int32.float_of_bits (Int32.of_int b)

(* Through [quantize_lanes], 32 lanes at a time. *)
let check_binade ?(walk = whole) f e =
  let inp = Array.make 32 0.0 and out = Array.make 32 0.0 in
  let n = ref 0 in
  let flush () =
    Array.blit inp 0 out 0 !n;
    F.quantize_lanes f out 0 ((1 lsl !n) - 1);
    for lane = 0 to !n - 1 do
      let want = F.quantize_bits f inp.(lane) in
      if not (same_bits out.(lane) want) then
        fail_round "quantize_lanes" f inp.(lane) out.(lane) want
    done;
    n := 0
  in
  iter_binade walk e (fun b ->
      inp.(!n) <- of_pattern b;
      incr n;
      if !n = 32 then flush ());
  if !n > 0 then flush ()

let exact_all = Sys.getenv_opt "GPR_FP_EXACT_ALL" = Some "1"

let test_exact_binades () =
  List.iter
    (fun f ->
       if exact_all then for e = 0 to 255 do check_binade f e done
       else begin
         check_binade f 127;
         (* the lowest and highest binades of the fast path (2^-126,
            2^126), the format's flush edge (the binade under
            2^(1 - bias)) and its saturation edge (the binade under
            2^(bias + 1)); for f32 these are the slow side's f32
            denormals and 2^127 *)
         let b = F.bias f in
         List.iter (check_binade ~walk:(edge f) f) [ 1; 253; 127 - b; 127 + b ]
       end)
    F.all

(* Random doubles: a random f32 mantissa, optionally moved onto a tie of
   a format's rounding bit (or the all-ones mantissa that carries into
   the exponent), with the 29 bits below it on or next to a tie of the
   24-bit rounding; exponents spread over and past the f32 range, and
   concentrated on the fast path's and each format's edges. *)
let random_double st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let f = pick F.all in
  let b = F.bias f in
  let e =
    match Random.State.int st 3 with
    | 0 -> Random.State.int st 300 - 150
    | 1 -> pick [ -127; -126; 126; 127 ]
    | _ -> pick [ -b - 1; -b; b; b + 1 ]
  in
  let shift = 23 - f.F.man_bits in
  let m = Random.State.bits st land 0x7f_ffff in
  let m =
    match Random.State.int st 4 with
    | 0 -> m
    | 1 -> 0x7f_ffff
    | 2 -> (m land lnot ((1 lsl shift) - 1)) lor (1 lsl max 0 (shift - 1))
    | _ -> ((m land lnot ((1 lsl shift) - 1)) lor (1 lsl max 0 (shift - 1))) - 1
  in
  let m = m land 0x7f_ffff in
  let low =
    pick [ 0; 1; (1 lsl 28) - 1; 1 lsl 28; (1 lsl 28) + 1; (1 lsl 29) - 1;
           Random.State.bits st land ((1 lsl 29) - 1) ]
  in
  let bits =
    Int64.(logor
             (shift_left (of_int (Random.State.int st 2)) 63)
             (logor (shift_left (of_int (e + 1023)) 52)
                (of_int ((m lsl 29) lor low))))
  in
  Int64.float_of_bits bits

let random_count = if exact_all then 20_000_000 else 400_000

let test_exact_random () =
  let st = Random.State.make [| 19 |] in
  let lanes = Array.make 32 0.0 in
  for _ = 1 to random_count do
    let x = random_double st in
    let want32 = f32_ref x in
    let got32 = Sem.f32 x in
    if not (same_bits got32 want32) then fail_round "Exec.Sem.f32" F.f32 x got32 want32;
    List.iter
      (fun f ->
         let want = F.quantize_bits f x in
         let got = F.quantize f x in
         if not (same_bits got want) then fail_round "quantize" f x got want;
         lanes.(0) <- x;
         F.quantize_lanes f lanes 0 1;
         if not (same_bits lanes.(0) want) then
           fail_round "quantize_lanes" f x lanes.(0) want)
      F.all
  done

let test_exact_f32_binades () =
  (* [Sem.f32] on the doubles half an f32 ulp above an f32 value (ties)
     and one double ulp either side of that (near-ties): every mantissa
     of the mid binade, a sample of the edge binades.  Exact f32 values
     are among the random doubles (low bits 0). *)
  let check x =
    let want = f32_ref x in
    let got = Sem.f32 x in
    if not (same_bits got want) then fail_round "Exec.Sem.f32" F.f32 x got want
  in
  let binade ?(walk = whole) e =
    iter_binade walk e (fun b ->
        let d = Int64.bits_of_float (of_pattern b) in
        List.iter
          (fun k -> check (Int64.float_of_bits (Int64.add d (Int64.of_int k))))
          [ 1 lsl 28; (1 lsl 28) - 1; (1 lsl 28) + 1 ])
  in
  if exact_all then for e = 0 to 255 do binade e done
  else begin
    binade 127;
    List.iter (binade ~walk:(edge F.f32)) [ 0; 1; 253; 254 ]
  end

(* ±0 is its own rounding on every path and in every format, sign
   included ([Sem.f32] and [quantize] return it before the range test). *)
let test_exact_zeros () =
  let lanes = Array.make 32 0.0 in
  List.iter
    (fun x ->
       let got32 = Sem.f32 x in
       if not (same_bits got32 x) then fail_round "Exec.Sem.f32" F.f32 x got32 x;
       List.iter
         (fun f ->
            let want = F.quantize_bits f x in
            if not (same_bits want x) then fail_round "quantize_bits" f x want x;
            let got = F.quantize f x in
            if not (same_bits got want) then fail_round "quantize" f x got want;
            Array.fill lanes 0 32 x;
            F.quantize_lanes f lanes 0 0xffff_ffff;
            Array.iter
              (fun got ->
                 if not (same_bits got want) then fail_round "quantize_lanes" f x got want)
              lanes)
         F.all)
    [ 0.0; -0.0 ]

(* [Sem.ftoi]/[ftou] convert with a bare [int_of_float]; the guarded
   range keeps its truncation equal to the former [Float.trunc] first. *)
let test_ftoi_boundaries () =
  let old_ftoi x =
    if Float.is_nan x then 0
    else if x >= 2147483647.0 then 2147483647
    else if x <= -2147483648.0 then -2147483648
    else int_of_float (Float.trunc x)
  in
  let old_ftou x =
    if Float.is_nan x then 0
    else if x >= 4294967295.0 then 4294967295
    else if x <= 0.0 then 0
    else int_of_float (Float.trunc x)
  in
  let p31 = 2147483648.0 and p32 = 4294967296.0 in
  List.iter
    (fun x ->
       List.iter
         (fun x ->
            let name = Printf.sprintf "%h" x in
            Alcotest.(check int) ("ftoi " ^ name) (old_ftoi x) (Sem.ftoi x);
            Alcotest.(check int) ("ftou " ^ name) (old_ftou x) (Sem.ftou x))
         [ x; Float.pred x; Float.succ x ])
    [ p31; -.p31; p31 -. 1.0; -.(p31 -. 1.0); p32 -. 1.0; p32; 0.5; -0.5; 1.5;
      -1.5; 0.0; -0.0; nan; infinity; neg_infinity; 1e10; -1e10 ]

let () =
  let q = QCheck_alcotest.to_alcotest ~verbose:false in
  Alcotest.run "isa-arch-fp"
    [
      ( "builder",
        [
          Alcotest.test_case "straightline" `Quick test_builder_straightline;
          Alcotest.test_case "if shape" `Quick test_builder_if_shape;
          Alcotest.test_case "while shape" `Quick test_builder_while_shape;
          Alcotest.test_case "for valid" `Quick test_builder_for_counts;
          Alcotest.test_case "early ret" `Quick test_builder_ret_early;
          Alcotest.test_case "instr count" `Quick test_instr_count;
          Alcotest.test_case "pp mentions ops" `Quick test_pp_roundtrip_mentions_ops;
          Alcotest.test_case "nested control flow" `Quick test_nested_control_flow;
          Alcotest.test_case "pand" `Quick test_pand;
          Alcotest.test_case "specials cached" `Quick test_specials_cached;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad branch" `Quick test_validate_catches_bad_branch;
          Alcotest.test_case "type error" `Quick test_validate_catches_type_error;
          Alcotest.test_case "rpo entry" `Quick test_rpo_starts_at_entry;
          Alcotest.test_case "unit classes" `Quick test_unit_classes;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "imgvf example" `Quick
            test_occupancy_imgvf_paper_example;
          Alcotest.test_case "shared limit" `Quick test_occupancy_shared_limit;
          Alcotest.test_case "warp limit" `Quick test_occupancy_warp_limit;
          Alcotest.test_case "block limit" `Quick test_occupancy_block_limit;
          Alcotest.test_case "too big" `Quick test_occupancy_too_big;
        ] );
      ( "fp-formats",
        [
          Alcotest.test_case "table3" `Quick test_formats_table3;
          Alcotest.test_case "f32 identity" `Quick test_format_f32_identity;
          Alcotest.test_case "fp16 values" `Quick test_format_fp16_values;
          Alcotest.test_case "specials" `Quick test_format_special_values;
          Alcotest.test_case "levels" `Quick test_format_levels;
        ] );
      ( "fp-props",
        [
          q prop_quantize_error_bound;
          q prop_encode_fits_width;
          q prop_quantize_idempotent;
          q prop_quantize_is_round_trip;
          q prop_quantize_monotone_width;
        ] );
      ( "fp-exact",
        [
          Alcotest.test_case "formats on f32 binades" `Quick test_exact_binades;
          Alcotest.test_case "f32 on binades and ties" `Quick test_exact_f32_binades;
          Alcotest.test_case "random doubles and ties" `Quick test_exact_random;
          Alcotest.test_case "signed zeros" `Quick test_exact_zeros;
          Alcotest.test_case "ftoi/ftou boundaries" `Quick test_ftoi_boundaries;
        ] );
    ]
