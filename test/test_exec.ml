(* Functional-executor tests: arithmetic semantics vs reference
   implementations, SIMT divergence and reconvergence, barriers with
   shared memory, traces, and the quantize table. *)

open Gpr_isa
open Gpr_isa.Types
module E = Gpr_exec.Exec
module T = Gpr_exec.Trace

let run_kernel kernel ~launch ~params ~data ?(shared = []) ?(config = E.default_config) () =
  let bindings = E.bindings_for kernel ~data ~shared () in
  E.run kernel ~launch ~params ~bindings config

(* ---------------------------------------------------------------- *)

let test_saxpy () =
  let b = Builder.create ~name:"saxpy" in
  let open Builder in
  let n = 256 in
  let x = global_buffer b F32 "x" in
  let y = global_buffer b F32 "y" in
  let a = param_f32 b "a" in
  let i = global_thread_id_x b in
  let xi = ld b x ~$i in
  let yi = ld b y ~$i in
  st b y ~$i ~$(ffma b ~$a ~$xi ~$yi);
  let kernel = finish b in
  let xs = Array.init n (fun i -> float_of_int i /. 8.0) in
  let ys = Array.init n (fun i -> float_of_int (n - i)) in
  let expect = Array.mapi (fun i x -> (2.5 *. x) +. ys.(i)) xs in
  let ydata = Array.copy ys in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:64 ~grid:4)
      ~params:[| E.P_float 2.5 |]
      ~data:[ ("x", E.F_data xs); ("y", E.F_data ydata) ] ()
  in
  Array.iteri
    (fun i e ->
       Alcotest.(check (float 1e-4)) (Printf.sprintf "y[%d]" i) e ydata.(i))
    expect

let test_integer_semantics () =
  (* Check S32 wrap-around, division, shift semantics against OCaml. *)
  let b = Builder.create ~name:"ints" in
  let open Builder in
  let inp = global_buffer b S32 "inp" in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let v = ld b inp ~$i in
  let r0 = imul b ~$v ~$v in                       (* may wrap *)
  let r1 = idiv b ~$v (ci 7) in
  let r2 = irem b ~$v (ci 7) in
  let r3 = ishr b ~$v (ci 2) in
  let r4 = iand b ~$v (ci 0xff) in
  let base = imul b ~$i (ci 5) in
  st b out ~$base ~$r0;
  st b out ~$(iadd b ~$base (ci 1)) ~$r1;
  st b out ~$(iadd b ~$base (ci 2)) ~$r2;
  st b out ~$(iadd b ~$base (ci 3)) ~$r3;
  st b out ~$(iadd b ~$base (ci 4)) ~$r4;
  let kernel = finish b in
  let values = [| 0; 1; -1; 7; -7; 123456; -123456; 0x7fffffff; -0x80000000;
                  65535; -65536; 42; 99; -100; 3; 2; 1; 0; 5; -5; 10; -10;
                  1000; -1000; 77; -77; 31; -31; 64; -64; 12345; -54321 |] in
  let outd = Array.make (32 * 5) 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
      ~data:[ ("inp", E.I_data (Array.copy values)); ("out", E.I_data outd) ] ()
  in
  let wrap x =
    let y = x land 0xffff_ffff in
    if y >= 0x8000_0000 then y - 0x1_0000_0000 else y
  in
  Array.iteri
    (fun i v ->
       Alcotest.(check int) "mul wrap" (wrap (v * v)) outd.(i * 5);
       Alcotest.(check int) "div" (v / 7) outd.((i * 5) + 1);
       Alcotest.(check int) "rem" (v mod 7) outd.((i * 5) + 2);
       Alcotest.(check int) "shr" (v asr 2) outd.((i * 5) + 3);
       Alcotest.(check int) "and" (wrap (v land 0xff)) outd.((i * 5) + 4))
    values

let test_divergence_reconvergence () =
  (* Threads branch by parity; both sides write; afterwards all threads
     write a common value — checks IPDOM reconvergence executes both
     paths with the right masks. *)
  let b = Builder.create ~name:"diverge" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let post = global_buffer b S32 "post" in
  let i = global_thread_id_x b in
  let even = ieq b ~$(iand b ~$i (ci 1)) (ci 0) in
  if_ b even
    (fun () -> st b out ~$i (ci 100))
    (fun () -> st b out ~$i (ci 200));
  st b post ~$i ~$(iadd b ~$i (ci 1000));
  let kernel = finish b in
  let n = 64 in
  let outd = Array.make n 0 and postd = Array.make n 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:n ~grid:1) ~params:[||]
      ~data:[ ("out", E.I_data outd); ("post", E.I_data postd) ] ()
  in
  for i = 0 to n - 1 do
    Alcotest.(check int) "branch value" (if i land 1 = 0 then 100 else 200)
      outd.(i);
    Alcotest.(check int) "post-reconvergence" (i + 1000) postd.(i)
  done

let test_loop_trip_counts () =
  (* Data-dependent loop: thread i iterates i times. *)
  let b = Builder.create ~name:"trips" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let acc = var b S32 "acc" in
  assign b acc (ci 0);
  for_ b ~lo:(ci 0) ~hi:~$i (fun _ ->
      assign b acc ~$(iadd b ~$acc (ci 3)));
  st b out ~$i ~$acc;
  let kernel = finish b in
  let n = 96 in
  let outd = Array.make n (-1) in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:3) ~params:[||]
      ~data:[ ("out", E.I_data outd) ] ()
  in
  for i = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "acc[%d]" i) (3 * i) outd.(i)
  done

let test_early_ret_guard () =
  let b = Builder.create ~name:"guard" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  if_then b (ige b ~$i (ci 10)) (fun () -> ret b);
  st b out ~$i (ci 7);
  let kernel = finish b in
  let outd = Array.make 10 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
      ~data:[ ("out", E.I_data outd) ] ()
  in
  Array.iter (fun v -> Alcotest.(check int) "guarded" 7 v) outd

let test_shared_memory_barrier () =
  (* Block-wide reversal through shared memory: requires the barrier to
     order producer and consumer warps. *)
  let b = Builder.create ~name:"reverse" in
  let open Builder in
  let inp = global_buffer b S32 "inp" in
  let out = global_buffer b S32 "out" in
  let tile = shared_buffer b S32 "tile" in
  let t = tid_x b in
  let blk = ctaid_x b in
  let base = imul b ~$blk (ci 128) in
  let g = iadd b ~$base ~$t in
  st b tile ~$t ~$(ld b inp ~$g);
  bar b;
  let rev = isub b (ci 127) ~$t in
  st b out ~$g ~$(ld b tile ~$rev);
  let kernel = finish b in
  let n = 256 in
  let inpd = Array.init n (fun i -> i * 11) in
  let outd = Array.make n 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:128 ~grid:2) ~params:[||]
      ~data:[ ("inp", E.I_data inpd); ("out", E.I_data outd) ]
      ~shared:[ ("tile", 128) ] ()
  in
  for i = 0 to n - 1 do
    let blk = i / 128 and t = i mod 128 in
    Alcotest.(check int) "reversed" (((blk * 128) + (127 - t)) * 11) outd.(i)
  done

let test_launch_2d () =
  let b = Builder.create ~name:"grid2d" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let x = imad b ~$(ctaid_x b) ~$(ntid_x b) ~$(tid_x b) in
  let y = imad b ~$(ctaid_y b) ~$(ntid_y b) ~$(tid_y b) in
  let w = imul b ~$(nctaid_x b) ~$(ntid_x b) in
  let idx = imad b ~$y ~$w ~$x in
  st b out ~$idx ~$(imad b ~$y (ci 1000) ~$x);
  let kernel = finish b in
  let launch = { ntid_x = 8; ntid_y = 4; nctaid_x = 2; nctaid_y = 3 } in
  let n = 16 * 12 in
  let outd = Array.make n (-1) in
  let _ =
    run_kernel kernel ~launch ~params:[||] ~data:[ ("out", E.I_data outd) ] ()
  in
  for y = 0 to 11 do
    for x = 0 to 15 do
      Alcotest.(check int) "2d index" ((y * 1000) + x) outd.((y * 16) + x)
    done
  done

(* The quantize table applies per static site: a narrow entry rounds
   that site's results in place, a 32-bit entry or a pc past the
   table's end leaves them untouched (not even rounded to f32), and
   [on_write] sees the rounded value. *)
let test_quantize_table () =
  let module F = Gpr_fp.Format_ in
  let b = Builder.create ~name:"qt" in
  let open Builder in
  let x = global_buffer b F32 "x" in
  let out = global_buffer b F32 "out" in
  let raw = global_buffer b F32 "raw" in
  let i = global_thread_id_x b in
  let y = ld b x ~$i in
  let v = fadd b ~$y (cf 1.0) in
  st b out ~$i ~$v;
  st b raw ~$i ~$y;
  let kernel = finish b in
  let pc_ld, pc_add =
    match E.float_def_sites kernel with
    | [ (a, _); (b, _) ] -> (a, b)
    | _ -> Alcotest.fail "expected two float sites"
  in
  (* Not representable in f32, so an f32 rounding would show; the sum
     4/3 rounds to a different value in every format. *)
  let x0 = 1.0 /. 3.0 in
  let run ?on_write quantize =
    let outd = Array.make 32 0.0 and rawd = Array.make 32 0.0 in
    let config = { E.default_config with quantize; on_write } in
    let _ =
      run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
        ~data:[ ("x", E.F_data (Array.make 32 x0)); ("out", E.F_data outd);
                ("raw", E.F_data rawd) ]
        ~config ()
    in
    (outd.(0), rawd.(0))
  in
  let bits = Int64.bits_of_float in
  let same what a b = Alcotest.(check int64) what (bits a) (bits b) in
  let table pc f =
    let t = Array.make (pc_add + 1) F.f32 in
    t.(pc) <- f;
    t
  in
  let out0, raw0 = run None in
  same "plain load is the raw input" x0 raw0;
  Alcotest.(check int) "seven distinct roundings" 7
    (List.length (List.sort_uniq compare (List.map (fun f -> F.quantize f out0) F.all)));
  List.iter
    (fun f ->
       let name = F.to_string f in
       let out, raw = run (Some (table pc_add f)) in
       same (name ^ ": 32-bit entry leaves the load") x0 raw;
       same (name ^ ": add site") (if f = F.f32 then out0 else F.quantize f out0) out)
    F.all;
  let fp8 = F.of_level 6 in
  let out, raw = run (Some (Array.sub (table pc_ld fp8) 0 pc_add)) in
  same "narrow load" (F.quantize fp8 x0) raw;
  let out', _ = run (Some (table pc_ld fp8)) in
  same "pc past the end = 32-bit entry" out' out;
  let seen = ref nan in
  let on_write pc _ v =
    (match v with E.P_float f when pc = pc_add -> seen := f | _ -> ());
    v
  in
  let out, _ = run ~on_write (Some (table pc_add fp8)) in
  same "on_write sees the rounded value" (F.quantize fp8 out0) !seen;
  same "stored" !seen out

let test_trace_contents () =
  let b = Builder.create ~name:"tr" in
  let open Builder in
  let x = global_buffer b F32 "x" in
  let i = global_thread_id_x b in
  let v = ld b x ~$i in
  let w = fmul b ~$v ~$v in
  st b x ~$i ~$w;
  let kernel = finish b in
  let data = [ ("x", E.F_data (Array.make 64 1.5)) ] in
  let bindings = E.bindings_for kernel ~data () in
  let trace =
    Option.get
      (E.run kernel ~launch:(launch_1d ~block:32 ~grid:2)
         ~params:[||] ~bindings { E.default_config with collect_trace = true })
  in
  Alcotest.(check int) "blocks" 2 trace.T.num_blocks;
  Alcotest.(check int) "warps/block" 1 trace.T.warps_per_block;
  (* 4 static instrs (imad for gid, ld, fmul, st) x 2 warps *)
  Alcotest.(check int) "items" 8 (Array.length trace.T.items);
  let w0 = T.warp_items trace ~block_id:0 ~warp:0 in
  Alcotest.(check int) "warp stream" 4 (List.length w0);
  let lds = List.filter (fun (it : T.item) -> it.t_mem <> None) w0 in
  Alcotest.(check int) "mem items" 2 (List.length lds);
  List.iter
    (fun (it : T.item) ->
       match it.t_mem with
       | Some m ->
         Alcotest.(check int) "full warp" 32 (Array.length m.m_addresses);
         Alcotest.(check bool) "coalesced" true
           (let sorted = Array.copy m.m_addresses in
            Array.sort compare sorted;
            sorted.(31) - sorted.(0) = 31 * 4)
       | None -> ())
    lds;
  Alcotest.(check int) "thread instrs" (4 * 64) trace.T.thread_instructions

let test_partial_warp () =
  (* 48 threads per block: second warp is half empty. *)
  let b = Builder.create ~name:"partial" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  st b out ~$i ~$(iadd b ~$i (ci 1));
  let kernel = finish b in
  let outd = Array.make 48 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:48 ~grid:1) ~params:[||]
      ~data:[ ("out", E.I_data outd) ] ()
  in
  for i = 0 to 47 do
    Alcotest.(check int) "partial warp" (i + 1) outd.(i)
  done

let test_out_of_bounds_raises () =
  let b = Builder.create ~name:"oob" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  st b out ~$(iadd b ~$i (ci 1000)) (ci 1);
  let kernel = finish b in
  Alcotest.check_raises "oob store"
    (Failure "oob: st out[1031] out of bounds (len 32)")
    (fun () ->
       ignore
         (run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
            ~data:[ ("out", E.I_data (Array.make 32 0)) ] ()))

let test_selp_and_cvt () =
  let b = Builder.create ~name:"selcvt" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let i = global_thread_id_x b in
  let p = ilt b ~$i (ci 16) in
  let sel = selp b S32 (ci 3) (ci (-4)) p in
  let f = itof b ~$sel in
  let back = ftoi b ~$(fmul b ~$f (cf 2.5)) in
  st b out ~$i ~$(itof b ~$back);
  let kernel = finish b in
  let outd = Array.make 32 0.0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
      ~data:[ ("out", E.F_data outd) ] ()
  in
  for i = 0 to 31 do
    (* 3 * 2.5 = 7.5 -> trunc 7 ; -4 * 2.5 = -10 -> -10 *)
    Alcotest.(check (float 0.0)) "selp+cvt"
      (if i < 16 then 7.0 else -10.0)
      outd.(i)
  done

let test_transcendentals_match_reference () =
  let b = Builder.create ~name:"sfu" in
  let open Builder in
  let inp = global_buffer b F32 "inp" in
  let out = global_buffer b F32 "out" in
  let i = global_thread_id_x b in
  let x = ld b inp ~$i in
  let base = imul b ~$i (ci 6) in
  st b out ~$base ~$(fsin b ~$x);
  st b out ~$(iadd b ~$base (ci 1)) ~$(fcos b ~$x);
  st b out ~$(iadd b ~$base (ci 2)) ~$(fex2 b ~$x);
  st b out ~$(iadd b ~$base (ci 3)) ~$(flg2 b ~$(fabs b ~$x));
  st b out ~$(iadd b ~$base (ci 4)) ~$(frsqrt b ~$(fabs b ~$x));
  st b out ~$(iadd b ~$base (ci 5)) ~$(ffloor b ~$x);
  let kernel = finish b in
  let f32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let xs = Array.init 32 (fun k -> f32 (0.1 +. (float_of_int k /. 7.0))) in
  let outd = Array.make (32 * 6) 0.0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
      ~data:[ ("inp", E.F_data (Array.copy xs)); ("out", E.F_data outd) ] ()
  in
  Array.iteri
    (fun k x ->
       let check name expect got =
         Alcotest.(check (float 1e-6)) (Printf.sprintf "%s(%g)" name x)
           (f32 expect) got
       in
       check "sin" (sin x) outd.(k * 6);
       check "cos" (cos x) outd.((k * 6) + 1);
       check "ex2" (Float.exp2 x) outd.((k * 6) + 2);
       check "lg2" (Float.log2 (Float.abs x)) outd.((k * 6) + 3);
       check "rsqrt" (1.0 /. sqrt (Float.abs x)) outd.((k * 6) + 4);
       check "floor" (Float.floor x) outd.((k * 6) + 5))
    xs

let test_u32_semantics () =
  (* Unsigned compare and logical shift differ from the signed path. *)
  let b = Builder.create ~name:"u32" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let i = global_thread_id_x b in
  let neg = mov b U32 (ci (-1)) in          (* 0xffffffff *)
  let shifted = ishr b ~ty:U32 ~$neg (ci 4) in (* logical: 0x0fffffff *)
  let pu = setp b Lt U32 (ci 1) ~$neg in    (* 1 <u 0xffffffff: true *)
  let ps = ilt b (ci 1) (ci (-1)) in        (* 1 <s -1: false *)
  let r1 = selp b S32 (ci 1) (ci 0) pu in
  let r2 = selp b S32 (ci 1) (ci 0) ps in
  let base = imul b ~$i (ci 3) in
  st b out ~$base ~$shifted;
  st b out ~$(iadd b ~$base (ci 1)) ~$r1;
  st b out ~$(iadd b ~$base (ci 2)) ~$r2;
  let kernel = finish b in
  let outd = Array.make 96 0 in
  let _ =
    run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
      ~data:[ ("out", E.I_data outd) ] ()
  in
  Alcotest.(check int) "logical shift" 0x0fffffff outd.(0);
  Alcotest.(check int) "unsigned lt" 1 outd.(1);
  Alcotest.(check int) "signed lt" 0 outd.(2)

let prop_float_ops_match_reference =
  QCheck.Test.make ~name:"warp float ops match scalar reference" ~count:50
    QCheck.(pair (float_range (-100.0) 100.0) (float_range 0.1 100.0))
    (fun (a, c) ->
       let b = Builder.create ~name:"fref" in
       let open Builder in
       let out = global_buffer b F32 "out" in
       let i = global_thread_id_x b in
       let x = fadd b (cf a) (cf c) in
       let y = fmul b ~$x (cf a) in
       let z = fdiv b ~$y (cf c) in
       let w = fsqrt b ~$(fabs b ~$z) in
       st b out ~$i ~$w;
       let kernel = finish b in
       let outd = Array.make 32 0.0 in
       let _ =
         run_kernel kernel ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
           ~data:[ ("out", E.F_data outd) ] ()
       in
       let f32 v = Int32.float_of_bits (Int32.bits_of_float v) in
       (* Immediates are rounded to f32 before use, as in the executor. *)
       let a = f32 a and c = f32 c in
       let expect =
         f32 (sqrt (Float.abs (f32 (f32 (f32 (a +. c) *. a) /. c))))
       in
       Float.abs (outd.(0) -. expect) <= 1e-6 *. Float.max 1.0 (Float.abs expect))

(* ---------------------------------------------------------------- *)
(* Regression pins for every registry kernel, recorded from the original
   per-lane interpreter: the output buffer of the reference run, the
   output under one fixed narrowed assignment (every float site two
   format steps down, through {!Gpr_precision.Precision.quantizer}), and
   the full warp trace with its thread-instruction count.  Any change to
   the executor must reproduce all three digests. *)

module W = Gpr_workloads.Workload
module P = Gpr_precision.Precision

let digest_floats a =
  let buf = Buffer.create (Array.length a * 17) in
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%Lx," (Int64.bits_of_float x))) a;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Structural digest of a trace: every field of every item, in order,
   chained in chunks so the largest traces never build one huge string. *)
let digest_trace (tr : T.t) =
  let buf = Buffer.create 65536 in
  let chain = ref (Digest.string "") in
  let flush () =
    chain := Digest.string (!chain ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let unit_tag = function Spu -> 0 | Sfu -> 1 | Ldst -> 2 | Sync -> 3 in
  let space_tag = function Global -> 0 | Shared -> 1 | Texture -> 2 | Param -> 3 in
  Array.iter
    (fun (it : T.item) ->
       Printf.bprintf buf "%d %d %d %d [%s] %s %b %d" it.t_warp it.t_block_id
         it.t_pc (unit_tag it.t_unit)
         (String.concat ";" (List.map string_of_int it.t_srcs))
         (match it.t_dst with Some d -> string_of_int d | None -> "-")
         it.t_dst_float it.t_active;
       (match it.t_mem with
        | None -> ()
        | Some m ->
          Printf.bprintf buf " m%d:" (space_tag m.m_space);
          Array.iter (fun a -> Printf.bprintf buf "%d," a) m.m_addresses);
       Buffer.add_char buf '\n';
       if Buffer.length buf > 60000 then flush ())
    tr.items;
  Printf.bprintf buf "wpb %d blocks %d instrs %d" tr.warps_per_block
    tr.num_blocks tr.thread_instructions;
  flush ();
  Digest.to_hex !chain

let narrowed_table (w : W.t) =
  let sites = W.float_sites w in
  let formats = Hashtbl.create 16 in
  List.iter (fun (pc, _) -> Hashtbl.replace formats pc (Gpr_fp.Format_.of_level 2)) sites;
  P.quantizer { P.formats; sites; evaluations = 0 }

(* kernel, reference output, narrowed output, trace *)
let pins = [
  ("Deferred", "29318bd0f5eb45ea969bf39d0e17e909",
   "ce1fcfb51236c041b30598b1f27dabbd", "58b57802ec5d3ee40175a8aaa157621e");
  ("SSAO", "be93273212ab04e5cd36bea8eaad12e6",
   "2724286a0fb2e586b5eae2891eb08752", "3551345e3e2c0beca647e62eafbd2e35");
  ("Elevated", "7bd1ce0e3ba9d8dbf967f295b6dc318c",
   "d07c8c9ef885de01fed92e03f60f72ca", "9e8cf41178c76a209ed99d997717f2e9");
  ("Pathtracer", "4043d6b7a79271f3c349fd8f1f3f2aba",
   "504436f998a263f2bf6b896048376db3", "7fab6c66a82dd203a73206790b523485");
  ("CFD", "a54961657f26b975a20d9fa4650c5784",
   "590932aeac83a6f6dea6b3002ebfa1a5", "8590de6ff0029d6594c2ec964fb9cf45");
  ("DWT2D", "644b132755f0ae0035e54b32637a0a69",
   "644b132755f0ae0035e54b32637a0a69", "2f6cc9ab3df608bcf8537a3917dfe814");
  ("Hotspot", "b8387303e336582e297dea9d5905d0ce",
   "b8387303e336582e297dea9d5905d0ce", "92d972438a1302392c2a0bae849ef6cd");
  ("Hotspot3D", "a6480954a00dbc8f5a3525d06e0b1c87",
   "d0ba672bfb30fd9a6d40642c7223957a", "dff4eceee03adf8380e34e159bfbc828");
  ("IMGVF", "5d6d0c2452d6ce91e35b1eecf940c8af",
   "2a279b63d1f0ad8509489b0006555b10", "53f000e2c0985a6a2c093db0d16fa6e7");
  ("GICOV", "eaa0d0faf22eb00c1766fcbe0e0482d2",
   "eb2fe56c4baeb01cd40afa14286c1915", "2a9304eb7a01266dbada1e2182d64c4f");
  ("Hybridsort", "a2d3d2ac11e148ce56022faea92cb9a0",
   "a2d3d2ac11e148ce56022faea92cb9a0", "3f3cb9c88d1a5e92672764087855dcf8");
]

let test_pins (name, reference, narrowed, trace) () =
  let w = Option.get (Gpr_workloads.Registry.by_name name) in
  Alcotest.(check string) "reference output" reference (digest_floats (W.reference w));
  Alcotest.(check string) "narrowed output" narrowed
    (digest_floats (W.run_quantized w ~quantize:(narrowed_table w)));
  Alcotest.(check string) "trace" trace (digest_trace (W.trace w ~quantize:None))

(* Allocation gate: under the pins' narrowed table a quantised run
   allocates what the reference run does (inputs, output copy, run
   state) plus a few words.  Narrowed floats are rounded in place, so a
   float boxed per register write would show as millions of words. *)
let test_quantized_allocation (name, _, _, _) () =
  let w = Option.get (Gpr_workloads.Registry.by_name name) in
  let table = narrowed_table w in
  let words f =
    ignore (f ());  (* decode and register files on the first run *)
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  let reference = words (fun () -> W.reference w) in
  let quantized = words (fun () -> W.run_quantized w ~quantize:table) in
  if quantized > reference +. 16.0 then
    Alcotest.failf "%s: quantised run allocates %.0f minor words, reference %.0f"
      name quantized reference

(* The interpreter's own narrowed path, without a tape: [Exec.run]
   under the pins' table against a reference [Exec.run], on every
   registry kernel.  On an eligible kernel the gate above measures a
   replay, so only this one sees the lane loops' allocation. *)
let exec_run (w : W.t) quantize () =
  let data = w.data () in
  let bindings = E.bindings_for w.kernel ~data ~shared:w.shared () in
  ignore
    (E.run w.kernel ~launch:w.launch ~params:w.params ~bindings
       { E.default_config with quantize })

let test_interpreter_allocation (name, _, _, _) () =
  let w = Option.get (Gpr_workloads.Registry.by_name name) in
  let table = narrowed_table w in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let reference = words (exec_run w None) in
  let quantized = words (exec_run w (Some table)) in
  if quantized > reference +. 16.0 then
    Alcotest.failf "%s: interpreted quantised run allocates %.0f minor words, reference %.0f"
      name quantized reference

(* ---------------------------------------------------------------- *)
(* Replay differential: a tape recorded under one [quantize] table and
   replayed under another must leave every buffer as the interpreter
   does, bit for bit, and count the same thread instructions. *)

module Metrics = Gpr_obs.Metrics

let thread_instrs = Metrics.counter "exec.thread_instructions"

(* Every buffer of a run, as bytes (floats by bit pattern), and the
   thread instructions it counted. *)
let counted f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () ->
      let i0 = Metrics.value thread_instrs in
      let data = f () in
      (Marshal.to_string data [], Metrics.value thread_instrs - i0))

let interpreted ~kernel ~launch ~params ~data ~shared quantize =
  counted (fun () ->
      let data = data () in
      let bindings = E.bindings_for kernel ~data ~shared () in
      ignore (E.run kernel ~launch ~params ~bindings { E.default_config with quantize });
      data)

let replayed tape ~kernel ~data ~shared quantize =
  counted (fun () ->
      let data = data () in
      E.replay tape ~bindings:(E.bindings_for kernel ~data ~shared ()) ~quantize;
      data)

(* Random per-site formats, every Table 3 format equally likely. *)
let random_table rng n =
  Array.init n (fun _ -> Gpr_fp.Format_.of_level (Gpr_util.Rng.int rng 7))

(* Record under [tables]'s first entry, then replay each table
   against the interpreter.  [None] when the kernel has no tape. *)
let replay_agrees ~label ~kernel ~launch ~params ~data ~shared tables =
  let d = data () in
  let tape =
    E.record kernel ~launch ~params ~bindings:(E.bindings_for kernel ~data:d ~shared ())
      ~quantize:(List.hd tables)
  in
  Option.map
    (fun tape ->
       List.iteri
         (fun i q ->
            let want = interpreted ~kernel ~launch ~params ~data ~shared q in
            let got = replayed tape ~kernel ~data ~shared q in
            if got <> want then
              Alcotest.failf "%s: table %d: replay differs (%d vs %d thread instructions%s)"
                label i (snd got) (snd want)
                (if fst got = fst want then "" else ", buffers differ"))
         tables)
    tape

let ineligible = [ "Elevated"; "Pathtracer"; "Hybridsort" ]

let test_replay_registry name () =
  let w = Option.get (Gpr_workloads.Registry.by_name name) in
  let n = E.count_static_instrs w.kernel in
  let rng = Gpr_util.Rng.create (Hashtbl.hash name) in
  let tables =
    (Some (narrowed_table w) :: None
     :: List.map (fun f -> Some (Array.make n f)) Gpr_fp.Format_.all)
    @ List.init 3 (fun _ -> Some (random_table rng n))
  in
  Alcotest.(check bool) "eligible" (not (List.mem name ineligible)) (E.eligible w.kernel);
  let recorded =
    replay_agrees ~label:name ~kernel:w.kernel ~launch:w.launch ~params:w.params
      ~data:w.data ~shared:w.shared tables
  in
  Alcotest.(check bool) "tape recorded" (E.eligible w.kernel) (recorded <> None)

(* Generated kernels emit [ftoi], [itof] and float [selp]: both sides
   of the eligibility rule. *)
let replay_count =
  match Sys.getenv_opt "GPR_REPLAY_EQ_COUNT" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 40)
  | None -> 40

module Gen = Gpr_check.Gen

(* [Some eligible] for a generated kernel that runs within a step
   budget, after checking its replays. *)
let replay_generated seed =
  let c = Gen.generate seed in
  let kernel = c.Gen.kernel and launch = c.Gen.launch and params = c.Gen.params in
  let terminates =
    try
      let bindings = E.bindings_for kernel ~data:(c.Gen.data ()) ~shared:c.Gen.shared () in
      ignore (E.run kernel ~launch ~params ~bindings
                { E.default_config with max_steps = Some 500_000 });
      true
    with Failure _ -> false
  in
  if not terminates then None
  else begin
    let n = E.count_static_instrs kernel in
    let rng = Gpr_util.Rng.create seed in
    let levels =
      Array.init n (fun pc ->
          match List.assoc_opt pc (E.float_def_sites kernel) with
          | Some d -> Gpr_fp.Format_.of_level (c.Gen.float_level d)
          | None -> Gpr_fp.Format_.f32)
    in
    let tables =
      [ Some (random_table rng n); None; Some levels;
        Some (Array.make n (Gpr_fp.Format_.of_level 6)); Some (random_table rng n) ]
    in
    let recorded =
      replay_agrees ~label:(Printf.sprintf "seed %d" seed) ~kernel ~launch ~params
        ~data:c.Gen.data ~shared:c.Gen.shared tables
    in
    if (recorded <> None) <> E.eligible kernel then
      Alcotest.failf "seed %d: a tape exists iff the kernel is eligible" seed;
    Some (E.eligible kernel)
  end

(* Seeds 1..GPR_REPLAY_EQ_COUNT (default 40; CI runs 500) hold
   eligible and ineligible kernels alike. *)
let test_replay_generated () =
  let seen = List.filter_map replay_generated (List.init replay_count (fun i -> i + 1)) in
  Alcotest.(check bool) "an eligible kernel" true (List.mem true seen);
  Alcotest.(check bool) "an ineligible kernel" true (List.mem false seen)

(* A run whose tape would pass the size bound (2^20 words) records
   none, and its kernel keeps the interpreter. *)
let test_replay_bound () =
  let b = Builder.create ~name:"long" in
  let open Builder in
  let out = global_buffer b F32 "out" in
  let n = param_i32 b "n" in
  let acc = var b F32 "acc" in
  assign b acc (cf 0.0);
  for_ b ~lo:(ci 0) ~hi:~$n (fun _ -> assign b acc ~$(fadd b ~$acc (cf 1.0)));
  st b out ~$(global_thread_id_x b) ~$acc;
  let kernel = finish b in
  let record iterations =
    let data = [ ("out", E.F_data (Array.make 32 0.0)) ] in
    E.record kernel ~launch:(launch_1d ~block:32 ~grid:1)
      ~params:[| E.P_int iterations |] ~bindings:(E.bindings_for kernel ~data ())
      ~quantize:None
  in
  Alcotest.(check bool) "short run" true (record 1000 <> None);
  Alcotest.(check bool) "long run" true (record (1 lsl 20) = None)

(* A tape belongs to the kernel, [data] closure, launch, params and
   shared sizes it was recorded from: here the integer inputs pick
   which float each thread reads, so reusing another copy's tape would
   read the wrong elements. *)
let test_replay_key () =
  let b = Builder.create ~name:"gather" in
  let open Builder in
  let idx = global_buffer b S32 "idx" in
  let x = global_buffer b F32 "x" in
  let out = global_buffer b F32 "out" in
  let off = param_i32 b "off" in
  let i = global_thread_id_x b in
  let j = iadd b ~$(ld b idx ~$i) ~$off in
  st b out ~$i ~$(fmul b ~$(ld b x ~$j) (cf 1.1));
  let kernel = finish b in
  let n = 64 in
  let inputs perm () =
    [ ("idx", E.I_data (Array.init n perm));
      ("x", E.F_data (Array.init (n + 1) (fun k -> 1.0 +. (float_of_int k /. 3.0))));
      ("out", E.F_data (Array.make n 0.0)) ]
  in
  let w =
    W.share_inputs
      { W.name = "gather"; group = 2; metric = Gpr_quality.Quality.M_deviation; kernel;
        launch = launch_1d ~block:32 ~grid:2; params = [| E.P_int 0 |];
        data = inputs (fun k -> (k * 7) mod n); shared = []; extra_shared_bytes = 0;
        output = W.Out_floats "out"; paper_regs = 0 }
  in
  let table = Array.make (E.count_static_instrs kernel) (Gpr_fp.Format_.of_level 4) in
  let expect (v : W.t) =
    let data = v.data () in
    let bindings = E.bindings_for v.kernel ~data ~shared:v.shared () in
    ignore (E.run v.kernel ~launch:v.launch ~params:v.params ~bindings
              { E.default_config with quantize = Some table });
    match List.assoc "out" data with E.F_data a -> a | E.I_data _ -> assert false
  in
  let check label (v : W.t) =
    Alcotest.(check (array (float 0.0))) label (expect v) (W.run_quantized v ~quantize:table)
  in
  W.clear_tapes ();
  check "records" w;
  check "replays" w;
  let other_data = { w with data = inputs (fun k -> (k * 5) mod n) } in
  let other_shared = W.share_inputs other_data in
  let other_params = { w with params = [| E.P_int 1 |] } in
  Alcotest.(check bool) "inputs change the output" false
    (expect w = expect other_data || expect w = expect other_params);
  check "{ w with data }" other_data;
  check "other kept inputs" other_shared;
  check "other kept inputs, replayed" other_shared;
  check "{ w with params }" other_params;
  check "{ w with params }, replayed" other_params;
  check "w again, recorded afresh" w;
  check "w again, replayed" w;
  W.clear_tapes ();
  check "after clear_tapes" w

(* ---------------------------------------------------------------- *)
(* Errors stay run-time errors: an ill-typed immediate, a type mismatch
   or an out-of-bounds access raises only when the instruction executes
   with active lanes, with the interpreter's original messages. *)

let vr id ty = { id; ty; name = Printf.sprintf "r%d" id }
let tid = vr 0 S32
let pred = vr 1 Pred
let ri = vr 2 S32
let rf = vr 3 F32

let out_buf = { buf_id = 0; buf_name = "out"; buf_space = Global; buf_elem = S32; buf_range = None }

(* block 0 branches to block 1 on lanes whose tid equals [taken] (none
   when [taken] is out of range); block 1 holds [body]; block 2 returns. *)
let guarded_kernel ?(taken = -1) body =
  {
    k_name = "bad";
    k_blocks =
      [| { label = 0; instrs = [| Setp (Eq, S32, pred, Reg tid, Imm_i taken) |];
           term = Cbr (pred, 1, 2) };
         { label = 1; instrs = body; term = Br 2 };
         { label = 2; instrs = [||]; term = Ret } |];
    k_params = [||];
    k_buffers = [| out_buf |];
    k_num_vregs = 4;
    k_specials = [ (0, Tid_x) ];
  }

let run_guarded ?taken ?(config = E.default_config) body =
  ignore
    (run_kernel (guarded_kernel ?taken body) ~launch:(launch_1d ~block:32 ~grid:1)
       ~params:[||] ~data:[ ("out", E.I_data (Array.make 32 0)) ] ~config ())

let float_in_int = Failure "Exec: float immediate in integer context"

let test_ill_typed_immediates () =
  let cases =
    [ ("ibin", [| Ibin (Add, ri, Reg ri, Imm_f 1.5) |], float_in_int);
      ("imad", [| Imad (ri, Reg ri, Imm_f 2.0, Reg ri) |], float_in_int);
      ("fbin", [| Fbin (Fadd, rf, Reg rf, Imm_i 3) |],
       Failure "Exec: int immediate 3 in float context");
      ("fbin both", [| Fbin (Fmul, rf, Imm_i 4, Imm_i 5) |],
       Failure "Exec: int immediate 4 in float context");
      ("ffma", [| Ffma (rf, Reg rf, Reg rf, Imm_i 6) |],
       Failure "Exec: int immediate 6 in float context");
      ("ffma all", [| Ffma (rf, Imm_i 10, Imm_i 11, Imm_i 12) |],
       Failure "Exec: int immediate 12 in float context");
      ("setp both", [| Setp (Lt, F32, pred, Imm_i 13, Imm_i 14) |],
       Failure "Exec: int immediate 14 in float context");
      ("selp both", [| Selp (rf, Imm_i 15, Imm_i 16, pred) |],
       Failure "Exec: int immediate 15 in float context");
      ("setp", [| Setp (Lt, F32, pred, Reg rf, Imm_i 7) |],
       Failure "Exec: int immediate 7 in float context");
      ("mov", [| Mov (rf, Imm_i 8) |], Failure "Exec: int immediate 8 in float context");
      ("cvt", [| Cvt (F32_of_s32, rf, Imm_f 0.5) |], float_in_int);
      ("st value", [| St ({ abuf = out_buf; aindex = Reg tid }, Imm_f 9.0) |],
       float_in_int);
      ("ld index", [| Ld (ri, { abuf = out_buf; aindex = Imm_f 0.0 }) |], float_in_int);
    ]
  in
  List.iter
    (fun (name, body, exn) ->
       (* Never executed: silent. *)
       run_guarded body;
       (* Executed by one lane: the interpreter's failure. *)
       Alcotest.check_raises name exn (fun () -> run_guarded ~taken:5 body))
    cases

let test_selp_evaluates_lazily () =
  (* Selp reads only the selected operand: a bad immediate on the side
     no lane selects is never evaluated. *)
  let sel = [| Selp (ri, Reg tid, Imm_f 1.0, pred) |] in
  let p_false = Setp (Eq, S32, pred, Reg tid, Imm_i (-1)) in
  run_guarded ~taken:5 (Array.append [| Setp (Ge, S32, pred, Reg tid, Imm_i 0) |] sel);
  Alcotest.check_raises "selected" float_in_int (fun () ->
      run_guarded ~taken:5 (Array.append [| p_false |] sel))

let test_store_checks_bounds_before_value () =
  (* A store checks its index before it evaluates its value. *)
  let oob = [| St ({ abuf = out_buf; aindex = Imm_i 40 }, Imm_f 1.0) |] in
  Alcotest.check_raises "oob first"
    (Failure "bad: st out[40] out of bounds (len 32)")
    (fun () -> run_guarded ~taken:5 oob)

let test_memory_errors () =
  let ld = [| Ld (ri, { abuf = out_buf; aindex = Imm_i 32 }) |] in
  Alcotest.check_raises "ld oob" (Failure "bad: ld out[32] out of bounds (len 32)")
    (fun () -> run_guarded ~taken:3 ld);
  let ld_f = [| Ld (rf, { abuf = out_buf; aindex = Reg tid }) |] in
  run_guarded ld_f;
  Alcotest.check_raises "load type" (Failure "bad: load type mismatch") (fun () ->
      run_guarded ~taken:3 ld_f);
  let tex = { out_buf with buf_space = Texture } in
  let k = guarded_kernel ~taken:3 [| St ({ abuf = tex; aindex = Reg tid }, Reg ri) |] in
  let k = { k with k_buffers = [| tex |] } in
  Alcotest.check_raises "texture store"
    (Failure "bad: store to read-only texture space") (fun () ->
        ignore
          (run_kernel k ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
             ~data:[ ("out", E.I_data (Array.make 32 0)) ] ()))

let test_budget_on_empty_loop () =
  let k =
    { (guarded_kernel [||]) with
      k_name = "spin";
      k_blocks = [| { label = 0; instrs = [||]; term = Br 1 };
                    { label = 1; instrs = [||]; term = Br 0 } |] }
  in
  Alcotest.check_raises "budget"
    (Failure "spin: step budget of 1000 thread instructions exceeded")
    (fun () ->
       ignore
         (run_kernel k ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
            ~data:[ ("out", E.I_data (Array.make 32 0)) ]
            ~config:{ E.default_config with max_steps = Some 1000 } ()))

(* ---------------------------------------------------------------- *)
(* Register files are reused across CTAs and runs: a slot a lane reads
   before its own path wrote it must still read 0. *)

let test_registers_cleared_between_ctas () =
  (* Only CTA 0 defines r5 and f6; CTA 1 reads both undefined. *)
  let r5 = vr 5 S32 and f6 = vr 6 F32 and ctaid = vr 4 S32 in
  let fout = { out_buf with buf_id = 1; buf_name = "fout"; buf_elem = F32 } in
  let k =
    {
      k_name = "stale";
      k_blocks =
        [| { label = 0; instrs = [| Setp (Eq, S32, pred, Reg ctaid, Imm_i 0) |];
             term = Cbr (pred, 1, 2) };
           { label = 1; instrs = [| Mov (r5, Imm_i 42); Mov (f6, Imm_f 2.5) |];
             term = Br 2 };
           { label = 2;
             instrs =
               [| Ibin (Add, ri, Reg tid, Imm_i 0);
                  Imad (ri, Reg ctaid, Imm_i 32, Reg ri);
                  St ({ abuf = out_buf; aindex = Reg ri }, Reg r5);
                  St ({ abuf = fout; aindex = Reg ri }, Reg f6) |];
             term = Ret } |];
      k_params = [||];
      k_buffers = [| out_buf; fout |];
      k_num_vregs = 7;
      k_specials = [ (0, Tid_x); (4, Ctaid_x) ];
    }
  in
  let outd = Array.make 64 (-1) and foutd = Array.make 64 (-1.0) in
  ignore
    (run_kernel k ~launch:(launch_1d ~block:32 ~grid:2) ~params:[||]
       ~data:[ ("out", E.I_data outd); ("fout", E.F_data foutd) ] ());
  Alcotest.(check int) "cta 0 int" 42 outd.(0);
  Alcotest.(check (float 0.0)) "cta 0 float" 2.5 foutd.(31);
  Alcotest.(check int) "cta 1 int" 0 outd.(32);
  Alcotest.(check (float 0.0)) "cta 1 float" 0.0 foutd.(63)

let test_registers_cleared_between_runs () =
  (* The first kernel fills int slot 5; the second defines register 5
     only in the float file and reads its int slot. *)
  let r5 = vr 5 S32 in
  let writer =
    [| Ibin (Add, r5, Reg tid, Imm_i 100); St ({ abuf = out_buf; aindex = Reg tid }, Reg r5) |]
  in
  let reader =
    [| Mov (vr 5 F32, Imm_f 1.5); Ibin (Add, ri, Reg r5, Imm_i 7);
       St ({ abuf = out_buf; aindex = Reg tid }, Reg ri) |]
  in
  let run body =
    let outd = Array.make 32 (-1) in
    let k = guarded_kernel body in
    ignore
      (run_kernel { k with k_num_vregs = 6;
                           k_blocks = [| { (k.k_blocks.(0)) with instrs = [||]; term = Br 1 };
                                         k.k_blocks.(1); k.k_blocks.(2) |] }
         ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
         ~data:[ ("out", E.I_data outd) ] ());
    outd
  in
  Alcotest.(check int) "writer" 105 (run writer).(5);
  Alcotest.(check int) "reader sees a zero slot" 7 (run reader).(5)

(* A store reads its value in the file its buffer's element type
   selects: a register never written in that file stores 0, one
   written in both files stores that file's value. *)
let test_store_value_file () =
  let fout = { out_buf with buf_id = 1; buf_name = "fout"; buf_elem = F32 } in
  let r5f = vr 5 F32 and r5i = vr 5 S32 and hi = vr 6 S32 in
  let k =
    {
      k_name = "files";
      k_blocks =
        [| { label = 0;
             instrs =
               [| Mov (rf, Imm_f 2.5); Ibin (Add, ri, Reg tid, Imm_i 7);
                  Mov (r5f, Imm_f 1.5); Ibin (Add, r5i, Reg tid, Imm_i 100);
                  Ibin (Add, hi, Reg tid, Imm_i 32);
                  St ({ abuf = out_buf; aindex = Reg tid }, Reg rf);
                  St ({ abuf = fout; aindex = Reg tid }, Reg ri);
                  St ({ abuf = out_buf; aindex = Reg hi }, Reg r5f);
                  St ({ abuf = fout; aindex = Reg hi }, Reg r5i) |];
             term = Ret } |];
      k_params = [||];
      k_buffers = [| out_buf; fout |];
      k_num_vregs = 7;
      k_specials = [ (0, Tid_x) ];
    }
  in
  let outd = Array.make 64 (-1) and foutd = Array.make 64 (-1.0) in
  ignore
    (run_kernel k ~launch:(launch_1d ~block:32 ~grid:1) ~params:[||]
       ~data:[ ("out", E.I_data outd); ("fout", E.F_data foutd) ] ());
  Alcotest.(check int) "float register, int buffer" 0 outd.(3);
  Alcotest.(check (float 0.0)) "int register, float buffer" 0.0 foutd.(3);
  Alcotest.(check int) "both files, int buffer" 103 outd.(35);
  Alcotest.(check (float 0.0)) "both files, float buffer" 1.5 foutd.(35)

let () =
  let q = QCheck_alcotest.to_alcotest ~verbose:false in
  Alcotest.run "exec"
    [
      ( "functional",
        [
          Alcotest.test_case "saxpy" `Quick test_saxpy;
          Alcotest.test_case "integer semantics" `Quick test_integer_semantics;
          Alcotest.test_case "selp + cvt" `Quick test_selp_and_cvt;
          Alcotest.test_case "transcendentals" `Quick
            test_transcendentals_match_reference;
          Alcotest.test_case "u32 semantics" `Quick test_u32_semantics;
          Alcotest.test_case "partial warp" `Quick test_partial_warp;
          Alcotest.test_case "2d launch" `Quick test_launch_2d;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "if reconvergence" `Quick test_divergence_reconvergence;
          Alcotest.test_case "per-thread trip counts" `Quick test_loop_trip_counts;
          Alcotest.test_case "early ret guard" `Quick test_early_ret_guard;
        ] );
      ( "shared+barrier",
        [ Alcotest.test_case "block reversal" `Quick test_shared_memory_barrier ] );
      ( "hooks",
        [
          Alcotest.test_case "quantize hook" `Quick test_quantize_table;
          Alcotest.test_case "trace contents" `Quick test_trace_contents;
          Alcotest.test_case "oob raises" `Quick test_out_of_bounds_raises;
        ] );
      ( "runtime errors",
        [
          Alcotest.test_case "ill-typed immediates" `Quick test_ill_typed_immediates;
          Alcotest.test_case "selp evaluates lazily" `Quick test_selp_evaluates_lazily;
          Alcotest.test_case "store bounds before value" `Quick
            test_store_checks_bounds_before_value;
          Alcotest.test_case "memory errors" `Quick test_memory_errors;
          Alcotest.test_case "budget on empty loop" `Quick test_budget_on_empty_loop;
        ] );
      ( "register files",
        [
          Alcotest.test_case "cleared between CTAs" `Quick
            test_registers_cleared_between_ctas;
          Alcotest.test_case "cleared between runs" `Quick
            test_registers_cleared_between_runs;
          Alcotest.test_case "store value file" `Quick test_store_value_file;
        ] );
      ( "pins",
        List.map
          (fun ((name, _, _, _) as pin) ->
             Alcotest.test_case name `Quick (test_pins pin))
          pins );
      ( "alloc gate",
        List.map
          (fun ((name, _, _, _) as pin) ->
             Alcotest.test_case name `Quick (test_quantized_allocation pin))
          pins );
      ( "interp alloc",
        List.map
          (fun ((name, _, _, _) as pin) ->
             Alcotest.test_case name `Quick (test_interpreter_allocation pin))
          pins );
      ( "replay",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_replay_registry name))
          Gpr_workloads.Registry.names
        @ [ Alcotest.test_case "generated" `Quick test_replay_generated;
            Alcotest.test_case "key" `Quick test_replay_key;
            Alcotest.test_case "size bound" `Quick test_replay_bound ] );
      ("props", [ q prop_float_ops_match_reference ]);
    ]
