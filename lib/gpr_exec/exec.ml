open Gpr_isa.Types

type storage = I_data of int array | F_data of float array
type binding = Buf_data of storage | Buf_shared of int
type pvalue = P_int of int | P_float of float

type config = {
  quantize : Gpr_fp.Format_.t array option;
  collect_trace : bool;
  on_write : (int -> vreg -> pvalue -> pvalue) option;
  max_steps : int option;
  on_monitor : (Trace.monitor_event -> unit) option;
}

let default_config =
  { quantize = None; collect_trace = false; on_write = None; max_steps = None;
    on_monitor = None }

(* ------------------------------------------------------------------ *)
(* 32-bit semantics.  The lane loops below, [Gpr_opt]'s constant folder
   and the transfer-soundness tests all read this one definition.  It
   lives in this compilation unit so the lane loops inline it: a call
   into another module stays a call (and boxes a float result) when
   the interface is compiled opaque. *)

module Sem = struct
  let[@inline] wrap_s32 x =
    let y = x land 0xffff_ffff in
    if y >= 0x8000_0000 then y - 0x1_0000_0000 else y

  let[@inline] wrap_u32 x = x land 0xffff_ffff
  let[@inline] wrap u x = if u then wrap_u32 x else wrap_s32 x

  (* In the f32 normal range a Veltkamp split by 2^29 + 1 rounds to 24
     significant bits, ties to even, without the two C calls of the bit
     casts; ±0 is its own rounding (returning [x] keeps the sign), and
     denormals, inf, NaN and |x| >= 2^127 take the casts.
     [Format_.quantize] uses the same split. *)
  let[@inline] f32 x =
    let a = Float.abs x in
    if x = 0.0 then x
    else if a >= 0x1p-126 && a < 0x1p127 then
      let p = x *. 536870913.0 in
      (x -. p) +. p
    else Int32.float_of_bits (Int32.bits_of_float x)

  (* [int_of_float] truncates toward zero, and the guards keep x inside
     the int range. *)
  let[@inline] ftoi x =
    if Float.is_nan x then 0
    else if x >= 2147483647.0 then 2147483647
    else if x <= -2147483648.0 then -2147483648
    else int_of_float x

  let[@inline] ftou x =
    if Float.is_nan x then 0
    else if x >= 4294967295.0 then 4294967295
    else if x <= 0.0 then 0
    else int_of_float x

  let[@inline] ibin op u (x : int) y =
    wrap u
      (match op with
       | Add -> x + y
       | Sub -> x - y
       | Mul -> x * y
       | Div -> if y = 0 then 0 else x / y
       | Rem -> if y = 0 then x else x mod y
       | Min -> if x <= y then x else y
       | Max -> if x >= y then x else y
       | And -> x land y
       | Or -> x lor y
       | Xor -> x lxor y
       | Shl -> x lsl (y land 31)
       | Shr -> if u then wrap_u32 x lsr (y land 31) else x asr (y land 31))

  let[@inline] iun op u x =
    wrap u (match op with Ineg -> -x | Inot -> lnot x | Iabs -> abs x)

  let[@inline] imad u x y z = wrap u ((x * y) + z)

  let[@inline] fbin op x y =
    f32
      (match op with
       | Fadd -> x +. y
       | Fsub -> x -. y
       | Fmul -> x *. y
       | Fdiv -> x /. y
       | Fmin -> Float.min x y
       | Fmax -> Float.max x y)

  let[@inline] fun_ op x =
    f32
      (match op with
       | Fneg -> -.x
       | Fabs -> Float.abs x
       | Ffloor -> Float.floor x
       | Fsqrt -> sqrt x
       | Frsqrt -> 1.0 /. sqrt x
       | Frcp -> 1.0 /. x
       | Fsin -> sin x
       | Fcos -> cos x
       | Fex2 -> Float.exp2 x
       | Flg2 -> Float.log2 x)

  let[@inline] ffma x y z = f32 ((x *. y) +. z)

  let[@inline] holds op c =
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

  let[@inline] icmp op u x y =
    holds op (if u then compare (wrap_u32 x) (wrap_u32 y) else compare (x : int) y)

  let[@inline] fcmp op x y = holds op (compare (x : float) y)
end

(* ------------------------------------------------------------------ *)
(* Per-kernel memo tables *)

(* Memoised per kernel (physical identity), in a short bounded
   association list: callers work on a handful of kernels at a time.
   The tables are domain-local so worker domains of the execution engine
   never contend (or race) on them; each domain warms its own copy. *)
let kernel_memo f =
  let limit = 8 in
  let key = Domain.DLS.new_key (fun () -> ref []) in
  fun kernel ->
    let cache = Domain.DLS.get key in
    match List.assq_opt kernel !cache with
    | Some r -> r
    | None ->
      let r = f kernel in
      cache :=
        (kernel, r)
        :: List.filteri (fun i _ -> i < limit - 1) !cache;
      r

(* Static instruction numbering.  [static_pc] is called from hot
   per-value hooks, and recomputing the O(instructions) walk on every
   call dominated profiles. *)
let pc_bases =
  kernel_memo (fun kernel ->
      let n = Array.length kernel.k_blocks in
      let bases = Array.make n 0 in
      let acc = ref 0 in
      for b = 0 to n - 1 do
        bases.(b) <- !acc;
        acc := !acc + Array.length kernel.k_blocks.(b).instrs
      done;
      (bases, !acc))

let static_pc kernel ~block ~idx = fst (pc_bases kernel) |> fun b -> b.(block) + idx

let count_static_instrs kernel = snd (pc_bases kernel)

let float_def_sites kernel =
  let bases, _ = pc_bases kernel in
  let out = ref [] in
  Array.iter
    (fun blk ->
       Array.iteri
         (fun i ins ->
            match defs ins with
            | Some d when d.ty = F32 ->
              out := (bases.(blk.label) + i, d) :: !out
            | _ -> ())
         blk.instrs)
    kernel.k_blocks;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Bindings *)

let bindings_for kernel ~data ?(shared = []) () =
  Array.map
    (fun buf ->
       match buf.buf_space with
       | Global | Texture ->
         (match List.assoc_opt buf.buf_name data with
          | Some (I_data _ as s) when buf.buf_elem <> F32 -> Buf_data s
          | Some (F_data _ as s) when buf.buf_elem = F32 -> Buf_data s
          | Some _ ->
            invalid_arg
              (Printf.sprintf "bindings_for: type mismatch for buffer %s"
                 buf.buf_name)
          | None ->
            invalid_arg
              (Printf.sprintf "bindings_for: missing data for buffer %s"
                 buf.buf_name))
       | Shared ->
         (match List.assoc_opt buf.buf_name shared with
          | Some n -> Buf_shared n
          | None ->
            invalid_arg
              (Printf.sprintf "bindings_for: missing shared size for %s"
                 buf.buf_name))
       | Param -> invalid_arg "bindings_for: param buffers are not supported")
    kernel.k_buffers

(* ------------------------------------------------------------------ *)
(* Decoded program

   Each static instruction is decoded once per kernel into an [op] whose
   operands are offsets into a warp's int or float register file,
   depending on the context that reads them.  Every register used in a
   file, and every distinct immediate (a constant slot, so a lane loop
   reads registers and constants alike from one flat array), gets the
   next 32-lane slot of that file: lane [l] of the slot at offset [o]
   lives at [o + l]. *)

type load_kind = Load_int | Load_float | Load_never

type op =
  | Int_bin of ibinop * bool * int * int * int  (** op, unsigned, d, a, b *)
  | Int_un of iunop * bool * int * int
  | Int_mad of bool * int * int * int * int
  | Flt_bin of fbinop * int * int * int
  | Flt_un of funop * int * int
  | Flt_fma of int * int * int * int
  | Cmp_int of cmpop * bool * int * int * int  (** op, unsigned, p, a, b *)
  | Cmp_flt of cmpop * int * int * int
  | Sel_int of int * int * int * int  (** d, a, b, p *)
  | Sel_flt of int * int * int * int
  | Sel_checked of int * string option * string option * op
      (** a [Sel_*] with an ill-typed immediate: predicate offset, the
          failure of selecting each side, the op with a dummy operand *)
  | Mov_int of int * int
  | Mov_flt of int * int
  | Cvt_to_flt of bool * int * int  (** unsigned source, d, a *)
  | Cvt_to_int of bool * int * int  (** unsigned result, d, a *)
  | Cvt_int of bool * int * int
  | Load of int * load_kind * int * int  (** buffer, kind, d, index *)
  | Store of int * int * int * int * string option * string option
      (** buffer, index, int value, float value, and the failure of
          reading the value in each context *)
  | Param of int * load_kind * int  (** parameter, kind, d *)
  | Sync
  | Fail of string  (** raises when executed *)

type site = {
  pc : int;
  op : op;
  bar : bool;
  def : vreg;  (** register written, for [on_write] *)
  unit : unit_class;
  srcs : int list;      (** shared by every trace item of the site *)
  dst : int option;
  dst_float : bool;
  fdst : int;  (** float-file offset of the register written, -1 = none *)
}

type term = T_br of int | T_cbr of int * int * int | T_ret

type program = {
  blocks : site array array;
  terms : term array;
  ipdom : int array;  (** reconvergence block, -1 = none *)
  islots : int;  (** 32-lane slots per warp, int file *)
  fslots : int;
  iconsts : (int * int) array;  (** offset, value *)
  fconsts : (int * float) array;
  specials : (int * special) array;  (** int-file offset, register *)
  clear_i : int array;  (** register offsets to clear per CTA, int file *)
  clear_f : int array;
}

(* The interpreter's operand reads, in its evaluation order, for an
   instruction that has an ill-typed immediate: decoding runs them to
   learn which [Failure] the instruction raises once it executes. *)
let read_i = function
  | Imm_f _ -> failwith "Exec: float immediate in integer context"
  | Reg _ | Imm_i _ -> 0

let read_f = function
  | Imm_i c -> failwith (Printf.sprintf "Exec: int immediate %d in float context" c)
  | Reg _ | Imm_f _ -> 0.0

let operand_failure ins =
  match
    (match ins with
     | Ibin (_, _, a, b) -> let x = read_i a and y = read_i b in ignore (x + y)
     | Iun (_, _, a) | Cvt ((F32_of_s32 | F32_of_u32 | S32_of_u32 | U32_of_s32), _, a)
     | Ld (_, { aindex = a; _ }) | St ({ aindex = a; _ }, _) -> ignore (read_i a)
     | Imad (_, a, b, c) -> ignore ((read_i a * read_i b) + read_i c)
     | Fbin (_, _, a, b) -> let x = read_f a and y = read_f b in ignore (x +. y)
     | Fun (_, _, a) | Cvt ((S32_of_f32 | U32_of_f32), _, a) -> ignore (read_f a)
     | Ffma (_, a, b, c) -> ignore ((read_f a *. read_f b) +. read_f c)
     | Setp (_, ty, _, a, b) ->
       if ty = F32 then ignore (compare (read_f a) (read_f b))
       else ignore (compare (read_i a) (read_i b))
     | Mov (d, a) -> if d.ty = F32 then ignore (read_f a) else ignore (read_i a)
     | Selp _ | Ld_param _ | Bar | Phi _ | Pi _ -> ())
  with
  | () -> None
  | exception Failure msg -> Some msg

let failure_of read op = match read op with _ -> None | exception Failure m -> Some m

let decode kernel =
  let nvr = kernel.k_num_vregs in
  let bases, _ = pc_bases kernel in
  let nslots = [| 0; 0 |] in
  let slot_of = [| Array.make nvr (-1); Array.make nvr (-1) |] in
  let new_slot file =
    nslots.(file) <- nslots.(file) + 1;
    (nslots.(file) - 1) * 32
  in
  let in_range (r : vreg) =
    if r.id < 0 || r.id >= nvr then
      invalid_arg
        (Printf.sprintf "Exec.run: %s: vreg %d out of range" kernel.k_name r.id)
  in
  let reg file (r : vreg) =
    in_range r;
    if slot_of.(file).(r.id) < 0 then slot_of.(file).(r.id) <- new_slot file;
    slot_of.(file).(r.id)
  in
  let intern file tbl key v consts =
    match Hashtbl.find_opt tbl key with
    | Some o -> o
    | None ->
      let o = new_slot file in
      Hashtbl.add tbl key o;
      consts := (o, v) :: !consts;
      o
  in
  let itbl = Hashtbl.create 16 and iconsts = ref [] in
  let ftbl = Hashtbl.create 16 and fconsts = ref [] in
  (* Which file each register is read from and written to, for the
     per-CTA clearing below. *)
  let read = [| Array.make nvr false; Array.make nvr false |] in
  let untracked = Array.make nvr false in
  let written = Array.make nvr 0 in  (* bit 0: int file, bit 1: float file, 4: neither *)
  let rd file (r : vreg) =
    let o = reg file r in
    read.(file).(r.id) <- true;
    if r.ty = Pred then untracked.(r.id) <- true;
    o
  in
  let wr file (r : vreg) =
    let o = if file < 2 then reg file r else (in_range r; 0) in
    written.(r.id) <- written.(r.id) lor (1 lsl file);
    o
  in
  (* Offsets of an operand read in int / float context; an ill-typed
     immediate gets offset 0, and its op never reads it. *)
  let oi = function
    | Reg r -> rd 0 r
    | Imm_i c -> intern 0 itbl c c iconsts
    | Imm_f _ -> 0
  in
  let of_ = function
    | Reg r -> rd 1 r
    | Imm_f c ->
      let v = Sem.f32 c in
      intern 1 ftbl (Int64.bits_of_float v) v fconsts
    | Imm_i _ -> 0
  in
  let kind (d : vreg) =
    match d.ty with S32 | U32 -> Load_int | F32 -> Load_float | Pred -> Load_never
  in
  let wr_kind (d : vreg) =
    match kind d with Load_int -> wr 0 d | Load_float -> wr 1 d | Load_never -> wr 2 d
  in
  let decode_op ins =
    match ins with
    | Phi _ | Pi _ ->
      Fail (kernel.k_name ^ ": SSA-only instruction in executable kernel")
    | St ({ abuf; _ }, _) when abuf.buf_space = Texture ->
      Fail (kernel.k_name ^ ": store to read-only texture space")
    | _ ->
      match ins, operand_failure ins with
      | (Selp _ | St _), _ | _, None ->
        (match ins with
         | Ibin (op, d, a, b) -> Int_bin (op, d.ty = U32, wr 0 d, oi a, oi b)
         | Iun (op, d, a) -> Int_un (op, d.ty = U32, wr 0 d, oi a)
         | Imad (d, a, b, c) -> Int_mad (d.ty = U32, wr 0 d, oi a, oi b, oi c)
         | Fbin (op, d, a, b) -> Flt_bin (op, wr 1 d, of_ a, of_ b)
         | Fun (op, d, a) -> Flt_un (op, wr 1 d, of_ a)
         | Ffma (d, a, b, c) -> Flt_fma (wr 1 d, of_ a, of_ b, of_ c)
         | Setp (op, ty, p, a, b) ->
           if ty = F32 then Cmp_flt (op, wr 0 p, of_ a, of_ b)
           else Cmp_int (op, ty = U32, wr 0 p, oi a, oi b)
         | Selp (d, a, b, p) ->
           let float = d.ty = F32 in
           let sel =
             if float then Sel_flt (wr 1 d, of_ a, of_ b, rd 0 p)
             else Sel_int (wr 0 d, oi a, oi b, rd 0 p)
           in
           let failure op =
             if float then failure_of read_f op else failure_of read_i op
           in
           (match failure a, failure b with
            | None, None -> sel
            | fa, fb -> Sel_checked (rd 0 p, fa, fb, sel))
         | Mov (d, a) ->
           if d.ty = F32 then Mov_flt (wr 1 d, of_ a) else Mov_int (wr 0 d, oi a)
         | Cvt (op, d, a) ->
           (match op with
            | F32_of_s32 | F32_of_u32 -> Cvt_to_flt (op = F32_of_u32, wr 1 d, oi a)
            | S32_of_f32 | U32_of_f32 -> Cvt_to_int (op = U32_of_f32, wr 0 d, of_ a)
            | S32_of_u32 | U32_of_s32 -> Cvt_int (op = U32_of_s32, wr 0 d, oi a))
         | Ld (d, { abuf; aindex }) -> Load (abuf.buf_id, kind d, wr_kind d, oi aindex)
         | St ({ abuf; aindex }, v) ->
           (match failure_of read_i aindex with
            | Some m -> Fail m
            | None ->
              (* The binding's storage type picks the file the value is
                 read from at run time.  In a file no instruction writes
                 the register in, it always reads 0: the constant 0
                 slot, so the store neither widens nor clears that
                 file.  Stores are decoded last, once [written] is
                 complete. *)
              let value file o =
                match v with
                | Reg r when written.(r.id) land (1 lsl file) = 0 ->
                  if file = 0 then intern 0 itbl 0 0 iconsts
                  else intern 1 ftbl (Int64.bits_of_float 0.0) 0.0 fconsts
                | _ -> o v
              in
              Store (abuf.buf_id, oi aindex, value 0 oi, value 1 of_,
                     failure_of read_i v, failure_of read_f v))
         | Ld_param (d, i) -> Param (i, kind d, wr_kind d)
         | Bar -> Sync
         | Phi _ | Pi _ -> assert false)
      | _, Some msg -> Fail msg
  in
  let specials =
    List.map (fun (vid, s) -> (wr 0 { id = vid; ty = S32; name = "" }, s))
      kernel.k_specials
  in
  let ops =
    Array.map
      (fun blk ->
         Array.map (function St _ -> Sync | ins -> decode_op ins) blk.instrs)
      kernel.k_blocks
  in
  let no_def = { id = -1; ty = Pred; name = "" } in
  let blocks =
    Array.mapi
      (fun b blk ->
         Array.mapi
           (fun i ins ->
              let def = defs ins in
              let dst, dst_float =
                match def with
                | Some d when d.ty <> Pred -> (Some d.id, d.ty = F32)
                | _ -> (None, false)
              in
              { pc = bases.(b) + i;
                op = (match ins with St _ -> decode_op ins | _ -> ops.(b).(i));
                bar = (match ins with Bar -> true | _ -> false);
                def = Option.value def ~default:no_def;
                unit = unit_class_of ins;
                srcs =
                  List.filter_map
                    (fun (r : vreg) -> if r.ty = Pred then None else Some r.id)
                    (uses ins);
                dst; dst_float;
                fdst =
                  (match def with
                   | Some d when d.ty = F32 -> slot_of.(1).(d.id)
                   | _ -> -1) })
           blk.instrs)
      kernel.k_blocks
  in
  let terms =
    Array.map
      (fun blk ->
         match blk.term with
         | Br l -> T_br l
         | Cbr (p, t, f) -> T_cbr (rd 0 p, t, f)
         | Ret -> T_ret)
      kernel.k_blocks
  in
  let post = Gpr_analysis.Dominance.compute_post (Gpr_isa.Cfg.of_kernel kernel) in
  let ipdom =
    Array.init (Array.length kernel.k_blocks) (fun b ->
        Option.value (Gpr_analysis.Dominance.ipdom post b) ~default:(-1))
  in
  (* A lane reads a register slot that no instruction of its own path
     wrote earlier in the CTA only if the register is live at kernel
     entry (a per-lane path is a CFG path), or if some definition writes
     the other file.  Only those slots, and predicates (which liveness
     does not track), need clearing between CTAs. *)
  let live = Gpr_analysis.Liveness.(live_in (compute kernel) 0) in
  let cleared file =
    List.filter_map
      (fun r ->
         if read.(file).(r)
         && (untracked.(r) || written.(r) <> 1 lsl file
             || Gpr_analysis.Liveness.Iset.mem r live)
         then Some slot_of.(file).(r)
         else None)
      (List.init nvr Fun.id)
    |> Array.of_list
  in
  { blocks; terms; ipdom;
    islots = nslots.(0); fslots = nslots.(1);
    iconsts = Array.of_list !iconsts; fconsts = Array.of_list !fconsts;
    specials = Array.of_list specials;
    clear_i = cleared 0; clear_f = cleared 1 }

let program = kernel_memo decode

(* ------------------------------------------------------------------ *)
(* Run state *)

type frame = {
  rpc : int;  (* reconvergence block, -1 = none *)
  mutable blk : int;
  mutable idx : int;
  mutable mask : int;
}

type warp = {
  wid : int;
  valid : int;  (* lanes that started (last warp may be partial) *)
  ibase : int;  (* this warp's slice of [st.ri] / [st.rf] *)
  fbase : int;
  mutable stack : frame list;
  mutable exited : int;
}

(* One run's state, shared by the lane loops.  The register files of
   all warps of a CTA live in [ri] and [rf]: taken once per run (see
   [take_files]), the constant slots after each warp's registers filled
   once, the slots in [prog.clear_*] cleared per CTA. *)
type state = {
  prog : program;
  kernel : kernel;
  ri : int array;
  rf : float array;
  params : pvalue array;
  storage : storage array;  (* global bindings and this CTA's shared arrays *)
  addr_base : int array;    (* byte address base per buffer *)
  race : (int array * int array * int array) option array;
  quantize : Gpr_fp.Format_.t array option;
  on_write : (int -> vreg -> pvalue -> pvalue) option;
  on_monitor : (Trace.monitor_event -> unit) option;
  check : bool;
  collect : bool;
  budget : int;
  mutable block_id : int;
  mutable thread_instrs : int;
  (* Branch terminators are not traced and do not count towards the
     reported instruction totals, but they must still drain the step
     budget: a shrink-mutated kernel can contain a loop of empty blocks
     whose only work is the back-edge, and without this charge such a
     kernel would spin forever. *)
  mutable branch_steps : int;
  mutable items : Trace.item list;
}

(* Dynamic barrier/race monitor (the runtime counterpart of the static
   [Gpr_lint] passes).  Events go to [on_monitor] when set, otherwise
   they abort the run. *)
let monitor_emit st ev =
  match st.on_monitor with
  | Some h -> h ev
  | None ->
    failwith (st.kernel.k_name ^ ": " ^ Trace.monitor_event_to_string ev)

(* Shared-race monitor state: per shared element, the last writer and
   up to two distinct readers of the current barrier interval (-1 =
   none, -2 = multiple distinct writers, already reported). *)
let race_event st buf idx kind ~thread ~other pc =
  monitor_emit st
    (Trace.Shared_race
       { block_id = st.block_id; buffer = st.kernel.k_buffers.(buf).buf_name;
         index = idx; kind; thread; other; pc })

let monitor_read st buf idx t pc =
  match st.race.(buf) with
  | None -> ()
  | Some (wr, r1, r2) ->
    if wr.(idx) >= 0 && wr.(idx) <> t then
      race_event st buf idx Trace.Read_write ~thread:t ~other:wr.(idx) pc;
    if r1.(idx) = -1 then r1.(idx) <- t
    else if r1.(idx) <> t && r2.(idx) = -1 then r2.(idx) <- t

let monitor_write st buf idx t pc =
  match st.race.(buf) with
  | None -> ()
  | Some (wr, r1, r2) ->
    if wr.(idx) >= 0 && wr.(idx) <> t then begin
      race_event st buf idx Trace.Write_write ~thread:t ~other:wr.(idx) pc;
      wr.(idx) <- -2
    end
    else if wr.(idx) = -1 then wr.(idx) <- t;
    if r1.(idx) >= 0 && r1.(idx) <> t then
      race_event st buf idx Trace.Read_write ~thread:t ~other:r1.(idx) pc
    else if r2.(idx) >= 0 && r2.(idx) <> t then
      race_event st buf idx Trace.Read_write ~thread:t ~other:r2.(idx) pc

let check_budget st =
  if st.thread_instrs + st.branch_steps > st.budget then
    failwith
      (Printf.sprintf "%s: step budget of %d thread instructions exceeded"
         st.kernel.k_name st.budget)

(* The format the float results of site [s] are stored in: 32 bits
   without a [quantize] table or past its end. *)
let[@inline] format_of st s =
  match st.quantize with
  | Some table when s.pc < Array.length table ->
    (* guard: the [when] bounds [s.pc] above; a pc is an instruction
       index, so never negative *)
    Array.unsafe_get table s.pc
  | _ -> Gpr_fp.Format_.f32

(* Register writes.  Without [on_write] a write is a bare store, so a
   float result is stored unboxed, and [exec] rounds a narrowed warp
   instruction's results afterwards, all lanes at once.  With
   [on_write] each float is rounded before the hook sees it.  Rounding
   happens in place in [rf]: no float crosses into [Format_] (the dev
   profile compiles with [-opaque], where a float passed to another
   unit is boxed).  Only the hooks see boxed values. *)
let write_i_hooked st s i v =
  match st.on_write with
  | None -> st.ri.(i) <- v
  | Some h ->
    (match h s.pc s.def (P_int v) with
     | P_int v' -> st.ri.(i) <- v'
     | P_float _ -> failwith "Exec: on_write changed an int to a float")

let[@inline] write_i st s i v =
  match st.on_write with None -> st.ri.(i) <- v | Some _ -> write_i_hooked st s i v

let write_f_hooked st s i h =
  let f = format_of st s in
  if f.Gpr_fp.Format_.total_bits < 32 then Gpr_fp.Format_.quantize_lanes f st.rf i 1;
  match h s.pc s.def (P_float st.rf.(i)) with
  | P_float v' -> st.rf.(i) <- v'
  | P_int _ -> failwith "Exec: on_write changed a float to an int"

let[@inline] write_f st s i v =
  st.rf.(i) <- v;
  match st.on_write with None -> () | Some h -> write_f_hooked st s i h

(* ------------------------------------------------------------------ *)
(* Lane loops, one per op: operand reads, arithmetic, rounding and the
   write share one function body. *)

let int_bin st s w mask op u d a b =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (o + d + lane) (Sem.ibin op u ri.(o + a + lane) ri.(o + b + lane))
  done

let int_un st s w mask op u d a =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (o + d + lane) (Sem.iun op u ri.(o + a + lane))
  done

let int_mad st s w mask u d a b c =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (o + d + lane)
        (Sem.imad u ri.(o + a + lane) ri.(o + b + lane) ri.(o + c + lane))
  done

(* One loop per operator: [Sem.fbin] applied to a constant operator
   inlines to the bare arithmetic. *)
let flt_bin st s w mask op d a b =
  let rf = st.rf and o = w.fbase in
  match op with
  | Fadd ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        write_f st s (o + d + lane) (Sem.fbin Fadd rf.(o + a + lane) rf.(o + b + lane))
    done
  | Fsub ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        write_f st s (o + d + lane) (Sem.fbin Fsub rf.(o + a + lane) rf.(o + b + lane))
    done
  | Fmul ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        write_f st s (o + d + lane) (Sem.fbin Fmul rf.(o + a + lane) rf.(o + b + lane))
    done
  | Fdiv ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        write_f st s (o + d + lane) (Sem.fbin Fdiv rf.(o + a + lane) rf.(o + b + lane))
    done
  | Fmin | Fmax ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        write_f st s (o + d + lane) (Sem.fbin op rf.(o + a + lane) rf.(o + b + lane))
    done

let flt_un st s w mask op d a =
  let rf = st.rf and o = w.fbase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_f st s (o + d + lane) (Sem.fun_ op rf.(o + a + lane))
  done

let flt_fma st s w mask d a b c =
  let rf = st.rf and o = w.fbase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_f st s (o + d + lane)
        (Sem.ffma rf.(o + a + lane) rf.(o + b + lane) rf.(o + c + lane))
  done

let cmp_int st s w mask op u p a b =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (o + p + lane)
        (Bool.to_int (Sem.icmp op u ri.(o + a + lane) ri.(o + b + lane)))
  done

let cmp_flt st s w mask op p a b =
  let rf = st.rf and o = w.fbase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (w.ibase + p + lane)
        (Bool.to_int (Sem.fcmp op rf.(o + a + lane) rf.(o + b + lane)))
  done

let sel_int st s w mask d a b p =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_i st s (o + d + lane)
        (if ri.(o + p + lane) <> 0 then ri.(o + a + lane) else ri.(o + b + lane))
  done

let sel_flt st s w mask d a b p =
  let rf = st.rf and o = w.fbase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then
      write_f st s (o + d + lane)
        (if st.ri.(w.ibase + p + lane) <> 0 then rf.(o + a + lane)
         else rf.(o + b + lane))
  done

let mov_int st s w mask d a =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then write_i st s (o + d + lane) ri.(o + a + lane)
  done

let mov_flt st s w mask d a =
  let rf = st.rf and o = w.fbase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then write_f st s (o + d + lane) rf.(o + a + lane)
  done

let cvt_to_flt st s w mask u d a =
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then begin
      let x = st.ri.(w.ibase + a + lane) in
      write_f st s (w.fbase + d + lane)
        (Sem.f32 (float_of_int (if u then Sem.wrap_u32 x else x)))
    end
  done

let cvt_to_int st s w mask u d a =
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then begin
      let x = st.rf.(w.fbase + a + lane) in
      write_i st s (w.ibase + d + lane)
        (if u then Sem.ftou x else Sem.ftoi x)
    end
  done

let cvt_int st s w mask u d a =
  let ri = st.ri and o = w.ibase in
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then begin
      let x = ri.(o + a + lane) in
      write_i st s (o + d + lane) (Sem.wrap u x)
    end
  done

let param st s w mask i kind d =
  match st.params.(i), kind with
  | P_int v, Load_int ->
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then write_i st s (w.ibase + d + lane) v
    done
  | P_float v, Load_float ->
    let v = Sem.f32 v in
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then write_f st s (w.fbase + d + lane) v
    done
  | _ -> failwith (st.kernel.k_name ^ ": param type mismatch")

let out_of_bounds st what buf idx len =
  failwith
    (Printf.sprintf "%s: %s %s[%d] out of bounds (len %d)" st.kernel.k_name what
       st.kernel.k_buffers.(buf).buf_name idx len)

let storage_length = function I_data a -> Array.length a | F_data a -> Array.length a

(* Memory ops walk lanes from the highest down (the order the first
   failing lane is reported in) and build the per-lane byte addresses,
   in lane order, only for a trace. *)
let mem_access st buf addrs =
  if st.collect then
    Some { Trace.m_space = st.kernel.k_buffers.(buf).buf_space; m_addresses = addrs }
  else None

let load st s w mask active buf kind d idx =
  let ri = st.ri and o = w.ibase in
  let storage = st.storage.(buf) in
  let len = storage_length storage in
  let base = st.addr_base.(buf) in
  let addrs = if st.collect then Array.make active 0 else [||] in
  let k = ref active in
  for lane = 31 downto 0 do
    if mask land (1 lsl lane) <> 0 then begin
      let i = ri.(o + idx + lane) in
      if i < 0 || i >= len then out_of_bounds st "ld" buf i len;
      if st.check then monitor_read st buf i ((w.wid * 32) + lane) s.pc;
      (match storage, kind with
       | I_data a, Load_int -> write_i st s (o + d + lane) a.(i)
       | F_data a, Load_float -> write_f st s (w.fbase + d + lane) a.(i)
       | _ -> failwith (st.kernel.k_name ^ ": load type mismatch"));
      if st.collect then begin
        decr k;
        addrs.(!k) <- base + (i * 4)
      end
    end
  done;
  mem_access st buf addrs

let store st s w mask active buf idx vi vf err_i err_f =
  let ri = st.ri and o = w.ibase in
  let storage = st.storage.(buf) in
  let len = storage_length storage in
  let base = st.addr_base.(buf) in
  let addrs = if st.collect then Array.make active 0 else [||] in
  let k = ref active in
  for lane = 31 downto 0 do
    if mask land (1 lsl lane) <> 0 then begin
      let i = ri.(o + idx + lane) in
      if i < 0 || i >= len then out_of_bounds st "st" buf i len;
      if st.check then monitor_write st buf i ((w.wid * 32) + lane) s.pc;
      (match storage with
       | I_data a ->
         Option.iter failwith err_i;
         a.(i) <- ri.(o + vi + lane)
       | F_data a ->
         Option.iter failwith err_f;
         a.(i) <- st.rf.(w.fbase + vf + lane));
      if st.collect then begin
        decr k;
        addrs.(!k) <- base + (i * 4)
      end
    end
  done;
  mem_access st buf addrs

(* Execute one site for the lanes of [mask] (never empty), then count
   it, trace it and check the step budget. *)
let rec exec_op st s w mask active op =
  match op with
  | Int_bin (op, u, d, a, b) -> int_bin st s w mask op u d a b; None
  | Int_un (op, u, d, a) -> int_un st s w mask op u d a; None
  | Int_mad (u, d, a, b, c) -> int_mad st s w mask u d a b c; None
  | Flt_bin (op, d, a, b) -> flt_bin st s w mask op d a b; None
  | Flt_un (op, d, a) -> flt_un st s w mask op d a; None
  | Flt_fma (d, a, b, c) -> flt_fma st s w mask d a b c; None
  | Cmp_int (op, u, p, a, b) -> cmp_int st s w mask op u p a b; None
  | Cmp_flt (op, p, a, b) -> cmp_flt st s w mask op p a b; None
  | Sel_int (d, a, b, p) -> sel_int st s w mask d a b p; None
  | Sel_flt (d, a, b, p) -> sel_flt st s w mask d a b p; None
  | Sel_checked (p, fa, fb, sel) ->
    (* Only the selected side is read: fail on the first active lane
       that selects an ill-typed immediate. *)
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        Option.iter failwith (if st.ri.(w.ibase + p + lane) <> 0 then fa else fb)
    done;
    exec_op st s w mask active sel
  | Mov_int (d, a) -> mov_int st s w mask d a; None
  | Mov_flt (d, a) -> mov_flt st s w mask d a; None
  | Cvt_to_flt (u, d, a) -> cvt_to_flt st s w mask u d a; None
  | Cvt_to_int (u, d, a) -> cvt_to_int st s w mask u d a; None
  | Cvt_int (u, d, a) -> cvt_int st s w mask u d a; None
  | Load (buf, kind, d, idx) -> load st s w mask active buf kind d idx
  | Store (buf, idx, vi, vf, err_i, err_f) ->
    store st s w mask active buf idx vi vf err_i err_f
  | Param (i, kind, d) -> param st s w mask i kind d; None
  | Sync -> None
  | Fail msg -> failwith msg

let exec st s w mask =
  let active = Gpr_util.Bits.popcount mask in
  let mem = exec_op st s w mask active s.op in
  (* A site defining a float writes every lane of [mask]. *)
  (match st.on_write with
   | None when s.fdst >= 0 ->
     let f = format_of st s in
     if f.Gpr_fp.Format_.total_bits < 32 then
       Gpr_fp.Format_.quantize_lanes f st.rf (w.fbase + s.fdst) mask
   | _ -> ());
  if st.collect then
    st.items <-
      { Trace.t_warp = w.wid; t_block_id = st.block_id; t_pc = s.pc;
        t_unit = s.unit; t_srcs = s.srcs; t_dst = s.dst;
        t_dst_float = s.dst_float; t_active = active; t_mem = mem }
      :: st.items;
  st.thread_instrs <- st.thread_instrs + active;
  check_budget st

let charge_branch st mask =
  st.branch_steps <- st.branch_steps + Gpr_util.Bits.popcount mask;
  check_budget st

(* Run one warp until a barrier ([true]) or completion ([false]). *)
let rec step_warp st w =
  match w.stack with
  | [] -> false
  | fr :: rest ->
    fr.mask <- fr.mask land lnot w.exited;
    if fr.mask = 0 || (fr.idx = 0 && fr.blk = fr.rpc) then begin
      w.stack <- rest;
      step_warp st w
    end
    else begin
      let sites = st.prog.blocks.(fr.blk) in
      if fr.idx < Array.length sites then begin
        let s = sites.(fr.idx) in
        exec st s w fr.mask;
        fr.idx <- fr.idx + 1;
        if s.bar then begin
          if st.check && fr.mask <> w.valid then
            monitor_emit st
              (Trace.Divergent_barrier
                 { block_id = st.block_id; warp = w.wid; pc = s.pc;
                   mask = fr.mask; expected = w.valid });
          true
        end
        else step_warp st w
      end
      else begin
        (match st.prog.terms.(fr.blk) with
         | T_ret ->
           w.exited <- w.exited lor fr.mask;
           w.stack <- rest
         | T_br l ->
           charge_branch st fr.mask;
           fr.blk <- l;
           fr.idx <- 0
         | T_cbr (p, t, f) ->
           charge_branch st fr.mask;
           let mt = ref 0 in
           for lane = 0 to 31 do
             if fr.mask land (1 lsl lane) <> 0 && st.ri.(w.ibase + p + lane) <> 0
             then mt := !mt lor (1 lsl lane)
           done;
           let mt = !mt in
           let mf = fr.mask land lnot mt in
           if mf = 0 then begin fr.blk <- t; fr.idx <- 0 end
           else if mt = 0 then begin fr.blk <- f; fr.idx <- 0 end
           else begin
             let r = st.prog.ipdom.(fr.blk) in
             let side rpc blk mask = { rpc; blk; idx = 0; mask } in
             if r >= 0 then begin
               fr.blk <- r;
               fr.idx <- 0;
               w.stack <- side r t mt :: side r f mf :: w.stack
             end
             else
               (* Both sides exit before meeting: no reconvergence. *)
               w.stack <- side (-1) t mt :: side (-1) f mf :: rest
           end);
        step_warp st w
      end
    end

(* ------------------------------------------------------------------ *)

let m_runs = Gpr_obs.Metrics.counter "exec.runs"
let m_thread_instrs = Gpr_obs.Metrics.counter "exec.thread_instructions"

(* The register files of one run are kept per domain for the next: a
   fresh array per run cost more (page faults and major-GC work) than
   running a small kernel.  A nested run (from a hook) takes fresh
   arrays; files above [keep_words] are left to the GC. *)
let files_key = Domain.DLS.new_key (fun () -> ref ([||], [||]))
let keep_words = 1 lsl 18

let take_files ni nf =
  let kept = Domain.DLS.get files_key in
  let ri, rf = !kept in
  kept := ([||], [||]);
  ((if Array.length ri >= ni then ri else Array.make ni 0),
   if Array.length rf >= nf then rf else Array.make nf 0.0)

let keep_files st =
  if Array.length st.ri <= keep_words && Array.length st.rf <= keep_words then
    Domain.DLS.get files_key := (st.ri, st.rf)

let race_reset race =
  Array.iter
    (Option.iter (fun (wr, r1, r2) ->
         Array.fill wr 0 (Array.length wr) (-1);
         Array.fill r1 0 (Array.length r1) (-1);
         Array.fill r2 0 (Array.length r2) (-1)))
    race

(* Start CTA [block_id]: clear shared memory, the race records and the
   register slots a lane could read before writing, and seed the special
   registers of every valid lane. *)
let start_cta st warps ~launch block_id =
  let kernel = st.kernel in
  let tpb = threads_per_block launch in
  let bx = block_id mod launch.nctaid_x in
  let by = block_id / launch.nctaid_x in
  st.block_id <- block_id;
  Array.iteri
    (fun i buf ->
       if buf.buf_space = Shared then
         match st.storage.(i) with
         | I_data a -> Array.fill a 0 (Array.length a) 0
         | F_data a -> Array.fill a 0 (Array.length a) 0.0)
    kernel.k_buffers;
  race_reset st.race;
  Array.iter
    (fun w ->
       Array.iter (fun o -> Array.fill st.ri (w.ibase + o) 32 0) st.prog.clear_i;
       Array.iter (fun o -> Array.fill st.rf (w.fbase + o) 32 0.0) st.prog.clear_f;
       w.stack <- [ { rpc = -1; blk = 0; idx = 0; mask = w.valid } ];
       w.exited <- 0;
       for lane = 0 to 31 do
         let t = (w.wid * 32) + lane in
         if t < tpb then begin
           let tx = t mod launch.ntid_x and ty = t / launch.ntid_x in
           Array.iter
             (fun (o, s) ->
                st.ri.(w.ibase + o + lane) <-
                  (match s with
                   | Tid_x -> tx
                   | Tid_y -> ty
                   | Ntid_x -> launch.ntid_x
                   | Ntid_y -> launch.ntid_y
                   | Ctaid_x -> bx
                   | Ctaid_y -> by
                   | Nctaid_x -> launch.nctaid_x
                   | Nctaid_y -> launch.nctaid_y))
             st.prog.specials
         end
       done)
    warps

(* Barrier-synchronised round-robin over the CTA's warps. *)
let run_cta st warps finished =
  let n = Array.length warps in
  Array.fill finished 0 n false;
  let remaining = ref n in
  while !remaining > 0 do
    for wid = 0 to n - 1 do
      if not finished.(wid) && not (step_warp st warps.(wid)) then begin
        finished.(wid) <- true;
        decr remaining
      end
    done;
    (* Every unfinished warp just ran up to its next barrier, so a
       scheduler pass boundary is a barrier-interval boundary: clear the
       race-monitor access records. *)
    if st.check then race_reset st.race
  done

let run ?(check = false) kernel ~launch ~params ~bindings (config : config) =
  let nbuf = Array.length kernel.k_buffers in
  if Array.length bindings <> nbuf then
    failwith "Exec.run: binding count mismatch";
  (* Distinct byte-address bases per global/texture buffer, for the
     cache model.  Shared buffers get small per-space bases. *)
  let addr_base = Array.make nbuf 0 in
  let acc = ref 0 and sacc = ref 0 in
  Array.iteri
    (fun i buf ->
       match buf.buf_space, bindings.(i) with
       | (Global | Texture), Buf_data s ->
         addr_base.(i) <- !acc;
         acc := !acc + ((storage_length s * 4 + 127) / 128 * 128) + 128
       | (Global | Texture), Buf_shared _ ->
         failwith "Exec.run: shared binding for global"
       | Shared, Buf_shared n ->
         addr_base.(i) <- !sacc;
         sacc := !sacc + (n * 4)
       | Shared, Buf_data _ -> failwith "Exec.run: global binding for shared"
       | Param, _ -> ())
    kernel.k_buffers;
  let prog = program kernel in
  (* Shared arrays and race records: one set per run, cleared per CTA. *)
  let storage =
    Array.mapi
      (fun i (buf : buffer) ->
         match bindings.(i) with
         | Buf_shared n ->
           if buf.buf_elem = F32 then F_data (Array.make n 0.0)
           else I_data (Array.make n 0)
         | Buf_data s -> s)
      kernel.k_buffers
  in
  let race =
    Array.map
      (function
        | Buf_shared n when check ->
          Some (Array.make n (-1), Array.make n (-1), Array.make n (-1))
        | Buf_shared _ | Buf_data _ -> None)
      bindings
  in
  let tpb = threads_per_block launch in
  let warps_per_block = (tpb + 31) / 32 in
  let nblocks = num_blocks launch in
  let istride = prog.islots * 32 and fstride = prog.fslots * 32 in
  let ri, rf = take_files (warps_per_block * istride) (warps_per_block * fstride) in
  let st =
    { prog; kernel; ri; rf;
      params; storage; addr_base; race;
      quantize = config.quantize; on_write = config.on_write;
      on_monitor = config.on_monitor; check; collect = config.collect_trace;
      budget = Option.value config.max_steps ~default:max_int;
      block_id = 0; thread_instrs = 0; branch_steps = 0; items = [] }
  in
  let warps =
    Array.init warps_per_block (fun wid ->
        let valid = ref 0 in
        for lane = 0 to 31 do
          if (wid * 32) + lane < tpb then valid := !valid lor (1 lsl lane)
        done;
        let ibase = wid * istride and fbase = wid * fstride in
        Array.iter (fun (o, c) -> Array.fill st.ri (ibase + o) 32 c) prog.iconsts;
        Array.iter (fun (o, c) -> Array.fill st.rf (fbase + o) 32 c) prog.fconsts;
        { wid; valid = !valid; ibase; fbase; stack = []; exited = 0 })
  in
  let finished = Array.make warps_per_block false in
  for block_id = 0 to nblocks - 1 do
    start_cta st warps ~launch block_id;
    run_cta st warps finished
  done;

  keep_files st;
  Gpr_obs.Metrics.incr m_runs;
  Gpr_obs.Metrics.add m_thread_instrs st.thread_instrs;

  if config.collect_trace then
    Some
      {
        Trace.items = Array.of_list (List.rev st.items);
        warps_per_block;
        num_blocks = nblocks;
        thread_instructions = st.thread_instrs;
      }
  else None
