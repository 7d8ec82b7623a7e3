open Types

(* The printer writes straight into a [Buffer], with no Format and no
   libc [snprintf] per number.  Its text is the content key of every
   stored result (Gpr_engine.Fingerprint): changing a byte of it
   orphans existing stores unless [Fingerprint.version] moves, and
   test_engine pins it. *)

(* Decimal digits of [n <= 0], most significant first: counting on the
   non-positive side covers [min_int]. *)
let rec add_nonpos b n =
  if n <= -10 then add_nonpos b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_nonpos b n
  end
  else add_nonpos b (-n)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

(* [x] as [Printf.sprintf "%h" x] prints it: sign, [0x1.<fraction>] or
   [0x0.<fraction>] for subnormals, trailing zero digits dropped, a
   signed binary exponent; [infinity] and [nan] by name. *)
let add_hex_float b x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  if e = 0x7ff then Buffer.add_string b (if m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if e = 0 then "0x0" else "0x1");
    if m <> 0 then begin
      Buffer.add_char b '.';
      let rec digits m shift =
        if m <> 0 then begin
          Buffer.add_char b (hex_digit (m lsr shift));
          digits (m land ((1 lsl shift) - 1)) (shift - 4)
        end
      in
      digits m 48
    end;
    let exp = if e = 0 then (if m = 0 then 0 else -1022) else e - 1023 in
    Buffer.add_string b (if exp < 0 then "p" else "p+");
    add_int b exp
  end

let ibinop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Min -> "min" | Max -> "max" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr"

let iunop_name = function Ineg -> "neg" | Inot -> "not" | Iabs -> "abs"

let fbinop_name = function
  | Fadd -> "add" | Fsub -> "sub" | Fmul -> "mul" | Fdiv -> "div"
  | Fmin -> "min" | Fmax -> "max"

let funop_name = function
  | Fneg -> "neg" | Fabs -> "abs" | Ffloor -> "floor"
  | Fsqrt -> "sqrt" | Frsqrt -> "rsqrt" | Frcp -> "rcp"
  | Fsin -> "sin" | Fcos -> "cos" | Fex2 -> "ex2" | Flg2 -> "lg2"

let cmpop_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let cvtop_name = function
  | F32_of_s32 -> "cvt.rn.f32.s32"
  | F32_of_u32 -> "cvt.rn.f32.u32"
  | S32_of_f32 -> "cvt.rzi.s32.f32"
  | U32_of_f32 -> "cvt.rzi.u32.f32"
  | S32_of_u32 -> "cvt.s32.u32"
  | U32_of_s32 -> "cvt.u32.s32"

let space_name = function
  | Global -> "global" | Shared -> "shared" | Texture -> "tex" | Param -> "param"

let special_name = function
  | Tid_x -> "tid.x" | Tid_y -> "tid.y"
  | Ntid_x -> "ntid.x" | Ntid_y -> "ntid.y"
  | Ctaid_x -> "ctaid.x" | Ctaid_y -> "ctaid.y"
  | Nctaid_x -> "nctaid.x" | Nctaid_y -> "nctaid.y"

let add_vreg b r =
  Buffer.add_char b '%';
  Buffer.add_string b r.name;
  Buffer.add_char b '_';
  add_int b r.id

let add_operand b = function
  | Reg r -> add_vreg b r
  | Imm_i i -> add_int b i
  | Imm_f f -> add_hex_float b f

let add_addr b { abuf; aindex } =
  Buffer.add_string b abuf.buf_name;
  Buffer.add_char b '[';
  add_operand b aindex;
  Buffer.add_char b ']'

let add_bound b = function
  | Pb_none -> Buffer.add_char b '_'
  | Pb_const c -> add_int b c
  | Pb_var (v, off) ->
    Buffer.add_string b "ft(%";
    add_int b v;
    Buffer.add_char b ')';
    if off > 0 then Buffer.add_char b '+';
    if off <> 0 then add_int b off

let add_instr b instr =
  let str = Buffer.add_string b in
  (* "<name>.<ty> <d>", then ", <operand>" per argument *)
  let head name ty d =
    str name;
    Buffer.add_char b '.';
    str (dtype_to_string ty);
    Buffer.add_char b ' ';
    add_vreg b d
  in
  let args ops = List.iter (fun o -> str ", "; add_operand b o) ops in
  match instr with
  | Ibin (op, d, x, y) -> head (ibinop_name op) d.ty d; args [ x; y ]
  | Iun (op, d, x) -> head (iunop_name op) d.ty d; args [ x ]
  | Imad (d, x, y, z) -> head "mad.lo" d.ty d; args [ x; y; z ]
  | Fbin (op, d, x, y) -> head (fbinop_name op) F32 d; args [ x; y ]
  | Fun (op, d, x) -> head (funop_name op) F32 d; args [ x ]
  | Ffma (d, x, y, z) -> head "fma.rn" F32 d; args [ x; y; z ]
  | Setp (op, ty, p, x, y) -> str "setp."; head (cmpop_name op) ty p; args [ x; y ]
  | Selp (d, x, y, p) -> head "selp" d.ty d; args [ x; y; Reg p ]
  | Mov (d, x) -> head "mov" d.ty d; args [ x ]
  | Cvt (op, d, x) -> str (cvtop_name op); str " "; add_vreg b d; args [ x ]
  | Ld (d, a) ->
    str "ld.";
    head (space_name a.abuf.buf_space) d.ty d;
    str ", ";
    add_addr b a
  | Ld_param (d, i) -> head "ld.param" d.ty d; str ", [param"; add_int b i; str "]"
  | St (a, v) ->
    str "st.";
    str (space_name a.abuf.buf_space);
    str " ";
    add_addr b a;
    args [ v ]
  | Bar -> str "bar.sync 0"
  | Phi (d, ins) ->
    head "phi" d.ty d;
    str ", ";
    List.iteri
      (fun i (l, o) ->
         str (if i = 0 then "[bb" else ", [bb");
         add_int b l;
         str ": ";
         add_operand b o;
         str "]")
      ins
  | Pi (d, s, f) ->
    head "pi" d.ty d;
    str ", ";
    add_vreg b s;
    str " meet [";
    add_bound b f.pf_lo;
    str ", ";
    add_bound b f.pf_hi;
    str "]"

let add_terminator b = function
  | Br l -> Buffer.add_string b "bra bb"; add_int b l
  | Cbr (p, tl, fl) ->
    Buffer.add_char b '@';
    add_vreg b p;
    Buffer.add_string b " bra bb";
    add_int b tl;
    Buffer.add_string b "; bra bb";
    add_int b fl
  | Ret -> Buffer.add_string b "ret"

let add_range b = function
  | Some (lo, hi) ->
    Buffer.add_string b " /* [";
    add_int b lo;
    Buffer.add_char b ',';
    add_int b hi;
    Buffer.add_string b "] */"
  | None -> ()

let to_string add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let instr_to_string = to_string add_instr
let terminator_to_string = to_string add_terminator

let kernel_to_string k =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b in
  str ".entry ";
  str k.k_name;
  str " (";
  Array.iteri
    (fun i p ->
       if i > 0 then str ", ";
       str ".param .";
       str (dtype_to_string p.p_ty);
       str " ";
       str p.p_name;
       add_range b p.p_range)
    k.k_params;
  str ")\n";
  Array.iter
    (fun buf ->
       str ".";
       str (space_name buf.buf_space);
       str " .";
       str (dtype_to_string buf.buf_elem);
       str " ";
       str buf.buf_name;
       add_range b buf.buf_range;
       str "\n")
    k.k_buffers;
  List.iter
    (fun (id, sp) ->
       str ".sreg ";
       add_int b id;
       str " ";
       str (special_name sp);
       str "\n")
    (List.sort compare k.k_specials);
  Array.iter
    (fun blk ->
       str "bb";
       add_int b blk.label;
       str ":\n";
       Array.iter (fun i -> str "  "; add_instr b i; str "\n") blk.instrs;
       str "  ";
       add_terminator b blk.term;
       str "\n")
    k.k_blocks;
  Buffer.contents b

let instr_count k =
  Array.fold_left (fun acc b -> acc + Array.length b.instrs) 0 k.k_blocks
