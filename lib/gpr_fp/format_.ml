type t = { total_bits : int; exp_bits : int; man_bits : int }

let make total_bits exp_bits =
  let man_bits = total_bits - 1 - exp_bits in
  assert (man_bits >= 1 && exp_bits >= 2);
  { total_bits; exp_bits; man_bits }

(* Table 3: total/exponent/mantissa (plus one sign bit each). *)
let f32 = make 32 8
let all = [ f32; make 28 7; make 24 6; make 20 5; make 16 5; make 12 4; make 8 3 ]

let of_total_bits n = List.find_opt (fun t -> t.total_bits = n) all

let level t =
  let rec go i = function
    | [] -> invalid_arg "Format_.level: unknown format"
    | x :: rest -> if x = t then i else go (i + 1) rest
  in
  go 0 all

let of_level i =
  match List.nth_opt all i with
  | Some t -> t
  | None -> invalid_arg "Format_.of_level: out of range"

let next_narrower t =
  let l = level t in
  if l + 1 < List.length all then Some (of_level (l + 1)) else None

let next_wider t =
  let l = level t in
  if l > 0 then Some (of_level (l - 1)) else None

let bias t = (1 lsl (t.exp_bits - 1)) - 1

(* IEEE-754 single-precision field extraction. *)
let f32_bits x = Int32.to_int (Int32.bits_of_float x) land 0xffff_ffff
let f32_of_bits b = Int32.float_of_bits (Int32.of_int b)

let sign_of b = (b lsr 31) land 1
let exp_of b = (b lsr 23) land 0xff
let man_of b = b land 0x7f_ffff

let exp_all_ones t = (1 lsl t.exp_bits) - 1

let canonical_nan t =
  (* quiet NaN: exponent all ones, top mantissa bit set *)
  (exp_all_ones t lsl t.man_bits) lor (1 lsl (t.man_bits - 1))

let inf_pattern t ~sign =
  (sign lsl (t.total_bits - 1)) lor (exp_all_ones t lsl t.man_bits)

let zero_pattern ~sign t = sign lsl (t.total_bits - 1)

let encode t x =
  let b = f32_bits x in
  let s = sign_of b and e = exp_of b and m = man_of b in
  if e = 0xff then
    if m = 0 then inf_pattern t ~sign:s else canonical_nan t
  else if e = 0 then
    (* zero or f32 denormal: flushed to signed zero *)
    zero_pattern ~sign:s t
  else begin
    let unbiased = e - 127 in
    let shift = 23 - t.man_bits in
    let keep = m lsr shift in
    let rem = m land ((1 lsl shift) - 1) in
    let half = if shift = 0 then 0 else 1 lsl (shift - 1) in
    let keep, unbiased =
      if shift > 0 && (rem > half || (rem = half && keep land 1 = 1)) then
        let k = keep + 1 in
        if k = 1 lsl t.man_bits then (0, unbiased + 1) else (k, unbiased)
      else (keep, unbiased)
    in
    let e' = unbiased + bias t in
    if e' <= 0 then zero_pattern ~sign:s t
    else if e' >= exp_all_ones t then inf_pattern t ~sign:s
    else (s lsl (t.total_bits - 1)) lor (e' lsl t.man_bits) lor keep
  end

let decode t bits =
  let s = (bits lsr (t.total_bits - 1)) land 1 in
  let e = (bits lsr t.man_bits) land exp_all_ones t in
  let m = bits land ((1 lsl t.man_bits) - 1) in
  if e = exp_all_ones t then
    if m = 0 then (if s = 1 then neg_infinity else infinity) else nan
  else if e = 0 then (if s = 1 then -0.0 else 0.0)
  else begin
    let e32 = e - bias t + 127 in
    (* By construction |e - bias| <= 2^(exp_bits-1) <= 128, so e32 is a
       valid f32 exponent for every format narrower than f32. *)
    assert (e32 > 0 && e32 < 0xff);
    let m32 = m lsl (23 - t.man_bits) in
    f32_of_bits ((s lsl 31) lor (e32 lsl 23) lor m32)
  end

(* [decode t (encode t x)] without the intermediate pattern: round the
   f32 mantissa in place (ties to even; a carry moves into the exponent
   field by itself), then flush or saturate on the narrow exponent range.
   This is [quantize]'s path for f32 denormals, inf, NaN and
   |x| >= 2^127, and the oracle its fast path is tested against. *)
let[@inline] quantize_bits t x =
  let b = f32_bits x in
  if t.total_bits = 32 then f32_of_bits b
  else begin
    let e = exp_of b and sign = b land 0x8000_0000 in
    if e = 0xff then if man_of b <> 0 then nan else f32_of_bits (sign lor 0x7f80_0000)
    else if e = 0 then f32_of_bits sign
    else begin
      let shift = 23 - t.man_bits in
      let mag = b land 0x7fff_ffff in
      let odd = (mag lsr shift) land 1 in
      let r = (mag + (1 lsl (shift - 1)) - 1 + odd) land lnot ((1 lsl shift) - 1) in
      let e' = (r lsr 23) - 127 + bias t in
      if e' <= 0 then f32_of_bits sign
      else if e' >= exp_all_ones t then f32_of_bits (sign lor 0x7f80_0000)
      else f32_of_bits (sign lor r)
    end
  end

(* The fast path rounds with double arithmetic, because the bit casts
   above are C calls (OCaml has no inline float-bits primitive) and
   [Float.copy_sign]/[ldexp] are too.  Veltkamp's split
   [p = x *. c; (x -. p) +. p] with [c = 2^(52 - m) + 1] rounds a
   double to m+1 significant bits, ties to even, as long as [x *. c]
   stays finite.  Rounding first to 24 bits and then to the format's
   width is the bit-level code's double rounding.  The constants are
   indexed by width, so [t] stays the three-int record the stored
   records marshal. *)
let[@inline] split c x =
  let p = x *. c in
  (x -. p) +. p

let split_by_man = Array.init 24 (fun m -> ldexp 1.0 (52 - m) +. 1.0)

(* Below [2^(1 - bias)] a value flushes to zero; at or above
   [2^(bias + 1)] it saturates to infinity.  Indexed by [exp_bits]. *)
let flush_by_exp =
  Array.init 9 (fun e -> if e < 2 then 0.0 else ldexp 1.0 (2 - (1 lsl (e - 1))))
let saturate_by_exp = Array.init 9 (fun e -> if e < 2 then 0.0 else ldexp 1.0 (1 lsl (e - 1)))

let[@inline] quantize t x =
  let a = Float.abs x in
  (* ±0 rounds to itself in every format; returning [x] keeps the sign *)
  if x = 0.0 then x
  else if a >= 0x1p-126 && a < 0x1p127 then begin
    (* 2^29 + 1 rounds to f32's 24 bits (a literal, not a boxed global);
       on the f32 normal range the result stays normal *)
    (* guard for the three reads below: [t] is private, so it is one of
       the Table 3 formats of [all]: [man_bits] in [4, 23] indexes the
       24 splitters and [exp_bits] in [3, 8] the 9-entry bounds *)
    let q = split (Array.unsafe_get split_by_man t.man_bits) (split 536870913.0 x) in
    let aq = Float.abs q in
    if aq < Array.unsafe_get flush_by_exp t.exp_bits then (if x < 0.0 then -0.0 else 0.0)
    else if aq >= Array.unsafe_get saturate_by_exp t.exp_bits then
      (if x < 0.0 then neg_infinity else infinity)
    else q
  end
  else quantize_bits t x

(* In place, so no float crosses the module boundary: a caller in
   another unit would box the argument and the result of [quantize]. *)
let quantize_lanes t a base mask =
  for lane = 0 to 31 do
    if mask land (1 lsl lane) <> 0 then a.(base + lane) <- quantize t a.(base + lane)
  done

let is_nan_pattern t bits =
  let e = (bits lsr t.man_bits) land exp_all_ones t in
  let m = bits land ((1 lsl t.man_bits) - 1) in
  e = exp_all_ones t && m <> 0

let is_inf_pattern t bits =
  let e = (bits lsr t.man_bits) land exp_all_ones t in
  let m = bits land ((1 lsl t.man_bits) - 1) in
  e = exp_all_ones t && m = 0

let max_finite t =
  let e = exp_all_ones t - 1 in
  let m = (1 lsl t.man_bits) - 1 in
  decode t ((e lsl t.man_bits) lor m)

let min_positive_normal t = decode t (1 lsl t.man_bits)

let relative_error_bound t = ldexp 1.0 (-(t.man_bits + 1))

let to_string t =
  Printf.sprintf "fp%d(e%dm%d)" t.total_bits t.exp_bits t.man_bits
