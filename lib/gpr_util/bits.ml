let bits_for_unsigned x =
  assert (x >= 0);
  let rec go n acc = if acc >= x then n else go (n + 1) (acc * 2 + 1) in
  go 1 1

let bits_for_signed x =
  if x = 0 then 1
  else if x > 0 then 1 + bits_for_unsigned x
  else
    let rec go n lo = if lo <= x then n else go (n + 1) (lo * 2) in
    go 1 (-1)

let bits_for_signed_range lo hi =
  assert (lo <= hi);
  max (bits_for_signed lo) (bits_for_signed hi)

let bits_for_unsigned_range lo hi =
  assert (0 <= lo && lo <= hi);
  bits_for_unsigned hi

let mask n =
  assert (n >= 0 && n <= 62);
  (1 lsl n) - 1

(* SWAR on 32-bit values (a warp's active mask, once per instruction);
   a bit loop for anything else. *)
let popcount x =
  if x land 0xffff_ffff = x then begin
    let x = x - ((x lsr 1) land 0x5555_5555) in
    let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
    ((x * 0x0101_0101) lsr 24) land 0xff
  end
  else
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0

let sign_extend ~width x =
  assert (width >= 1 && width <= 62);
  let x = x land mask width in
  if x land (1 lsl (width - 1)) <> 0 then x - (1 lsl width) else x

let zero_extend ~width x = x land mask width

let fits_signed ~width x =
  let half = 1 lsl (width - 1) in
  x >= -half && x < half

let fits_unsigned ~width x = x >= 0 && x <= mask width

let slices_of_bits bits =
  let s = (bits + 3) / 4 in
  max 1 (min 8 s)

let round_up x ~multiple =
  assert (multiple > 0);
  (x + multiple - 1) / multiple * multiple
