open Gpr_isa.Types
module Bits = Gpr_util.Bits

type placement = {
  reg0 : int;
  mask0 : int;
  reg1 : int;
  mask1 : int;
  slices : int;
  bits : int;
  signed : bool;
  is_float : bool;
}

let is_split p = p.reg1 >= 0

type t = {
  pressure : int;
  placements : (int, placement) Hashtbl.t;
  num_arch_regs : int;
  peak_slices : int;
  split_count : int;
}

(* Growable pool of physical registers, each a free mask over 8 slices. *)
type pool = {
  mutable free : int array;  (* 8-bit masks; 0xff = empty register *)
  mutable nregs : int;
}

let pool_create () = { free = Array.make 64 0xff; nregs = 64 }

let pool_grow p =
  let free = Array.make (p.nregs * 2) 0xff in
  Array.blit p.free 0 free 0 p.nregs;
  p.free <- free;
  p.nregs <- p.nregs * 2

(* Lowest [n] set bits of [mask]. *)
let take_slices mask n =
  let taken = ref 0 and count = ref 0 in
  let bit = ref 0 in
  while !count < n && !bit < 8 do
    if mask land (1 lsl !bit) <> 0 then begin
      taken := !taken lor (1 lsl !bit);
      incr count
    end;
    incr bit
  done;
  assert (!count = n);
  !taken

let free_count mask = Bits.popcount mask

(* Allocation preference order (Sec. 4.3: splits exist to minimise
   fragmentation): first a hole in a partially-used register, then a
   split across the holes of two partially-used registers, and only
   then a fresh register. *)

(* Partially-used register with at least [n] free slices; first-fit. *)
let find_fit_partial p n =
  let rec go i =
    if i >= p.nregs then None
    else
      let f = free_count p.free.(i) in
      if f >= n && f < 8 then Some i else go (i + 1)
  in
  go 0

(* Fresh (fully-free) register. *)
let find_fresh p =
  let rec go i =
    if i >= p.nregs then None
    else if p.free.(i) = 0xff then Some i
    else go (i + 1)
  in
  go 0

(* Two distinct partially-used registers whose combined holes reach [n]:
   pick the fullest hole as the first half to minimise leftover
   fragmentation.  Returns (r0, take0, r1, take1). *)
let find_split p n =
  let best = ref (-1) and best_free = ref 0 in
  for i = 0 to p.nregs - 1 do
    let f = free_count p.free.(i) in
    if f > 0 && f < n && f > !best_free then begin
      best := i;
      best_free := f
    end
  done;
  if !best < 0 then None
  else
    let r0 = !best and take0 = !best_free in
    let rest = n - take0 in
    let rec go i =
      if i >= p.nregs then None
      else
        let f = free_count p.free.(i) in
        if i <> r0 && f >= rest && f < 8 then Some i else go (i + 1)
    in
    (match go 0 with
     | Some r1 -> Some (r0, take0, r1, rest)
     | None -> None)

let alloc_in p r n =
  let taken = take_slices p.free.(r) n in
  p.free.(r) <- p.free.(r) land lnot taken;
  taken

let registers_in_use p =
  let c = ref 0 in
  for i = 0 to p.nregs - 1 do
    if p.free.(i) <> 0xff then incr c
  done;
  !c

let slices_in_use p =
  let c = ref 0 in
  for i = 0 to p.nregs - 1 do
    c := !c + (8 - free_count p.free.(i))
  done;
  !c

let m_runs = Gpr_obs.Metrics.counter "alloc.runs"
let m_splits = Gpr_obs.Metrics.counter "alloc.splits"

let m_pressure =
  Gpr_obs.Metrics.histogram ~buckets:[ 4; 8; 12; 16; 20; 24; 28; 32; 48; 64 ]
    "alloc.pressure"

let ty_index = function S32 -> 0 | U32 -> 1 | F32 -> 2 | Pred -> 3

let run ?(allow_split = true) ?(exclude = fun _ -> false) ?intervals kernel
    ~width_of =
  let intervals =
    match intervals with
    | Some ivs -> ivs
    | None -> Gpr_analysis.Liveness.(intervals (compute kernel))
  in
  (* Recover each variable's vreg record for typing (the last one seen;
     ids are below [k_num_vregs] by [Cfg.validate], [id = -1] marks an
     id never seen). *)
  let vregs = Array.make kernel.k_num_vregs { id = -1; ty = S32; name = "" } in
  let note (r : vreg) = vregs.(r.id) <- r in
  let known id = id >= 0 && id < Array.length vregs && vregs.(id).id >= 0 in
  let vreg id = if known id then vregs.(id) else raise Not_found in
  Array.iter
    (fun blk ->
       Array.iter
         (fun ins ->
            (match defs ins with Some d -> note d | None -> ());
            List.iter note (uses ins))
         blk.instrs)
    kernel.k_blocks;
  List.iter
    (fun (id, s) ->
       if not (known id) then
         note { id; ty = S32; name = Gpr_isa.Builder.special_name s })
    kernel.k_specials;

  (* ---- Pass 1: architectural register naming. ----
     Variables with disjoint lifetimes share an architectural name
     (classic linear-scan reuse) so the kernel fits the 256-entry
     indirection table; names are typed so integer and float values
     never share an entry (the entry's signed/convert flags are
     static).  Each name's width is the maximum over its values.
     Names are dense, so their type and width sit in arrays with at
     most one slot per interval. *)
  let var_name = Hashtbl.create 64 in       (* var -> arch name id *)
  let max_names = List.length intervals in
  let name_ty = Array.make max_names S32 in
  let name_bits = Array.make max_names 0 in
  let free_names = Array.make 4 [] in       (* by [ty_index] *)
  let next_name = ref 0 in
  (* Live names wait in a bucket per stop point, newest first.  A name
     returns to its pool once its stop is <= the current start; names
     freed together go back oldest-on-top, as a newest-first scan of
     the live set pushing each in turn leaves them. *)
  let max_stop = List.fold_left (fun m (_, _, stop) -> max m stop) 0 intervals in
  let dying = Array.make (max_stop + 1) [] in  (* (seq, name) *)
  let released = ref 0 in                       (* stops below are free *)
  let seq = ref 0 in
  let release_names now =
    if now >= !released then begin
      let dead = ref [] in
      for p = !released to min now max_stop do
        dead := List.rev_append dying.(p) !dead;
        dying.(p) <- []
      done;
      released := now + 1;
      List.sort (fun (a, _) (b, _) -> compare b a) !dead
      |> List.iter (fun (_, name) ->
          let i = ty_index name_ty.(name) in
          free_names.(i) <- name :: free_names.(i))
    end
  in
  List.iter
    (fun (var, start, stop) ->
       if not (exclude var) then begin
         release_names start;
         let r = vreg var in
         let bits = max 1 (min 32 (width_of r)) in
         let name =
           let i = ty_index r.ty in
           match free_names.(i) with
           | n :: rest ->
             free_names.(i) <- rest;
             name_bits.(n) <- max name_bits.(n) bits;
             n
           | [] ->
             let n = !next_name in
             incr next_name;
             name_ty.(n) <- r.ty;
             name_bits.(n) <- bits;
             n
         in
         Hashtbl.replace var_name var name;
         incr seq;
         dying.(stop) <- (!seq, name) :: dying.(stop)
       end)
    intervals;

  (* ---- Pass 2: static slice packing of the architectural names. ----
     Placements are static for the whole kernel (the indirection table
     is configured once per kernel, Sec. 3.2), so slices are not reused
     over time; first-fit with an optional split over two registers. *)
  let pool = pool_create () in
  let split_count = ref 0 in
  let name_placement =
    Array.init !next_name (fun name ->
        let ty = name_ty.(name) and bits = name_bits.(name) in
        let slices = Bits.slices_of_bits bits in
        let whole reg =
          let mask = alloc_in pool reg slices in
          { reg0 = reg; mask0 = mask; reg1 = -1; mask1 = 0; slices; bits;
            signed = (ty = S32); is_float = (ty = F32) }
        in
        let rec place () =
          match find_fit_partial pool slices with
          | Some reg -> whole reg
          | None ->
            (match (if allow_split then find_split pool slices else None) with
             | Some (r0, n0, r1, n1) ->
               let m0 = alloc_in pool r0 n0 in
               let m1 = alloc_in pool r1 n1 in
               incr split_count;
               { reg0 = r0; mask0 = m0; reg1 = r1; mask1 = m1; slices; bits;
                 signed = (ty = S32); is_float = (ty = F32) }
             | None ->
               (match find_fresh pool with
                | Some reg -> whole reg
                | None ->
                  pool_grow pool;
                  place ()))
        in
        place ())
  in

  (* Per-variable view: a variable's placement is its name's. *)
  let placements = Hashtbl.create 64 in
  Hashtbl.iter
    (fun var name ->
       let r = vreg var in
       (* Keep the variable's own signedness for the read path. *)
       Hashtbl.replace placements var
         { (name_placement.(name)) with signed = (r.ty = S32) })
    var_name;

  let t =
    {
      pressure = registers_in_use pool;
      placements;
      num_arch_regs = !next_name;
      peak_slices = slices_in_use pool;
      split_count = !split_count;
    }
  in
  Gpr_obs.Metrics.incr m_runs;
  Gpr_obs.Metrics.add m_splits t.split_count;
  Gpr_obs.Metrics.observe m_pressure t.pressure;
  t

let baseline ?intervals kernel = run ?intervals kernel ~width_of:(fun _ -> 32)

let fits_arch_table t =
  t.num_arch_regs <= Gpr_arch.Config.architectural_registers

let lookup t var = Hashtbl.find_opt t.placements var
