open Gpr_isa.Types
module Iset = Set.Make (Int)

type t = {
  kernel : kernel;
  cfg : Gpr_isa.Cfg.t;
  live_in : Iset.t array;
  live_out : Iset.t array;
  order : int array;  (* reverse postorder used for linearisation *)
}

let is_tracked (r : vreg) = r.ty <> Pred

let add_tracked r set = if is_tracked r then Iset.add r.id set else set
let remove_def ins set =
  match defs ins with Some d -> Iset.remove d.id set | None -> set

let add_uses ins set =
  List.fold_left (fun s r -> add_tracked r s) set (uses ins)

(* Phi uses are live-out of the corresponding predecessor, not live-in of
   the phi's own block. *)
let phi_uses_for_pred blk ~pred set =
  Array.fold_left
    (fun s ins ->
       match ins with
       | Phi (_, ins') ->
         List.fold_left
           (fun s (p, op) ->
              match op with
              | Reg r when p = pred -> add_tracked r s
              | _ -> s)
           s ins'
       | _ -> s)
    set blk.instrs

let block_transfer blk out =
  (* Backward walk; phis both define and are skipped for uses here. *)
  let live = ref (List.fold_left (fun s r -> add_tracked r s) out (term_uses blk.term)) in
  for i = Array.length blk.instrs - 1 downto 0 do
    let ins = blk.instrs.(i) in
    live := remove_def ins !live;
    (match ins with Phi _ -> () | _ -> live := add_uses ins !live)
  done;
  !live

let compute kernel =
  let cfg = Gpr_isa.Cfg.of_kernel kernel in
  let n = Array.length kernel.k_blocks in
  let live_in = Array.make n Iset.empty in
  let live_out = Array.make n Iset.empty in
  let order = Gpr_isa.Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length order - 1 downto 0 do
      let b = order.(i) in
      let blk = kernel.k_blocks.(b) in
      let out =
        List.fold_left
          (fun acc s ->
             let succ_in = live_in.(s) in
             let with_phis =
               phi_uses_for_pred kernel.k_blocks.(s) ~pred:b succ_in
             in
             Iset.union acc with_phis)
          Iset.empty (Gpr_isa.Cfg.succs cfg b)
      in
      let inn = block_transfer blk out in
      if not (Iset.equal out live_out.(b) && Iset.equal inn live_in.(b))
      then begin
        live_out.(b) <- out;
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  { kernel; cfg; live_in; live_out; order }

let live_in t b = t.live_in.(b)
let live_out t b = t.live_out.(b)

(* Walk every block backward once more, recording per-point live sets.
   [f point live] is called with the set live *just after* the point's
   instruction (a def is alive at its own point, even if dead after). *)
let iter_points t f =
  let point_base = Array.make (Array.length t.kernel.k_blocks) 0 in
  let next = ref 0 in
  Array.iter
    (fun b ->
       point_base.(b) <- !next;
       next := !next + Array.length t.kernel.k_blocks.(b).instrs + 1)
    t.order;
  Array.iter
    (fun b ->
       let blk = t.kernel.k_blocks.(b) in
       let base = point_base.(b) in
       let ninstr = Array.length blk.instrs in
       (* terminator point *)
       let live = ref (List.fold_left (fun s r -> add_tracked r s)
                         t.live_out.(b) (term_uses blk.term)) in
       f (base + ninstr) !live;
       for i = ninstr - 1 downto 0 do
         let ins = blk.instrs.(i) in
         (* live at this point: def is alive here, plus everything needed
            below *)
         let at_point =
           match defs ins with
           | Some d -> add_tracked d !live
           | None -> !live
         in
         f (base + i) at_point;
         live := remove_def ins !live;
         (match ins with Phi _ -> () | _ -> live := add_uses ins !live)
       done;
       (* Block-entry point: covers values that are live-in but consumed
          by the very first instruction (e.g. special registers). *)
       f base !live)
    t.order;
  !next

let num_points t =
  Array.fold_left
    (fun n b -> n + Array.length t.kernel.k_blocks.(b).instrs + 1)
    0 t.order

let max_live t =
  let m = ref 0 in
  let _ = iter_points t (fun _ live -> m := max !m (Iset.cardinal live)) in
  !m

(* Interval hulls in one backward walk per block, on dense per-vreg
   arrays: a variable enters the walk's live set at the terminator
   (live-out), at a use or at its own def, and leaves it at a def or at
   block entry (live-in), so only those events touch [lo]/[hi] -- no
   per-point set.  Points are numbered as in [iter_points].

   Order contract: sorted by start, and equal starts in the order the
   original per-point [Hashtbl] fold produced, which the allocator's
   name reuse (and so every placement downstream) depends on.  That
   fold order is a function of the sequence in which variables were
   first seen by [iter_points] (ascending id within one point), so
   [first] records that sequence and replays it into the same table. *)
let intervals t =
  let k = t.kernel in
  (* Vreg ids are below [k_num_vregs] ([Cfg.validate]). *)
  let n = k.k_num_vregs in
  let lo = Array.make n max_int and hi = Array.make n (-1) in
  let mark = Array.make n (-1) in          (* block whose walk has it live *)
  let first = Array.make n 0 and nfirst = ref 0 in
  (* [v] is live at point [p]: a first sighting joins [first]. *)
  let touch_hi v p =
    let h = hi.(v) in
    if h < 0 then begin
      first.(!nfirst) <- v;
      incr nfirst
    end;
    if p + 1 > h then hi.(v) <- p + 1
  in
  let touch_lo v p = if p < lo.(v) then lo.(v) <- p in
  (* Variables first seen at one point were met in ascending id order. *)
  let seg = ref 0 in
  let end_point () =
    for i = !seg + 1 to !nfirst - 1 do
      let v = first.(i) in
      let j = ref (i - 1) in
      while !j >= !seg && first.(!j) > v do
        first.(!j + 1) <- first.(!j);
        decr j
      done;
      first.(!j + 1) <- v
    done;
    seg := !nfirst
  in
  let next = ref 0 in
  Array.iter
    (fun b ->
       let blk = k.k_blocks.(b) in
       let ninstr = Array.length blk.instrs in
       let base = !next in
       next := base + ninstr + 1;
       let enter (r : vreg) p =
         if is_tracked r && mark.(r.id) <> b then begin
           touch_hi r.id p;
           mark.(r.id) <- b
         end
       in
       (* terminator point *)
       Iset.iter
         (fun v ->
            touch_hi v (base + ninstr);
            mark.(v) <- b)
         t.live_out.(b);
       List.iter (fun r -> enter r (base + ninstr)) (term_uses blk.term);
       end_point ();
       for i = ninstr - 1 downto 0 do
         let ins = blk.instrs.(i) in
         let p = base + i in
         (match defs ins with
          | Some d when is_tracked d ->
            touch_hi d.id p;
            touch_lo d.id p;
            mark.(d.id) <- -1
          | _ -> ());
         end_point ();
         (* Uses are first live at the next point down: the previous
            instruction's, or the block-entry point (also [base]). *)
         match ins with
         | Phi _ -> ()
         | _ -> List.iter (fun r -> enter r (base + max (i - 1) 0)) (uses ins)
       done;
       (* block-entry point *)
       end_point ();
       Iset.iter (fun v -> touch_lo v base) t.live_in.(b))
    t.order;
  let seen = Hashtbl.create 64 in
  for i = 0 to !nfirst - 1 do
    (* [add] of a new key is [replace] without the bucket scan. *)
    Hashtbl.add seen first.(i) ()
  done;
  Hashtbl.fold (fun v () acc -> (v, lo.(v), hi.(v)) :: acc) seen []
  |> List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2)
