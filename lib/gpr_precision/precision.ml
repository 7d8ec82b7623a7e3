open Gpr_isa.Types
module F = Gpr_fp.Format_
module Q = Gpr_quality.Quality

type assignment = {
  formats : (int, F.t) Hashtbl.t;
  sites : (int * vreg) list;
  evaluations : int;
}

let no_reduction ~sites =
  let formats = Hashtbl.create 16 in
  List.iter (fun (pc, _) -> Hashtbl.replace formats pc F.f32) sites;
  { formats; sites; evaluations = 0 }

(* The quantisation hook reads a pc-indexed format table, kept beside
   the persisted [formats] Hashtbl: the executor calls it on every float
   register write. *)
let by_pc formats =
  let n = Hashtbl.fold (fun pc _ acc -> max acc (pc + 1)) formats 0 in
  let table = Array.make n F.f32 in
  Hashtbl.iter (fun pc _ -> table.(pc) <- Hashtbl.find formats pc) formats;
  table

let hook table pc v =
  if pc < 0 || pc >= Array.length table then v
  else
    let f = Array.unsafe_get table pc in
    if f.F.total_bits < 32 then F.quantize f v else v

let quantizer t = hook (by_pc t.formats)

let tune ?(min_group = 1) ?(budget = max_int) ~sites ~evaluate ~threshold () =
  let formats = Hashtbl.create 16 in
  List.iter (fun (pc, _) -> Hashtbl.replace formats pc F.f32) sites;
  let table = by_pc formats in
  let set pc f =
    Hashtbl.replace formats pc f;
    table.(pc) <- f
  in
  let evaluations = ref 0 in
  let out_of_budget () = !evaluations >= budget in
  let current_ok quantize =
    incr evaluations;
    Q.meets (evaluate ~quantize) threshold
  in
  let hook = hook table in
  (* Tentatively narrow every site of [group] one step; keep on success. *)
  let try_step group =
    if out_of_budget () then false
    else begin
      let moved =
        List.filter_map
          (fun (pc, _) ->
             let cur = Hashtbl.find formats pc in
             match F.next_narrower cur with
             | Some nxt ->
               set pc nxt;
               Some (pc, cur)
             | None -> None)
          group
      in
      if moved = [] then false
      else if current_ok hook then true
      else begin
        List.iter (fun (pc, old) -> set pc old) moved;
        false
      end
    end
  in
  let rec refine group =
    match group with
    | [] -> ()
    | _ ->
      while try_step group do
        ()
      done;
      let n = List.length group in
      if n > max 1 min_group && not (out_of_budget ()) then begin
        let left = List.filteri (fun i _ -> i < n / 2) group in
        let right = List.filteri (fun i _ -> i >= n / 2) group in
        refine left;
        refine right
      end
  in
  refine sites;
  { formats; sites; evaluations = !evaluations }

let var_bits t =
  let out = Hashtbl.create 16 in
  List.iter
    (fun (pc, (r : vreg)) ->
       let f = try Hashtbl.find t.formats pc with Not_found -> F.f32 in
       let bits = f.F.total_bits in
       match Hashtbl.find_opt out r.id with
       | Some prev -> if bits > prev then Hashtbl.replace out r.id bits
       | None -> Hashtbl.replace out r.id bits)
    t.sites;
  out

let mean_bits t =
  match t.sites with
  | [] -> 32.0
  | sites ->
    let sum =
      List.fold_left
        (fun acc (pc, _) ->
           let f = try Hashtbl.find t.formats pc with Not_found -> F.f32 in
           acc + f.F.total_bits)
        0 sites
    in
    float_of_int sum /. float_of_int (List.length sites)
