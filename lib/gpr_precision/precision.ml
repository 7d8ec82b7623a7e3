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

(* The executor's pc-indexed format table, kept beside the persisted
   [formats] Hashtbl. *)
let by_pc formats =
  let n = Hashtbl.fold (fun pc _ acc -> max acc (pc + 1)) formats 0 in
  let table = Array.make n F.f32 in
  Hashtbl.iter (fun pc _ -> table.(pc) <- Hashtbl.find formats pc) formats;
  table

let quantizer t = by_pc t.formats

(* Scores are memoised on the canonical assignment, the string of
   per-pc format widths (each Table 3 format has its own width), per
   [evaluate] callback: the two searches of one kernel share their
   callback, and the [High] search retraces the steps [Perfect]
   already scored.  One slot per domain, keyed by the callback's
   physical identity (an ephemeron, so it never keeps a callback
   alive). *)
type evaluate = quantize:F.t array -> Q.score

let key table = String.init (Array.length table) (fun pc -> Char.chr table.(pc).F.total_bits)

let memo_slot : (evaluate, (string, Q.score) Hashtbl.t) Ephemeron.K1.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scores_of evaluate =
  let slot = Domain.DLS.get memo_slot in
  match Option.bind !slot (fun e -> Ephemeron.K1.query e evaluate) with
  | Some scores -> scores
  | None ->
    let scores = Hashtbl.create 64 in
    slot := Some (Ephemeron.K1.make evaluate scores);
    scores

let tune ?(min_group = 1) ?(budget = max_int) ~sites ~evaluate ~threshold () =
  let formats = Hashtbl.create 16 in
  List.iter (fun (pc, _) -> Hashtbl.replace formats pc F.f32) sites;
  let table = by_pc formats in
  let set pc f =
    Hashtbl.replace formats pc f;
    table.(pc) <- f
  in
  let scores = scores_of evaluate in
  let score () =
    let k = key table in
    match Hashtbl.find_opt scores k with
    | Some s -> s
    | None ->
      let s = evaluate ~quantize:table in
      Hashtbl.replace scores k s;
      s
  in
  let evaluations = ref 0 in
  let out_of_budget () = !evaluations >= budget in
  let current_ok () =
    incr evaluations;
    Q.meets (score ()) threshold
  in
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
      else if current_ok () then true
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
