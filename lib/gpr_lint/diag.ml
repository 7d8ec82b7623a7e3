(** Diagnostics produced by the static kernel verifier ({!Lint}). *)

open Gpr_isa.Types
module Pp = Gpr_isa.Pp

type severity = Error | Warning | Info

type loc = { l_block : int; l_instr : int option }

let kernel_loc = { l_block = -1; l_instr = None }
let block_loc b = { l_block = b; l_instr = None }
let instr_loc b i = { l_block = b; l_instr = Some i }

type t = {
  d_code : string;
  d_severity : severity;
  d_pass : string;
  d_loc : loc;
  d_message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let la = a.d_loc and lb = b.d_loc in
  let c = Stdlib.compare la.l_block lb.l_block in
  if c <> 0 then c
  else
    (* instruction before terminator within a block *)
    let key l = match l.l_instr with Some i -> i | None -> max_int in
    let c = Stdlib.compare (key la) (key lb) in
    if c <> 0 then c else Stdlib.compare a.d_code b.d_code

let count sev ds = List.length (List.filter (fun d -> d.d_severity = sev) ds)

let max_severity = function
  | [] -> None
  | ds ->
    Some
      (List.fold_left
         (fun acc d ->
           if severity_rank d.d_severity < severity_rank acc then d.d_severity
           else acc)
         Info ds)

let quote kernel loc =
  if loc.l_block < 0 || loc.l_block >= Array.length kernel.k_blocks then None
  else
    let b = kernel.k_blocks.(loc.l_block) in
    match loc.l_instr with
    | None -> Some (Pp.terminator_to_string b.term)
    | Some i ->
      if i < 0 || i >= Array.length b.instrs then None
      else Some (Pp.instr_to_string b.instrs.(i))

let loc_to_string loc =
  if loc.l_block < 0 then "kernel"
  else
    match loc.l_instr with
    | None -> Printf.sprintf "B%d.term" loc.l_block
    | Some i -> Printf.sprintf "B%d.%d" loc.l_block i

let to_string kernel d =
  Printf.sprintf "%s:%s: %s %s: %s" kernel.k_name (loc_to_string d.d_loc)
    (severity_to_string d.d_severity)
    d.d_code d.d_message

let to_string_quoted kernel d =
  let base = to_string kernel d in
  match quote kernel d.d_loc with
  | None -> base
  | Some q -> base ^ "\n    | " ^ q

let to_json ~kernel_name d =
  let module J = Gpr_obs.Json in
  J.Obj
    [
      ("kernel", J.Str kernel_name);
      ("code", J.Str d.d_code);
      ("severity", J.Str (severity_to_string d.d_severity));
      ("pass", J.Str d.d_pass);
      ("block", J.Int d.d_loc.l_block);
      ("instr", match d.d_loc.l_instr with Some i -> J.Int i | None -> J.Null);
      ("message", J.Str d.d_message);
    ]

let list_to_json targets =
  Gpr_obs.Json.Arr
    (List.concat_map
       (fun (kernel_name, ds) ->
         List.map (to_json ~kernel_name) (List.sort compare ds))
       targets)
