open Gpr_isa.Types
module Sem = Gpr_exec.Exec.Sem

let instruction_count (k : kernel) =
  Array.fold_left (fun acc b -> acc + Array.length b.instrs) 0 k.k_blocks

let map_blocks k f =
  { k with
    k_blocks =
      Array.map
        (fun b -> { b with instrs = f b.instrs; term = b.term })
        k.k_blocks }

(* ------------------------------------------------------------------ *)
(* Definition counting: constant/copy propagation is only sound for
   registers with a single static definition (the builder's temporaries;
   mutable loop variables have several). *)

let def_counts k =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun b ->
       Array.iter
         (fun ins ->
            match defs ins with
            | Some d ->
              Hashtbl.replace counts d.id
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.id))
            | None -> ())
         b.instrs)
    k.k_blocks;
  counts

(* ------------------------------------------------------------------ *)
(* Constant folding + copy/constant propagation *)

(* Folds evaluate through the executor's own semantics; a division by
   a constant 0 is left to run time. *)
let eval_ibin op ty a b =
  match op with
  | (Div | Rem) when b = 0 -> None
  | _ -> Some (Sem.ibin op (ty = U32) a b)

let constant_fold k =
  let single = def_counts k in
  let is_single (r : vreg) = Hashtbl.find_opt single r.id = Some 1 in
  (* Known values of single-def registers: constants or copies. *)
  let known : (int, operand) Hashtbl.t = Hashtbl.create 64 in
  let subst op =
    match op with
    | Reg r ->
      (match Hashtbl.find_opt known r.id with Some v -> v | None -> op)
    | Imm_i _ | Imm_f _ -> op
  in
  let changed = ref true in
  let kernel = ref k in
  while !changed do
    changed := false;
    let fold_instr ins =
      let ins =
        match ins with
        | Ibin (op, d, a, b) -> Ibin (op, d, subst a, subst b)
        | Iun (op, d, a) -> Iun (op, d, subst a)
        | Imad (d, a, b, c) -> Imad (d, subst a, subst b, subst c)
        | Fbin (op, d, a, b) -> Fbin (op, d, subst a, subst b)
        | Fun (op, d, a) -> Fun (op, d, subst a)
        | Ffma (d, a, b, c) -> Ffma (d, subst a, subst b, subst c)
        | Setp (op, ty, p, a, b) -> Setp (op, ty, p, subst a, subst b)
        | Selp (d, a, b, p) -> Selp (d, subst a, subst b, p)
        | Mov (d, a) -> Mov (d, subst a)
        | Cvt (op, d, a) -> Cvt (op, d, subst a)
        | Ld (d, { abuf; aindex }) -> Ld (d, { abuf; aindex = subst aindex })
        | St ({ abuf; aindex }, v) ->
          St ({ abuf; aindex = subst aindex }, subst v)
        | (Ld_param _ | Bar | Phi _ | Pi _) as i -> i
      in
      (* Record newly-foldable results. *)
      (match ins with
       | Mov (d, ((Imm_i _ | Imm_f _) as v)) when is_single d ->
         if Hashtbl.find_opt known d.id <> Some v then begin
           Hashtbl.replace known d.id v;
           changed := true
         end
       | Mov (d, (Reg s as v)) when is_single d && is_single s ->
         if Hashtbl.find_opt known d.id <> Some v then begin
           Hashtbl.replace known d.id v;
           changed := true
         end
       | Ibin (op, d, Imm_i a, Imm_i b) when is_single d ->
         (match eval_ibin op d.ty a b with
          | Some v ->
            if Hashtbl.find_opt known d.id <> Some (Imm_i v) then begin
              Hashtbl.replace known d.id (Imm_i v);
              changed := true
            end
          | None -> ())
       | Iun (op, d, Imm_i a) when is_single d ->
         let v = Sem.iun op (d.ty = U32) a in
         if Hashtbl.find_opt known d.id <> Some (Imm_i v) then begin
           Hashtbl.replace known d.id (Imm_i v);
           changed := true
         end
       | Imad (d, Imm_i a, Imm_i b, Imm_i c) when is_single d ->
         let v = Sem.imad (d.ty = U32) a b c in
         if Hashtbl.find_opt known d.id <> Some (Imm_i v) then begin
           Hashtbl.replace known d.id (Imm_i v);
           changed := true
         end
       | Fbin (op, d, Imm_f a, Imm_f b) when is_single d ->
         let v = Sem.fbin op (Sem.f32 a) (Sem.f32 b) in
         if Hashtbl.find_opt known d.id <> Some (Imm_f v) then begin
           Hashtbl.replace known d.id (Imm_f v);
           changed := true
         end
       | _ -> ());
      ins
    in
    kernel := map_blocks !kernel (fun instrs -> Array.map fold_instr instrs)
  done;
  !kernel

(* ------------------------------------------------------------------ *)
(* Algebraic simplification *)

let simplify k =
  let rewrite ins =
    match ins with
    | Ibin (Add, d, a, Imm_i 0) | Ibin (Add, d, Imm_i 0, a) -> Mov (d, a)
    | Ibin (Sub, d, a, Imm_i 0) -> Mov (d, a)
    | Ibin (Mul, d, a, Imm_i 1) | Ibin (Mul, d, Imm_i 1, a) -> Mov (d, a)
    | Ibin (Mul, d, _, Imm_i 0) | Ibin (Mul, d, Imm_i 0, _) -> Mov (d, Imm_i 0)
    | Ibin (And, d, _, Imm_i 0) | Ibin (And, d, Imm_i 0, _) -> Mov (d, Imm_i 0)
    | Ibin (Or, d, a, Imm_i 0) | Ibin (Or, d, Imm_i 0, a) -> Mov (d, a)
    | Ibin (Xor, d, a, Imm_i 0) | Ibin (Xor, d, Imm_i 0, a) -> Mov (d, a)
    | Ibin ((Shl | Shr), d, a, Imm_i 0) -> Mov (d, a)
    | Imad (d, a, Imm_i 1, Imm_i 0) -> Mov (d, a)
    | Imad (d, _, Imm_i 0, c) -> Mov (d, c)
    | Fbin (Fmul, d, a, Imm_f 1.0) | Fbin (Fmul, d, Imm_f 1.0, a) -> Mov (d, a)
    | Fbin (Fadd, d, a, Imm_f 0.0) | Fbin (Fadd, d, Imm_f 0.0, a) -> Mov (d, a)
    | Ffma (d, a, Imm_f 1.0, Imm_f 0.0) -> Mov (d, a)
    | Selp (d, a, b, _) when a = b -> Mov (d, a)
    | ins -> ins
  in
  map_blocks k (fun instrs -> Array.map rewrite instrs)

(* ------------------------------------------------------------------ *)
(* Dead-code elimination *)

let dead_code_elim k =
  let kernel = ref k in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Registers used by surviving instructions and terminators. *)
    let used = Hashtbl.create 64 in
    Array.iter
      (fun b ->
         Array.iter
           (fun ins ->
              List.iter (fun (r : vreg) -> Hashtbl.replace used r.id ())
                (uses ins))
           b.instrs;
         List.iter (fun (r : vreg) -> Hashtbl.replace used r.id ())
           (term_uses b.term))
      !kernel.k_blocks;
    let live_def ins =
      match ins with
      | St _ | Bar -> true  (* side effects are roots *)
      | Ld _ -> true        (* loads may fault; keep them *)
      | _ ->
        (match defs ins with
         | Some d -> Hashtbl.mem used d.id
         | None -> true)
    in
    kernel :=
      map_blocks !kernel (fun instrs ->
          let kept = Array.of_list (List.filter live_def (Array.to_list instrs)) in
          if Array.length kept <> Array.length instrs then changed := true;
          kept)
  done;
  !kernel

let same_code a b =
  Array.length a.k_blocks = Array.length b.k_blocks
  && Array.for_all2
       (fun (x : block) (y : block) -> x.instrs = y.instrs && x.term = y.term)
       a.k_blocks b.k_blocks

let run k =
  (* Copy propagation changes instructions without shrinking the count,
     so iterate to a structural fixpoint (bounded defensively). *)
  let rec go k fuel =
    let k' = dead_code_elim (constant_fold (simplify (constant_fold k))) in
    if fuel = 0 || same_code k k' then k' else go k' (fuel - 1)
  in
  go k 8
