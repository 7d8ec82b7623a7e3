(** Static kernel verifier — pass implementations.  See the interface
    for the pass/diagnostic-code catalogue. *)

open Gpr_isa.Types
module I = Gpr_util.Interval
module Bits = Gpr_util.Bits
module Cfg = Gpr_isa.Cfg
module Dominance = Gpr_analysis.Dominance
module Range = Gpr_analysis.Range
module Width = Gpr_analysis.Width
module KB = Gpr_analysis.Knownbits
module Liveness = Gpr_analysis.Liveness
module Alloc = Gpr_alloc.Alloc
module U = Uniformity

type ctx = {
  kernel : kernel;
  launch : launch;
  cfg : Cfg.t;
  rpo : int array;
  pdom : Dominance.post;
  width : Width.t;
  range : Range.t;
  uni : U.t;
  live : Liveness.t;
  intervals : (int * int * int) list;  (* [Liveness.intervals live] *)
  alloc : Alloc.t;
  buffer_len : string -> int option;
}

let kernel_of ctx = ctx.kernel
let uniformity ctx = ctx.uni
let range_of ctx = ctx.range
let width_of ctx = ctx.width

let default_width width (r : vreg) =
  match r.ty with
  | Pred | F32 -> 32
  | S32 | U32 -> Width.var_bitwidth width r.id

let make_ctx ?(buffer_len = fun _ -> None) ?width_of ?alloc kernel ~launch =
  let cfg = Cfg.of_kernel kernel in
  let width = Width.analyze kernel ~launch in
  let width_of =
    match width_of with Some f -> f | None -> default_width width
  in
  let live = Liveness.compute kernel in
  let intervals = Liveness.intervals live in
  let alloc =
    match alloc with
    | Some a -> a
    | None -> Alloc.run ~intervals kernel ~width_of
  in
  {
    kernel;
    launch;
    cfg;
    rpo = Cfg.reverse_postorder cfg;
    pdom = Dominance.compute_post cfg;
    width;
    range = width.Width.range;
    uni = U.analyze kernel ~launch;
    live;
    intervals;
    alloc;
    buffer_len;
  }

let diag pass code severity loc fmt =
  Printf.ksprintf
    (fun d_message ->
      { Diag.d_code = code; d_severity = severity; d_pass = pass; d_loc = loc; d_message })
    fmt

let vname (r : vreg) = if r.name = "" then Printf.sprintf "%%r%d" r.id else "%" ^ r.name

(* ------------------------------------------------------------------ *)
(* Pass 1: divergence — report every thread-divergent branch.          *)

let divergence_pass ctx =
  let k = ctx.kernel in
  Array.to_list ctx.rpo
  |> List.filter_map (fun bi ->
         match k.k_blocks.(bi).term with
         | Cbr (p, t, f) when U.is_divergent (U.value ctx.uni p.id) ->
           Some
             (diag "divergence" "GL100" Diag.Info (Diag.block_loc bi)
                "conditional branch on thread-divergent predicate %s: blocks \
                 B%d..B%d execute per-lane until reconvergence"
                (vname p) (min t f) (max t f))
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* Pass 2: barrier safety.                                             *)

let barrier_pass ctx =
  let k = ctx.kernel in
  let has_bar =
    Array.exists
      (fun bi -> Array.exists (( = ) Bar) k.k_blocks.(bi).instrs)
      ctx.rpo
  in
  let bar_diags =
    Array.to_list ctx.rpo
    |> List.concat_map (fun bi ->
           if not (U.block_divergent ctx.uni bi) then []
           else
             Array.to_list k.k_blocks.(bi).instrs
             |> List.mapi (fun i ins -> (i, ins))
             |> List.filter_map (fun (i, ins) ->
                    match ins with
                    | Bar ->
                      Some
                        (diag "barrier" "GL101" Diag.Error (Diag.instr_loc bi i)
                           "bar.sync executes under thread-divergent control \
                            flow: threads on the other path of the divergent \
                            branch never arrive, deadlocking the CTA")
                    | _ -> None))
  in
  let ret_diags =
    if not (has_bar && U.divergent_exit ctx.uni) then []
    else
      Array.to_list ctx.rpo
      |> List.filter_map (fun bi ->
             if U.block_divergent ctx.uni bi && k.k_blocks.(bi).term = Ret then
               Some
                 (diag "barrier" "GL102" Diag.Error (Diag.block_loc bi)
                    "thread-divergent ret in a kernel that synchronises: \
                     threads exiting here never reach a later bar.sync")
             else None)
  in
  bar_diags @ ret_diags

(* ------------------------------------------------------------------ *)
(* Pass 3: shared-memory races.                                        *)

(* Barrier phase of a program point: the number of [Bar] instructions
   executed before it, when that count is the same on every path. *)
type phase = Pconc of int | Pmany

let phase_join a b =
  match (a, b) with
  | Some (Pconc x), Some (Pconc y) -> Some (if x = y then Pconc x else Pmany)
  | Some Pmany, _ | _, Some Pmany -> Some Pmany
  | None, x | x, None -> x

let phase_add p n = match p with Pconc x -> Pconc (x + n) | Pmany -> Pmany
let may_same_phase a b =
  match (a, b) with Pconc x, Pconc y -> x = y | _ -> true

type access = {
  ac_block : int;
  ac_idx : int;
  ac_buf : string;
  ac_write : bool;
  ac_av : U.av;
  ac_value_const : bool;  (** store of one statically-known constant *)
  ac_phase : phase;
  ac_always : bool;  (** executed by every thread on every run *)
}

let singleton = function
  | I.Range (I.Finite a, I.Finite b) when a = b -> Some a
  | _ -> None

(* Is there a nonzero multiple [m] of [|s|] with [|m| <= kmax * |s|]
   inside the interval [d]?  Decides whether two same-stride affine
   accesses can collide across two distinct threads of the CTA. *)
let exists_multiple s kmax d =
  let s = abs s in
  if s = 0 || kmax <= 0 then false
  else
    match d with
    | I.Bot -> false
    | I.Range (lo, hi) ->
      let cap = kmax * s in
      let f_lo = match lo with I.Neg_inf -> -cap | I.Finite x -> x | I.Pos_inf -> cap + 1 in
      let f_hi = match hi with I.Pos_inf -> cap | I.Finite x -> x | I.Neg_inf -> -cap - 1 in
      let hit_pos lo hi =
        let lo = max lo s and hi = min hi cap in
        lo <= hi && hi / s * s >= lo
      in
      hit_pos f_lo f_hi || hit_pos (-f_hi) (-f_lo)

type verdict = V_none | V_possible | V_definite

(* Can accesses [a1] and [a2] (same buffer, possibly the same static
   instruction) touch the same element from two distinct threads?
   [alias_y]: a 2-D thread block, where distinct threads share tid.x. *)
let collide ~t_count ~alias_y a1 a2 =
  if t_count <= 1 then V_none
  else
    match (a1.ac_av, a2.ac_av) with
    | U.Affine (s1, b1), U.Affine (s2, b2)
      when (not (I.is_bot b1)) && not (I.is_bot b2) ->
      let d = I.sub b2 b1 in
      let definite = singleton b1 <> None && singleton b2 <> None in
      if s1 = s2 then
        if s1 = 0 || alias_y then
          if I.contains d 0 then if definite then V_definite else V_possible
          else if s1 <> 0 && exists_multiple s1 (t_count - 1) d then
            if definite then V_definite else V_possible
          else V_none
        else if exists_multiple s1 (t_count - 1) d then
          if definite then V_definite else V_possible
        else V_none
      else
        (* different strides: fall back to address-hull disjointness *)
        let hull s b =
          I.add (I.mul (I.of_const s) (I.of_ints 0 (t_count - 1))) b
        in
        if I.is_bot (I.meet (hull s1 b1) (hull s2 b2)) then V_none
        else V_possible
    | _ -> V_possible

let shared_race_pass ctx =
  let k = ctx.kernel in
  let nb = Array.length k.k_blocks in
  let t_count = threads_per_block ctx.launch in
  let alias_y = ctx.launch.ntid_y > 1 in
  (* blocks executed by every thread on every (terminating) run: they
     post-dominate the entry and are not control-divergent *)
  let always = Array.make nb false in
  let rec chain b =
    if b >= 0 && b < nb then begin
      always.(b) <- not (U.block_divergent ctx.uni b);
      match Dominance.ipdom ctx.pdom b with Some n -> chain n | None -> ()
    end
  in
  chain 0;
  (* barrier-phase dataflow *)
  let bars_in = Array.make nb 0 in
  Array.iter
    (fun bi ->
      bars_in.(bi) <-
        Array.fold_left
          (fun n ins -> if ins = Bar then n + 1 else n)
          0 k.k_blocks.(bi).instrs)
    ctx.rpo;
  let phase_in = Array.make nb None in
  phase_in.(0) <- Some (Pconc 0);
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun bi ->
        let from_preds =
          List.fold_left
            (fun acc p ->
              phase_join acc
                (Option.map (fun ph -> phase_add ph bars_in.(p)) phase_in.(p)))
            None (Cfg.preds ctx.cfg bi)
        in
        let merged = if bi = 0 then phase_join (Some (Pconc 0)) from_preds else from_preds in
        if merged <> phase_in.(bi) then begin
          phase_in.(bi) <- merged;
          changed := true
        end)
      ctx.rpo
  done;
  (* collect shared accesses *)
  let accesses = ref [] in
  Array.iter
    (fun bi ->
      let entry_phase =
        match phase_in.(bi) with Some p -> p | None -> Pmany
      in
      let bars_seen = ref 0 in
      Array.iteri
        (fun i ins ->
          let record ~write buf aindex value_const =
            if buf.buf_space = Shared then
              accesses :=
                {
                  ac_block = bi;
                  ac_idx = i;
                  ac_buf = buf.buf_name;
                  ac_write = write;
                  ac_av = U.operand_value ctx.uni aindex;
                  ac_value_const = value_const;
                  ac_phase = phase_add entry_phase !bars_seen;
                  ac_always = always.(bi);
                }
                :: !accesses
          in
          match ins with
          | Bar -> incr bars_seen
          | Ld (_, { abuf; aindex }) -> record ~write:false abuf aindex false
          | St ({ abuf; aindex }, v) ->
            let const =
              match U.operand_value ctx.uni v with
              | U.Affine (0, b) -> singleton b <> None
              | _ -> false
            in
            record ~write:true abuf aindex const
          | _ -> ())
        k.k_blocks.(bi).instrs)
    ctx.rpo;
  let acc = Array.of_list (List.rev !accesses) in
  let n = Array.length acc in
  let possible = Array.make n 0 in
  let diags = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a1 = acc.(i) and a2 = acc.(j) in
      if
        a1.ac_buf = a2.ac_buf
        && (a1.ac_write || a2.ac_write)
        && may_same_phase a1.ac_phase a2.ac_phase
      then begin
        let v = collide ~t_count ~alias_y a1 a2 in
        let v =
          (* a proven collision in conditionally-executed code may
             never happen at runtime: downgrade to possible *)
          if v = V_definite && not (a1.ac_always && a2.ac_always) then
            V_possible
          else v
        in
        match v with
        | V_none -> ()
        | V_definite ->
          let loc = Diag.instr_loc a1.ac_block a1.ac_idx in
          let other = Printf.sprintf "B%d.%d" a2.ac_block a2.ac_idx in
          if a1.ac_write && a2.ac_write then
            if i = j && U.is_uniform a1.ac_av && a1.ac_value_const then
              diags :=
                diag "shared-race" "GL204" Diag.Info loc
                  "benign broadcast: every thread stores the same constant \
                   to the same element of %s"
                  a1.ac_buf
                :: !diags
            else
              diags :=
                diag "shared-race" "GL201" Diag.Error loc
                  "write-write race on %s: two threads of a CTA provably \
                   store to the same element in the same barrier interval \
                   (conflicts with %s)"
                  a1.ac_buf other
                :: !diags
          else
            diags :=
              diag "shared-race" "GL202" Diag.Error loc
                "read-write race on %s: a thread provably reads an element \
                 another thread writes in the same barrier interval \
                 (conflicts with %s)"
                a1.ac_buf other
              :: !diags
        | V_possible ->
          possible.(i) <- possible.(i) + 1;
          if j <> i then possible.(j) <- possible.(j) + 1
      end
    done
  done;
  let warn =
    Array.to_list
      (Array.mapi
         (fun i a ->
           if possible.(i) = 0 then []
           else
             [
               diag "shared-race" "GL203" Diag.Warning
                 (Diag.instr_loc a.ac_block a.ac_idx)
                 "possible race on %s: this %s may touch an element another \
                  thread accesses in the same barrier interval (%d \
                  unresolved conflict%s)"
                 a.ac_buf
                 (if a.ac_write then "store" else "load")
                 possible.(i)
                 (if possible.(i) = 1 then "" else "s");
             ])
         acc)
    |> List.concat
  in
  !diags @ warn

(* ------------------------------------------------------------------ *)
(* Pass 4: compression soundness.                                      *)

(* First definition site of each vreg, for anchoring diagnostics. *)
let def_sites ctx =
  let sites = Hashtbl.create 64 in
  Array.iter
    (fun bi ->
      Array.iteri
        (fun i ins ->
          match defs ins with
          | Some d when not (Hashtbl.mem sites d.id) ->
            Hashtbl.add sites d.id (d, Diag.instr_loc bi i)
          | _ -> ())
        ctx.kernel.k_blocks.(bi).instrs)
    ctx.rpo;
  sites

let required_bits ctx (r : vreg) =
  (* The width authority: the reduced product of intervals, known
     bits, congruence and demanded bits.  Using intervals alone here
     would flag the narrower (but sound) product placements as
     corruption. *)
  if r.id < Array.length ctx.width.Width.var_bits then
    Width.var_bitwidth ctx.width r.id
  else 32

let placements_overlap (a : Alloc.placement) (b : Alloc.placement) =
  let share r1 m1 r2 m2 = r1 = r2 && m1 land m2 <> 0 in
  share a.reg0 a.mask0 b.reg0 b.mask0
  || (b.reg1 >= 0 && share a.reg0 a.mask0 b.reg1 b.mask1)
  || a.reg1 >= 0
     && (share a.reg1 a.mask1 b.reg0 b.mask0
        || (b.reg1 >= 0 && share a.reg1 a.mask1 b.reg1 b.mask1))

let compression_pass ctx =
  let sites = def_sites ctx in
  let loc_of id =
    match Hashtbl.find_opt sites id with
    | Some (_, loc) -> loc
    | None -> Diag.kernel_loc
  in
  let name_of id =
    match Hashtbl.find_opt sites id with
    | Some (r, _) -> vname r
    | None -> Printf.sprintf "%%r%d" id
  in
  let diags = ref [] in
  let audited = ref [] in
  Hashtbl.iter
    (fun id (r, loc) ->
      match Alloc.lookup ctx.alloc id with
      | None -> ()
      | Some p ->
        audited := (id, p) :: !audited;
        let sl = Bits.popcount p.mask0 + Bits.popcount p.mask1 in
        if sl <> p.slices || Bits.slices_of_bits p.bits <> p.slices then
          diags :=
            diag "compression" "GL302" Diag.Error loc
              "malformed placement for %s: %d-bit operand, %d slice(s) \
               declared, masks %#x/%#x cover %d"
              (vname r) p.bits p.slices p.mask0 p.mask1 sl
            :: !diags;
        (match r.ty with
        | S32 | U32 ->
          let req = required_bits ctx r in
          if p.bits < req then
            diags :=
              diag "compression" "GL301" Diag.Error loc
                "slice mask for %s stores %d bit(s) but the width analysis \
                 (range %s) needs %d: compressed storage would corrupt the \
                 value"
                (vname r)
                p.bits
                (I.to_string (Range.var_range ctx.range r.id))
                req
              :: !diags
        | F32 | Pred -> ()))
    sites;
  (* Slice sharing is only sound between placements whose live intervals
     are disjoint — check every simultaneously-live pair.  The intervals
     are sorted by start and non-empty, so the pairs live with [i] are
     exactly the [j > i] that start before [i] stops. *)
  let ivals =
    List.filter_map
      (fun (v, s, e) ->
        match Alloc.lookup ctx.alloc v with
        | Some p -> Some (v, s, e, p)
        | None -> None)
      ctx.intervals
    |> Array.of_list
  in
  let ni = Array.length ivals in
  for i = 0 to ni - 1 do
    let v1, _, e1, p1 = ivals.(i) in
    let rec sweep j =
      if j < ni then begin
        let v2, s2, _, p2 = ivals.(j) in
        if s2 < e1 then begin
          if placements_overlap p1 p2 then
            diags :=
              diag "compression" "GL303" Diag.Error (loc_of v1)
                "placements of %s and %s share register slices while both \
                 are live"
                (name_of v1) (name_of v2)
              :: !diags;
          sweep (j + 1)
        end
      end
    in
    sweep (i + 1)
  done;
  !diags

(* ------------------------------------------------------------------ *)
(* Pass 5: out-of-bounds accesses.                                     *)

let bounds_pass ctx =
  let k = ctx.kernel in
  let index_interval = function
    | Imm_i c -> Some (I.of_const c)
    | Imm_f _ -> None
    | Reg r -> (
      match Range.var_range ctx.range r.id with I.Bot -> None | iv -> Some iv)
  in
  let check bi i (a : addr) what =
    match index_interval a.aindex with
    | None -> []
    | Some iv ->
      let loc = Diag.instr_loc bi i in
      let len = ctx.buffer_len a.abuf.buf_name in
      let definite_neg =
        match I.hi iv with I.Finite h -> h < 0 | _ -> false
      in
      let definite_high =
        match (len, I.lo iv) with
        | Some n, I.Finite l -> l >= n
        | _ -> false
      in
      if definite_neg || definite_high then
        [
          diag "bounds" "GL401" Diag.Error loc
            "%s of %s[%s] is always out of bounds%s" what a.abuf.buf_name
            (I.to_string iv)
            (match len with
            | Some n -> Printf.sprintf " (length %d)" n
            | None -> "");
        ]
      else
        let may_neg =
          match I.lo iv with I.Finite l -> l < 0 | I.Neg_inf -> true | _ -> false
        in
        let may_high =
          match (len, I.hi iv) with
          | Some n, I.Finite h -> h >= n
          | Some _, I.Pos_inf -> true
          | _ -> false
        in
        if may_neg || may_high then
          [
            diag "bounds" "GL402" Diag.Warning loc
              "%s of %s[%s] may be out of bounds%s" what a.abuf.buf_name
              (I.to_string iv)
              (match len with
              | Some n -> Printf.sprintf " (length %d)" n
              | None -> "");
          ]
        else []
  in
  Array.to_list ctx.rpo
  |> List.concat_map (fun bi ->
         Array.to_list k.k_blocks.(bi).instrs
         |> List.mapi (fun i ins -> (i, ins))
         |> List.concat_map (fun (i, ins) ->
                match ins with
                | Ld (_, a) -> check bi i a "load"
                | St (a, _) -> check bi i a "store"
                | _ -> []))

(* ------------------------------------------------------------------ *)
(* Pass 6: definite assignment and dead stores.                        *)

let defs_pass ctx =
  let k = ctx.kernel in
  let module S = Liveness.Iset in
  let nb = Array.length k.k_blocks in
  let entry_defs =
    List.fold_left (fun s (vid, _) -> S.add vid s) S.empty k.k_specials
  in
  let block_defs bi =
    Array.fold_left
      (fun s ins -> match defs ins with Some d -> S.add d.id s | None -> s)
      S.empty k.k_blocks.(bi).instrs
  in
  (* forward must-reach analysis: registers assigned on every path *)
  let out_ = Array.make nb None in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun bi ->
        let in_ =
          let preds = Cfg.preds ctx.cfg bi in
          let meet =
            List.fold_left
              (fun acc p ->
                match (acc, out_.(p)) with
                | None, x -> x
                | x, None -> x
                | Some a, Some b -> Some (S.inter a b))
              None preds
          in
          let preds_in = match meet with Some s -> s | None -> S.empty in
          if bi = 0 then S.union entry_defs preds_in
          else if List.length (Cfg.preds ctx.cfg bi) = 0 then S.empty
          else preds_in
        in
        let o = Some (S.union in_ (block_defs bi)) in
        if o <> out_.(bi) then begin
          out_.(bi) <- o;
          changed := true
        end)
      ctx.rpo
  done;
  let in_of bi =
    let preds = Cfg.preds ctx.cfg bi in
    let meet =
      List.fold_left
        (fun acc p ->
          match (acc, out_.(p)) with
          | None, x -> x
          | x, None -> x
          | Some a, Some b -> Some (S.inter a b))
        None preds
    in
    let preds_in = match meet with Some s -> s | None -> S.empty in
    if bi = 0 then S.union entry_defs preds_in else preds_in
  in
  let use_diags = ref [] in
  let reported = Hashtbl.create 16 in
  Array.iter
    (fun bi ->
      let cur = ref (in_of bi) in
      let flag loc (u : vreg) =
        if not (S.mem u.id !cur) && not (Hashtbl.mem reported (u.id, loc)) then begin
          Hashtbl.add reported (u.id, loc) ();
          use_diags :=
            diag "defs" "GL501" Diag.Warning loc
              "%s may be read before any assignment (it silently reads the \
               default value 0)"
              (vname u)
            :: !use_diags
        end
      in
      Array.iteri
        (fun i ins ->
          List.iter (flag (Diag.instr_loc bi i)) (uses ins);
          match defs ins with Some d -> cur := S.add d.id !cur | None -> ())
        k.k_blocks.(bi).instrs;
      List.iter (flag (Diag.block_loc bi)) (term_uses k.k_blocks.(bi).term))
    ctx.rpo;
  (* dead stores: backward within each block, seeded from liveness *)
  let dead_diags = ref [] in
  Array.iter
    (fun bi ->
      let blk = k.k_blocks.(bi) in
      let live = ref (Liveness.live_out ctx.live bi) in
      for i = Array.length blk.instrs - 1 downto 0 do
        let ins = blk.instrs.(i) in
        (match defs ins with
        | Some d when d.ty <> Pred ->
          if not (S.mem d.id !live) then
            dead_diags :=
              diag "defs" "GL502" Diag.Warning (Diag.instr_loc bi i)
                "dead store: the value written to %s is never used" (vname d)
              :: !dead_diags;
          live := S.remove d.id !live
        | _ -> ());
        List.iter
          (fun (u : vreg) -> if u.ty <> Pred then live := S.add u.id !live)
          (uses ins)
      done)
    ctx.rpo;
  !use_diags @ !dead_diags

(* ------------------------------------------------------------------ *)
(* bitwidth: advisory diagnostics straight from the bit-precise
   dataflow framework — known bits expose redundant masks, demanded
   bits expose dead high parts, and the executor's 5-bit shift-amount
   masking exposes meaningless shifts. *)

let bitwidth_pass ctx =
  let m32 = 0xffff_ffff in
  let diags = ref [] in
  let kb_of (r : vreg) =
    if r.id < Array.length ctx.width.Width.known then
      ctx.width.Width.known.(r.id)
    else KB.Bot
  in
  let dem_of (r : vreg) =
    if r.id < Array.length ctx.width.Width.demanded then
      ctx.width.Width.demanded.(r.id)
    else 32
  in
  let dead_high_reported = Hashtbl.create 16 in
  Array.iteri
    (fun bi blk ->
      Array.iteri
        (fun i ins ->
          let loc = Diag.instr_loc bi i in
          (match ins with
          | Ibin (And, _, a, b) ->
            let redundant reg c =
              match reg with
              | Reg r when r.ty = S32 || r.ty = U32 -> (
                match kb_of r with
                | KB.Kb { ones; unk } ->
                  let possible = (ones lor unk) land m32 in
                  if possible land lnot c land m32 = 0 then
                    diags :=
                      diag "bitwidth" "GL601" Diag.Info loc
                        "mask %#x on %s is redundant: every bit it clears is \
                         already known zero"
                        (c land m32) (vname r)
                      :: !diags
                | _ -> ())
              | _ -> ()
            in
            (match (a, b) with
            | ra, Imm_i c -> redundant ra c
            | Imm_i c, rb -> redundant rb c
            | _ -> ())
          | Ibin ((Shl | Shr), _, _, amt) ->
            let provably_oob =
              match amt with
              | Imm_i c -> c land 31 <> c
              | Reg r when r.ty = S32 || r.ty = U32 -> (
                match Range.var_range ctx.range r.id with
                | I.Bot -> false
                | iv -> (
                  match I.lo iv with I.Finite lo -> lo >= 32 | _ -> false))
              | Reg _ | Imm_f _ -> false
            in
            if provably_oob then
              diags :=
                diag "bitwidth" "GL603" Diag.Warning loc
                  "shift amount is provably >= 32; the datapath masks \
                   amounts to 5 bits, so this shifts by the amount mod 32"
                :: !diags
          | _ -> ());
          match defs ins with
          | Some d
            when (d.ty = S32 || d.ty = U32)
                 && not (Hashtbl.mem dead_high_reported d.id) ->
            let dem = dem_of d in
            if dem > 0 then begin
              let fwd =
                min
                  (Width.interval_bitwidth ctx.width d.id)
                  (KB.width d.ty (kb_of d))
              in
              if dem < fwd then begin
                Hashtbl.add dead_high_reported d.id ();
                diags :=
                  diag "bitwidth" "GL602" Diag.Info loc
                    "%s carries %d significant bit(s) but consumers only \
                     read the low %d: the high bits are dead"
                    (vname d) fwd dem
                  :: !diags
              end
            end
          | _ -> ())
        blk.instrs)
    ctx.kernel.k_blocks;
  List.rev !diags

(* ------------------------------------------------------------------ *)

type pass = {
  p_name : string;
  p_codes : string list;
  p_run : ctx -> Diag.t list;
}

let passes =
  [
    { p_name = "divergence"; p_codes = [ "GL100" ]; p_run = divergence_pass };
    { p_name = "barrier"; p_codes = [ "GL101"; "GL102" ]; p_run = barrier_pass };
    {
      p_name = "shared-race";
      p_codes = [ "GL201"; "GL202"; "GL203"; "GL204" ];
      p_run = shared_race_pass;
    };
    {
      p_name = "compression";
      p_codes = [ "GL301"; "GL302"; "GL303" ];
      p_run = compression_pass;
    };
    { p_name = "bounds"; p_codes = [ "GL401"; "GL402" ]; p_run = bounds_pass };
    { p_name = "defs"; p_codes = [ "GL501"; "GL502" ]; p_run = defs_pass };
    {
      p_name = "bitwidth";
      p_codes = [ "GL601"; "GL602"; "GL603" ];
      p_run = bitwidth_pass;
    };
  ]

let run ctx =
  List.concat_map (fun p -> p.p_run ctx) passes |> List.sort Diag.compare

let lint ?buffer_len kernel ~launch =
  run (make_ctx ?buffer_len kernel ~launch)

let monitor_clean ds =
  not
    (List.exists
       (fun d -> d.Diag.d_pass = "barrier" || d.Diag.d_pass = "shared-race")
       ds)
