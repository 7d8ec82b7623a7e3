(* RegDem-style register demotion (Sakdhnagool et al.,
   arXiv:1907.02894): relieve register pressure by keeping hot
   (short-live-interval) values in the conventional 32-bit file and
   demoting cold live ranges to shared-memory spill slots.  Occupancy
   gained from the lower register pressure is traded against the shared
   memory the slots consume — both sides of the trade flow through
   [Backend.occupancy].

   Deviations from RegDem proper (documented in DESIGN.md): demotion is
   a whole-live-range decision ranked by interval length rather than a
   per-region compiler pass over PTX, special registers are never
   demoted (RegDem rematerialises them), and the demotion count is
   capped so one block always fits an SM. *)

module Alloc = Gpr_alloc.Alloc
module Liveness = Gpr_analysis.Liveness

let id = "spill"
let version = 1
let describe = "register demotion to shared-memory spill slots (RegDem-style)"
let needs_precision = false

(* At most this many demoted live ranges per kernel: 8 slots cost at
   most 32 bytes of shared memory per thread, so a block always fits
   the SM's shared-memory capacity. *)
let max_spilled = 8

(* Peak simultaneously-live demoted ranges = spill slots per thread
   after linear-scan slot reuse.  Intervals are half-open, so a range
   ending where another starts can reuse its slot (-1 before +1). *)
let slots_needed spilled_intervals =
  let events =
    List.concat_map
      (fun (_, start, stop) -> [ (start, 1); (stop, -1) ])
      spilled_intervals
    |> List.sort (fun (a, da) (b, db) ->
           if a <> b then compare a b else compare da db)
  in
  let peak = ref 0 and cur = ref 0 in
  List.iter
    (fun (_, d) ->
       cur := !cur + d;
       if !cur > !peak then peak := !cur)
    events;
  !peak

let analyze ~kernel ~width:_ ~precision:_ =
  let live = Liveness.compute kernel in
  let intervals = Liveness.intervals live in
  let special_ids =
    List.fold_left
      (fun acc (id, _) -> Liveness.Iset.add id acc)
      Liveness.Iset.empty kernel.Gpr_isa.Types.k_specials
  in
  (* Coldest first: longest live interval, var id as a deterministic
     tie break.  Special registers stay resident (cheap to keep, and
     RegDem rematerialises rather than spills them). *)
  let candidates =
    List.filter
      (fun (v, _, _) -> not (Liveness.Iset.mem v special_ids))
      intervals
    |> List.sort (fun (v, s, e) (v', s', e') ->
           let c = compare (e' - s') (e - s) in
           if c <> 0 then c else compare (v, s) (v', s'))
  in
  let baseline = Alloc.baseline ~intervals kernel in
  (* Aim to shed about a quarter of the baseline pressure, never
     dropping below 4 resident registers: enough to move the occupancy
     needle without starving the hot set. *)
  let target = max 4 (baseline.Alloc.pressure - ((baseline.Alloc.pressure + 3) / 4)) in
  let alloc_excluding spilled =
    Alloc.run ~intervals kernel
      ~exclude:(fun v -> Hashtbl.mem spilled v)
      ~width_of:(fun _ -> 32)
  in
  (* Demote one cold range at a time until pressure reaches the target
     (a range away from the pressure peak may not help; keep going —
     the next-coldest might). *)
  let spilled = Hashtbl.create 8 in
  let spilled_intervals = ref [] in
  let alloc = ref baseline in
  (try
     List.iteri
       (fun i ((v, _, _) as iv) ->
          if Hashtbl.length spilled >= max_spilled
             || !alloc.Alloc.pressure <= target
          then raise Exit;
          ignore i;
          Hashtbl.replace spilled v ();
          spilled_intervals := iv :: !spilled_intervals;
          alloc := alloc_excluding spilled)
       candidates
   with Exit -> ());
  if Hashtbl.length spilled = 0 then Backend.plain_resources baseline
  else
    {
      Backend.alloc = !alloc;
      spilled;
      spill_slots = slots_needed !spilled_intervals;
    }

let cost =
  {
    Backend.read_extra_latency = 0;
    writeback_delay = 0;
    (* Each demoted access pays a shared-memory round trip; 24 cycles
       is the Fermi shared latency the timing model also uses. *)
    spill_latency = 24;
    uses_indirection = false;
  }

let area (cfg : Gpr_arch.Config.t) =
  (* Per-lane spill address generation (base + slot adder) and a
     256-entry demotion map (slot id + valid bit).  The dominant cost —
     shared-memory capacity — is charged through [Backend.occupancy],
     not transistors. *)
  let adders = cfg.warp_size * 900 in
  let demotion_map = 256 * 10 * 6 in
  let per_sm = adders + demotion_map in
  {
    Backend.ar_scheme = id;
    ar_transistors_per_sm = per_sm;
    ar_fraction_of_chip =
      float_of_int (per_sm * cfg.num_sms) /. cfg.total_transistors;
    ar_notes =
      "spill address generation + demotion map; main cost is shared-memory \
       capacity, charged via occupancy";
  }
