module J = Gpr_obs.Json
module W = Gpr_workloads.Workload
module Registry = Gpr_workloads.Registry
module Q = Gpr_quality.Quality
module Compress = Gpr_core.Compress
module Simulate = Gpr_core.Simulate
module Backend = Gpr_backend.Backend
module P = Protocol

exception Deadline

type t =
  | Ping
  | Sleep of int
  | Plan_registry of W.t
  | Plan_inline of Gpr_isa.Types.kernel * Gpr_isa.Types.launch
  | Lint_registry of W.t
  | Lint_inline of Gpr_isa.Types.kernel * Gpr_isa.Types.launch
  | Estimate of W.t * Backend.t
  | Profile of W.t * Backend.t
  | Colocate of W.t list * Backend.t * (module Gpr_sim.Sim_multi.POLICY)

let err code fmt =
  Printf.ksprintf (fun m -> Error { P.e_code = code; P.e_message = m }) fmt

(* The serve path must never raise on a bad name: these are the typed
   twins of the CLI's "try `gpr list`" exit-1 messages. *)
let resolve_kernel name =
  match Registry.by_name name with
  | Some w -> Ok w
  | None ->
    err P.Unknown_kernel "unknown kernel %s, try `gpr list` (available: %s)"
      name
      (String.concat ", " Registry.names)

let resolve_backend name =
  match Gpr_backend.Registry.find name with
  | Some b -> Ok b
  | None ->
    err P.Unknown_backend "unknown backend %s (available: %s)" name
      (String.concat ", " Gpr_backend.Registry.names)

let resolve_policy name =
  match Gpr_sim.Sim_multi.find_policy name with
  | Some p -> Ok p
  | None ->
    err P.Bad_request
      "unknown policy %s, try `--policy fifo|rr|binpack` (available: %s)" name
      (String.concat ", " Gpr_sim.Sim_multi.policy_names)

let resolve_inline ~source ~block ~grid =
  if block <= 0 || grid <= 0 then
    err P.Bad_request "block and grid must be positive (got %d, %d)" block grid
  else
    match Gpr_isa.Parser.parse source with
    | Ok kernel -> Ok (kernel, Gpr_isa.Types.launch_1d ~block ~grid)
    | Error e -> err P.Bad_request "inline source does not parse: %s" e

let resolve (r : P.request) =
  let target ~registry ~inline =
    match (r.P.q_kernel, r.P.q_source) with
    | Some name, None -> Result.map registry (resolve_kernel name)
    | None, Some source ->
      Result.map inline
        (resolve_inline ~source ~block:r.P.q_block ~grid:r.P.q_grid)
    | Some _, Some _ ->
      err P.Bad_request "give either \"kernel\" or \"source\", not both"
    | None, None ->
      err P.Bad_request "verb %s needs a \"kernel\" name or inline \"source\""
        r.P.q_verb
  in
  let registry_and_backend mk =
    match r.P.q_kernel with
    | None ->
      if r.P.q_source <> None then
        err P.Bad_request
          "verb %s simulates generated input data and therefore needs a \
           registry kernel, not inline source"
          r.P.q_verb
      else err P.Bad_request "verb %s needs a \"kernel\" name" r.P.q_verb
    | Some name ->
      Result.bind (resolve_kernel name) (fun w ->
          Result.map (mk w)
            (resolve_backend (Option.value r.P.q_backend ~default:"slice")))
  in
  match r.P.q_verb with
  | "ping" -> Ok Ping
  | "sleep" ->
    if r.P.q_sleep_ms < 0 || r.P.q_sleep_ms > 60_000 then
      err P.Bad_request "sleep_ms out of range"
    else Ok (Sleep r.P.q_sleep_ms)
  | "plan" ->
    target
      ~registry:(fun w -> Plan_registry w)
      ~inline:(fun (k, l) -> Plan_inline (k, l))
  | "lint" ->
    target
      ~registry:(fun w -> Lint_registry w)
      ~inline:(fun (k, l) -> Lint_inline (k, l))
  | "estimate" -> registry_and_backend (fun w b -> Estimate (w, b))
  | "profile" -> registry_and_backend (fun w b -> Profile (w, b))
  | "colocate" -> (
    match r.P.q_kernel with
    | None ->
      err P.Bad_request
        "verb colocate needs a comma-separated \"kernel\" set of registry \
         names"
    | Some names -> (
      let names =
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      match names with
      | [] -> err P.Bad_request "verb colocate: empty kernel set"
      | _ ->
        let rec resolve_all = function
          | [] -> Ok []
          | n :: rest ->
            Result.bind (resolve_kernel n) (fun w ->
                Result.map (fun ws -> w :: ws) (resolve_all rest))
        in
        Result.bind (resolve_all names) (fun ws ->
            Result.bind
              (resolve_backend (Option.value r.P.q_backend ~default:"slice"))
              (fun b ->
                Result.map
                  (fun p -> Colocate (ws, b, p))
                  (resolve_policy
                     (Option.value r.P.q_policy ~default:"fifo"))))))
  | v -> err P.Bad_request "unknown verb %s" v

(* Registry workloads are a fixed static set, so within one process the
   name identifies the content and the key stays O(1) to build; inline
   kernels are keyed by content fingerprint. *)
let backend_tag b =
  let module S = (val b : Backend.Scheme) in
  Printf.sprintf "%s/%d" S.id S.version

let key = function
  | Ping -> "ping"
  | Sleep n -> Printf.sprintf "sleep:%d" n
  | Plan_registry w -> "plan:reg:" ^ w.W.name
  | Plan_inline (k, l) ->
    Printf.sprintf "plan:inline:%s:%s"
      (Gpr_engine.Fingerprint.to_hex (Gpr_engine.Fingerprint.kernel k))
      (Gpr_engine.Fingerprint.to_hex (Gpr_engine.Fingerprint.launch l))
  | Lint_registry w -> "lint:reg:" ^ w.W.name
  | Lint_inline (k, l) ->
    Printf.sprintf "lint:inline:%s:%s"
      (Gpr_engine.Fingerprint.to_hex (Gpr_engine.Fingerprint.kernel k))
      (Gpr_engine.Fingerprint.to_hex (Gpr_engine.Fingerprint.launch l))
  | Estimate (w, b) -> Printf.sprintf "estimate:%s:%s" w.W.name (backend_tag b)
  | Profile (w, b) -> Printf.sprintf "profile:%s:%s" w.W.name (backend_tag b)
  | Colocate (ws, b, p) ->
    let module PM = (val p : Gpr_sim.Sim_multi.POLICY) in
    Printf.sprintf "colocate:%s:%s:%s"
      (String.concat "+" (List.map (fun (w : W.t) -> w.W.name) ws))
      (backend_tag b) PM.id

let cacheable = function
  | Ping | Sleep _ -> false
  | Plan_registry _ | Plan_inline _ | Lint_registry _ | Lint_inline _
  | Estimate _ | Profile _ | Colocate _ -> true

(* ---------------- handlers ---------------- *)

let buffer_len_of_workload = W.buffer_len

let run_sleep ~check ms =
  let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
  let rec nap () =
    check ();
    let left = until -. Unix.gettimeofday () in
    if left > 0.0 then begin
      Unix.sleepf (Float.min left 0.01);
      nap ()
    end
  in
  nap ();
  J.Obj [ ("slept_ms", J.Int ms) ]

(* Mirrors `gpr pressure`: the six static configurations plus the
   occupancy line. *)
let run_plan_registry ~check (w : W.t) =
  let c = Compress.analyze w in
  check ();
  let cfg name (a : Gpr_alloc.Alloc.t) quality =
    J.Obj
      ([ ("config", J.Str name); ("regs_per_thread", J.Int a.Gpr_alloc.Alloc.pressure) ]
      @
      match quality with
      | None -> []
      | Some s -> [ ("quality", J.Str (Q.score_to_string s)) ])
  in
  let occ a = (Compress.occupancy c a).Gpr_arch.Occupancy.blocks_per_sm in
  J.Obj
    [
      ("kernel", J.Str w.W.name);
      ( "configs",
        J.Arr
          [
            cfg "original" c.Compress.baseline None;
            cfg "narrow-ints" c.Compress.int_only None;
            cfg "floats-perfect" c.Compress.perfect.Compress.alloc_float_only
              (Some c.Compress.perfect.Compress.achieved_score);
            cfg "floats-high" c.Compress.high.Compress.alloc_float_only
              (Some c.Compress.high.Compress.achieved_score);
            cfg "both-perfect" c.Compress.perfect.Compress.alloc_both
              (Some c.Compress.perfect.Compress.achieved_score);
            cfg "both-high" c.Compress.high.Compress.alloc_both
              (Some c.Compress.high.Compress.achieved_score);
          ] );
      ( "blocks_per_sm",
        J.Obj
          [
            ("original", J.Int (occ c.Compress.baseline));
            ("perfect", J.Int (occ c.Compress.perfect.Compress.alloc_both));
            ("high", J.Int (occ c.Compress.high.Compress.alloc_both));
          ] );
    ]

(* Mirrors `gpr analyze`: the static integer framework only (inline
   kernels carry no input data, so the float tuner cannot run). *)
let run_plan_inline ~check kernel launch =
  let { Compress.width; baseline; int_only; _ } =
    Compress.static_plan ~check kernel ~launch
  in
  check ();
  J.Obj
    [
      ("kernel", J.Str kernel.Gpr_isa.Types.k_name);
      ("instructions", J.Int (Gpr_isa.Pp.instr_count kernel));
      ("blocks", J.Int (Array.length kernel.Gpr_isa.Types.k_blocks));
      ("pressure_original", J.Int baseline.Gpr_alloc.Alloc.pressure);
      ("pressure_narrow_ints", J.Int int_only.Gpr_alloc.Alloc.pressure);
      ( "narrow_int_vars",
        J.Int (Gpr_analysis.Width.narrow_int_count width kernel) );
      ( "narrow_int_vars_interval",
        J.Int (Gpr_analysis.Width.interval_narrow_int_count width kernel) );
    ]

let diags_payload kernel diags =
  let module D = Gpr_lint.Diag in
  let name = kernel.Gpr_isa.Types.k_name in
  J.Obj
    [
      ("kernel", J.Str name);
      ("errors", J.Int (D.count D.Error diags));
      ("warnings", J.Int (D.count D.Warning diags));
      ("info", J.Int (D.count D.Info diags));
      ("diagnostics", D.list_to_json [ (name, diags) ]);
    ]

let run_lint_registry ~check (w : W.t) =
  let diags =
    Gpr_lint.Lint.lint ~buffer_len:(W.buffer_len w) w.W.kernel
      ~launch:w.W.launch
  in
  check ();
  diags_payload w.W.kernel diags

let run_lint_inline ~check kernel launch =
  let diags = Gpr_lint.Lint.lint kernel ~launch in
  check ();
  diags_payload kernel diags

(* Mirrors one row of `gpr report KERNEL --backend S`
   (Experiments.backend_comparison): same calls, same memo keys. *)
let estimate_parts ~check (w : W.t) b =
  let c = Compress.analyze w in
  check ();
  let base = (Simulate.baseline c).Gpr_sim.Sim.gpu_ipc in
  check ();
  let res, occ = Simulate.footprint b c Q.High in
  check ();
  let st = Simulate.backend b c Q.High in
  (base, res, occ, st)

let run_estimate ~check (w : W.t) b =
  let base, res, occ, st = estimate_parts ~check w b in
  J.Obj
    [
      ("kernel", J.Str w.W.name);
      ("backend", J.Str (Backend.id b));
      ( "regs_per_thread",
        J.Int res.Backend.alloc.Gpr_alloc.Alloc.pressure );
      ( "spill_bytes_per_thread",
        J.Int (Backend.spill_bytes_per_thread res) );
      ("blocks_per_sm", J.Int occ.Gpr_arch.Occupancy.blocks_per_sm);
      ("warps_per_sm", J.Int occ.Gpr_arch.Occupancy.warps_per_sm);
      ("occupancy", J.Float occ.Gpr_arch.Occupancy.occupancy);
      ( "limiter",
        J.Str
          (Gpr_arch.Occupancy.limiter_to_string occ.Gpr_arch.Occupancy.limiter)
      );
      ("cycles", J.Int st.Gpr_sim.Sim.cycles);
      ("ipc", J.Float st.Gpr_sim.Sim.gpu_ipc);
      ("ipc_baseline", J.Float base);
      ( "ipc_vs_baseline_pct",
        J.Float (100.0 *. ((st.Gpr_sim.Sim.gpu_ipc /. base) -. 1.0)) );
    ]

let run_profile ~check (w : W.t) b =
  let _, _, _, st = estimate_parts ~check w b in
  let bd = Gpr_sim.Sim.breakdown st in
  J.Obj
    [
      ("kernel", J.Str w.W.name);
      ("backend", J.Str (Backend.id b));
      ("cycles", J.Int st.Gpr_sim.Sim.cycles);
      ("ipc", J.Float st.Gpr_sim.Sim.gpu_ipc);
      ("issued_slots", J.Int st.Gpr_sim.Sim.issued_slots);
      ("total_slots", J.Int (Gpr_obs.Stall.total_slots bd));
      ("stalls", Gpr_obs.Stall.to_json bd);
      ("bank_conflicts", J.Int st.Gpr_sim.Sim.bank_conflicts);
      ("spill_loads", J.Int st.Gpr_sim.Sim.spill_loads);
      ("spill_stores", J.Int st.Gpr_sim.Sim.spill_stores);
    ]

(* Mirrors `gpr colocate` for the requested scheme only (the CLI's
   baseline comparison column is two requests away). *)
let run_colocate ~check ws b policy =
  let module M = Gpr_sim.Sim_multi in
  let cs =
    List.map
      (fun w ->
        let c = Compress.analyze w in
        check ();
        c)
      ws
  in
  let r = Simulate.colocate ~policy b cs Q.High in
  check ();
  J.Obj
    [
      ("kernels", J.Arr (List.map (fun (w : W.t) -> J.Str w.W.name) ws));
      ("backend", J.Str (Backend.id b));
      ("policy", J.Str r.M.r_policy);
      ( "tenants",
        J.Arr
          (Array.to_list
             (Array.map
                (fun (t : M.tenant_stats) ->
                  J.Obj
                    [
                      ("kernel", J.Str t.M.ts_label);
                      ("blocks_launched", J.Int t.M.ts_blocks_launched);
                      ("peak_resident", J.Int t.M.ts_peak_resident);
                      ("issued_slots", J.Int t.M.ts_issued_slots);
                      ("warp_instructions", J.Int t.M.ts_warp_instructions);
                      ("ipc", J.Float t.M.ts_ipc);
                      ("issue_share", J.Float t.M.ts_issue_share);
                    ])
                r.M.r_tenants)) );
      ("cycles", J.Int r.M.r_stats.Gpr_sim.Sim.cycles);
      ("ipc", J.Float r.M.r_stats.Gpr_sim.Sim.gpu_ipc);
      ("sm_ipc", J.Float r.M.r_stats.Gpr_sim.Sim.sm_ipc);
      ("peak_resident_blocks", J.Int r.M.r_peak_resident_blocks);
      ("peak_resident_warps", J.Int r.M.r_peak_resident_warps);
      ("co_resident_cycles", J.Int r.M.r_co_resident_cycles);
      ("admissions", J.Int r.M.r_admissions);
      (* Degenerate (all tenants starved) emits null, not a score. *)
      ( "fairness",
        if Gpr_obs.Fair.degenerate r.M.r_fairness then J.Null
        else J.Float r.M.r_fairness );
    ]

let run ?(check = fun () -> ()) = function
  | Ping -> J.Obj [ ("pong", J.Bool true) ]
  | Sleep ms -> run_sleep ~check ms
  | Plan_registry w -> run_plan_registry ~check w
  | Plan_inline (k, l) -> run_plan_inline ~check k l
  | Lint_registry w -> run_lint_registry ~check w
  | Lint_inline (k, l) -> run_lint_inline ~check k l
  | Estimate (w, b) -> run_estimate ~check w b
  | Profile (w, b) -> run_profile ~check w b
  | Colocate (ws, b, p) -> run_colocate ~check ws b p
