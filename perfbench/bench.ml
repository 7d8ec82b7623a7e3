(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to run it.

     bench.exe --workload tune|simulate|serve|warm --seed N --seconds S
               --trace 0|1 [--tiny] [--gpr PATH] [--expected FILE]
     bench.exe --record-expected FILE

   Standard output: a run-header JSON line, a workload-info JSON line,
   then the result line {"correct", "attempted", "failed", "metrics"}
   — end-to-end metrics when untraced, per-layer metrics when traced. *)

open Common

let workloads =
  [ ("tune", Tune_wl.run); ("simulate", Sim_wl.run); ("serve", Serve_wl.run);
    ("warm", Warm_wl.run) ]

let header opts =
  J.Obj
    [
      ( "perfbench_header",
        J.Obj
          [
            ("host", J.Str (Unix.gethostname ()));
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ( "commit",
              J.Str
                (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT")
                   ~default:"unknown") );
            ("engine", J.Str Gpr_engine.Fingerprint.version);
            ("workload", J.Str opts.workload);
            ("seed", J.Int opts.seed);
            ("seconds", J.number opts.seconds);
            ("trace", J.Bool opts.trace);
            ("tiny", J.Bool opts.tiny);
            ("domains", J.Int 1);
          ] );
    ]

(* A non-finite value cannot be printed as JSON; it is shown as 0 and
   the run is marked incorrect. *)
let result_line ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun mt ->
               let v = if Float.is_finite mt.value then mt.value else 0.0 in
               (mt.name, J.Obj [ ("value", J.Float v); ("unit", J.Str mt.unit) ]))
             metrics) );
    ]

let run opts run_workload =
  print_endline (J.to_string (header opts));
  Gpr_obs.Metrics.set_enabled true;
  let o = run_workload opts in
  let attempted =
    max 1 (List.fold_left (fun a p -> a + p.attempted) 0 o.phases)
  in
  let failed =
    List.fold_left (fun a p -> a + p.failed) o.extra_failures o.phases
  in
  let raw =
    List.map
      (fun mt ->
        if mt.name <> "error_frac" then mt
        else { mt with value = float_of_int failed /. float_of_int attempted })
      o.metrics
  in
  (* Times and rates at the host's nominal speed (see Common.host_factor). *)
  let factor = host_factor () in
  let metrics =
    List.map
      (fun mt ->
        match mt.unit with
        | _ when List.mem mt.name o.prescaled -> mt
        | "s" | "ms" | "us" | "ns" -> { mt with value = mt.value *. factor }
        | "1/s" -> { mt with value = mt.value /. factor }
        | _ -> mt)
      raw
  in
  let finite = List.for_all (fun mt -> Float.is_finite mt.value) metrics in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  let host =
    J.Obj
      [ ("reference_nominal_s", J.number reference_nominal_s);
        ("reference_mean_s", J.number (Gpr_util.Stats.mean !host_samples));
        ("samples", J.Int (List.length !host_samples));
        ("factor", J.number factor);
        ( "unscaled_metrics",
          J.Obj (List.map (fun mt -> (mt.name, J.number mt.value)) raw) ) ]
  in
  print_endline
    (J.to_string (J.Obj [ ("perfbench_info", J.Obj (o.info @ [ ("host", host) ])) ]));
  print_endline
    (J.to_string
       (result_line ~correct:(failed = 0 && finite) ~attempted ~failed metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  let gpr = ref "_build/default/bin/gpr_cli.exe" in
  let expected = ref "perfbench/expected.json" and record = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tune|simulate|serve|warm");
      ("--seed", Arg.Set_int seed, "N input/order seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (at least one round)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tiny", Arg.Set tiny, " smoke-test size");
      ("--gpr", Arg.Set_string gpr, "PATH gpr executable (serve workload)");
      ("--expected", Arg.Set_string expected, "FILE expected outputs");
      ("--record-expected", Arg.Set_string record, "FILE write expected outputs and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record <> "" then begin
    Gpr_obs.Metrics.set_enabled true;
    J.write_file !record
      (J.Obj [ ("tune", Tune_wl.record ()); ("simulate", Sim_wl.record ()) ]);
    exit 0
  end;
  let run_workload =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline
        ("perfbench: --workload must be one of "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let expected =
    match J.parse_file !expected with
    | Ok j -> j
    | Error e ->
      prerr_endline ("perfbench: cannot read " ^ !expected ^ ": " ^ e);
      exit 2
  in
  let work_dir =
    Filename.concat ".perfbench-work"
      (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  let opts =
    { workload = !workload; seed = !seed; seconds = Float.max 0.0 !seconds;
      trace = !trace = 1; tiny = !tiny; gpr = !gpr; expected; work_dir }
  in
  mkdir_p work_dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf work_dir;
      try Unix.rmdir (Filename.dirname work_dir) with Unix.Unix_error _ -> ())
    (fun () -> run opts run_workload)
