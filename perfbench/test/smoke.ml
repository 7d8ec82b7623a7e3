(* Smoke and self-test of the benchmark.

     smoke.exe BENCH_EXE GPR_EXE BENCHMARK.json expected.json BENCH_sim.json

   1. A tiny run of every workload, untraced and traced, must check out
      and emit exactly the metrics BENCHMARK.json names, each finite and
      with its unit (end-to-end ones also non-zero).
   2. A corrupted expected value must show up as failed ops and a
      non-zero error_frac.
   3. The expected simulated cycles must equal BENCH_sim.json wherever
      both name the same kernel and scheme. *)

module J = Gpr_obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL: " ^ s))
    fmt

let member k j = Option.value (J.member k j) ~default:J.Null

let load path =
  match J.parse_file path with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* Runs bench.exe and parses its last output line.  [quiet] drops its
   standard error (the self-tests' runs report their planted
   mismatches there). *)
let run_bench ?(quiet = false) bench args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0
    else Unix.stderr
  in
  let pid =
    Unix.create_process bench (Array.of_list (bench :: args)) Unix.stdin out_w err
  in
  Unix.close out_w;
  if quiet then Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let last = match lines [] with l :: _ -> l | [] -> "" in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if status <> Unix.WEXITED 0 then fail "%s: non-zero exit" (String.concat " " args);
  match J.parse last with
  | Ok j -> j
  | Error e -> failwith ("unparseable result line: " ^ e)

let number = function
  | J.Int n -> Some (float_of_int n)
  | J.Float f -> Some f
  | _ -> None

let metrics_of r =
  match member "metrics" r with J.Obj kv -> kv | _ -> []

let check_metrics ~what ~nonzero (wanted : (string * string) list) r =
  let got = metrics_of r in
  if List.sort compare (List.map fst got) <> List.sort compare (List.map fst wanted)
  then fail "%s: metric names differ from BENCHMARK.json" what;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name got with
      | None -> fail "%s: %s missing" what name
      | Some m ->
        if member "unit" m <> J.Str unit then fail "%s: %s unit is not %s" what name unit;
        (match number (member "value" m) with
         | Some v when Float.is_finite v && ((not nonzero) || v <> 0.0) -> ()
         | _ -> fail "%s: %s value is not a finite%s number" what name
                  (if nonzero then " non-zero" else "")))
    wanted

let metric_value r name =
  Option.bind (List.assoc_opt name (metrics_of r)) (fun m -> number (member "value" m))

let () =
  let bench, gpr, spec, expected, bench_sim =
    match Sys.argv with
    | [| _; b; g; s; e; bs |] -> (b, g, s, e, bs)
    | _ -> failwith "usage: smoke.exe BENCH GPR BENCHMARK.json expected.json BENCH_sim.json"
  in
  let spec = load spec in
  let defs key =
    match member key spec with
    | J.Arr ms ->
      List.map
        (fun m ->
          match (member "name" m, member "unit" m) with
          | J.Str n, J.Str u -> (n, u)
          | _ -> failwith "BENCHMARK.json: metric without name/unit")
        ms
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let end_to_end = defs "end_to_end" and per_layer = defs "per_layer" in
  let workloads =
    match member "workloads" spec with
    | J.Arr ws -> List.map (fun w -> match member "name" w with J.Str n -> n | _ -> "?") ws
    | _ -> []
  in
  let tiny ?(exp = expected) ?quiet w trace =
    run_bench ?quiet bench
      [ "--workload"; w; "--seed"; "1"; "--seconds"; "0"; "--trace";
        string_of_int trace; "--tiny"; "--gpr"; gpr; "--expected"; exp ]
  in
  (* 1. every workload, both modes *)
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s trace=%d" w trace in
          let r = tiny w trace in
          if member "correct" r <> J.Bool true || member "failed" r <> J.Int 0 then
            fail "%s: run did not check out" what;
          (match member "attempted" r with
           | J.Int n when n >= 1 -> ()
           | _ -> fail "%s: attempted < 1" what);
          if trace = 0 then check_metrics ~what ~nonzero:true end_to_end r
          else check_metrics ~what ~nonzero:false per_layer r)
        [ 0; 1 ])
    workloads;
  (* 2. corrupted expected values must count as failures *)
  let exp = load expected in
  (* [corrupt path keys] writes expected.json with the count at [keys]
     off by one. *)
  let corrupt path keys =
    let rec edit keys j =
      match (keys, j) with
      | [], J.Int n -> J.Int (n + 1)
      | k :: rest, J.Obj kv ->
        J.Obj (List.map (fun (k', v) -> (k', if k' = k then edit rest v else v)) kv)
      | _ -> failwith ("expected.json has no " ^ String.concat "/" keys)
    in
    J.write_file path (edit keys exp)
  in
  let self_test w path =
    let r = tiny ~exp:path ~quiet:true w 1 in
    (match (member "correct" r, member "failed" r) with
     | J.Bool false, J.Int n when n > 0 -> ()
     | _ -> fail "%s: corrupted expected value was not reported as failed" w);
    match metric_value r "error_frac" with
    | Some f when f > 0.0 -> ()
    | _ -> fail "%s: corrupted expected value left error_frac at 0" w
  in
  corrupt "corrupt-tune.json" [ "tune"; "Hotspot"; "evals_perfect" ];
  self_test "tune" "corrupt-tune.json";
  corrupt "corrupt-sim.json" [ "simulate"; "kernels"; "Hotspot"; "baseline" ];
  self_test "simulate" "corrupt-sim.json";
  (* 3. expected cycles agree with BENCH_sim.json where both have them *)
  let kernels = member "kernels" (member "simulate" exp) in
  let overlap = ref 0 in
  (match member "schemes" (load bench_sim) with
   | J.Arr schemes ->
     List.iter
       (fun s ->
         let scheme = match member "scheme" s with J.Str n -> n | _ -> "?" in
         match member "kernels" s with
         | J.Arr rows ->
           List.iter
             (fun row ->
               match (member "kernel" row, member "cycles" row) with
               | J.Str k, J.Int c -> (
                 match J.member k kernels with
                 | Some per ->
                   incr overlap;
                   if member scheme per <> J.Int c then
                     fail "expected.json %s/%s cycles differ from BENCH_sim.json" k scheme
                 | None -> ())
               | _ -> ())
             rows
         | _ -> ())
       schemes
   | _ -> fail "BENCH_sim.json: no schemes");
  if !overlap = 0 then fail "expected.json and BENCH_sim.json share no kernel";
  if !failures > 0 then exit 1;
  Printf.printf "perfbench smoke: %d workloads x 2 modes, self-tests and BENCH_sim cross-check ok\n"
    (List.length workloads)
