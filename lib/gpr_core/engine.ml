let jobs n = if n <= 0 then Gpr_engine.Pool.default_jobs () else n

let attach_store ?max_entries ?max_bytes = function
  | None -> None
  | Some dir ->
    let s = Gpr_engine.Store.create ?max_entries ?max_bytes ~dir () in
    Compress.set_store (Some s);
    Simulate.set_store (Some s);
    Some s

let with_pool ~jobs:n f =
  Gpr_engine.Pool.with_pool ~jobs:(jobs n) (fun pool ->
      Experiments.use_pool (Some pool);
      Fun.protect ~finally:(fun () -> Experiments.use_pool None) f)
