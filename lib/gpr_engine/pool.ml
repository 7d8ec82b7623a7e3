type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type shared = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
}

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable cell : 'a state;
  queue_of : shared option;  (* the pool's queue, served while awaiting *)
}

type t = {
  n_jobs : int;
  shared : shared option;  (* None: serial, run tasks inline *)
  mutable domains : unit Domain.t list;
}

let default_jobs () =
  match Sys.getenv_opt "GPR_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n > 0 -> n
     | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let jobs t = t.n_jobs

let rec worker sh =
  Mutex.lock sh.mutex;
  while Queue.is_empty sh.queue && not sh.stop do
    Condition.wait sh.nonempty sh.mutex
  done;
  if Queue.is_empty sh.queue then Mutex.unlock sh.mutex (* stop, drained *)
  else begin
    let job = Queue.pop sh.queue in
    Mutex.unlock sh.mutex;
    job ();
    worker sh
  end

let create ~jobs =
  let jobs = max 1 jobs in
  if jobs = 1 then { n_jobs = 1; shared = None; domains = [] }
  else begin
    let sh =
      { mutex = Mutex.create (); nonempty = Condition.create ();
        queue = Queue.create (); stop = false }
    in
    let domains =
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker sh))
    in
    { n_jobs = jobs; shared = Some sh; domains }
  end

let fresh_future queue_of =
  { fm = Mutex.create (); fc = Condition.create (); cell = Pending; queue_of }

let m_tasks = Gpr_obs.Metrics.counter "pool.tasks"

let run_into fut f =
  (* When a Chrome sink is installed, each task becomes a complete
     span on the executing domain's lane (wall-clock µs). *)
  let sink = Gpr_obs.Chrome.sink () in
  let start = match sink with Some ch -> Gpr_obs.Chrome.now_us ch | None -> 0. in
  Gpr_obs.Metrics.incr m_tasks;
  let r =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  (match sink with
   | Some ch ->
     Gpr_obs.Chrome.complete ch ~name:"pool task" ~cat:"engine" ~pid:2
       ~tid:(Domain.self () :> int)
       ~ts_us:start
       ~dur_us:(Gpr_obs.Chrome.now_us ch -. start)
       ()
   | None -> ());
  Mutex.lock fut.fm;
  fut.cell <- r;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let submit t f =
  let fut = fresh_future t.shared in
  (match t.shared with
   | None -> run_into fut f
   | Some sh ->
     Mutex.lock sh.mutex;
     if sh.stop then begin
       Mutex.unlock sh.mutex;
       invalid_arg "Pool.submit: pool is shut down"
     end;
     Queue.push (fun () -> run_into fut f) sh.queue;
     Condition.signal sh.nonempty;
     Mutex.unlock sh.mutex);
  fut

let pending fut =
  Mutex.lock fut.fm;
  let p = fut.cell = Pending in
  Mutex.unlock fut.fm;
  p

let try_pop sh =
  Mutex.lock sh.mutex;
  let job = Queue.take_opt sh.queue in
  Mutex.unlock sh.mutex;
  job

(* While its own future is pending the awaiting domain runs queued
   tasks, so [jobs] domains compute.  Once the queue is empty every
   task left is running on a worker (only the awaiting domain
   submits), and it blocks until its own one completes. *)
let await fut =
  (match fut.queue_of with
   | None -> ()
   | Some sh ->
     let rec help () =
       if pending fut then
         match try_pop sh with
         | Some job -> job (); help ()
         | None -> ()
     in
     help ());
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.cell with
    | Pending -> Condition.wait fut.fc fut.fm; wait ()
    | Done v -> Mutex.unlock fut.fm; v
    | Failed (e, bt) ->
      Mutex.unlock fut.fm;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let map_list t f xs =
  List.map await (List.map (fun x -> submit t (fun () -> f x)) xs)

let iter_list t f xs = ignore (map_list t f xs)

let shutdown t =
  match t.shared with
  | None -> ()
  | Some sh ->
    Mutex.lock sh.mutex;
    sh.stop <- true;
    Condition.broadcast sh.nonempty;
    Mutex.unlock sh.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  match f t with
  | v -> shutdown t; v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    shutdown t;
    Printexc.raise_with_backtrace e bt
