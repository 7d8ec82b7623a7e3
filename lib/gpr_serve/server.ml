module J = Gpr_obs.Json
module P = Protocol
module Pool = Gpr_engine.Pool
module Metrics = Gpr_obs.Metrics

type config = {
  workers : int;
  queue_depth : int;
  default_deadline_ms : int;
  max_frame_bytes : int;
  store : Gpr_engine.Store.t option;
  debug_sleep : bool;
}

let default_config =
  {
    workers = 4;
    queue_depth = 64;
    default_deadline_ms = 30_000;
    max_frame_bytes = P.max_frame_default;
    store = None;
    debug_sleep = false;
  }

(* ---------------- metrics ---------------- *)

let m_received = Metrics.counter "serve.received"
let m_enqueued = Metrics.counter "serve.enqueued"
let m_completed = Metrics.counter "serve.completed"
let m_rejected = Metrics.counter "serve.rejected.overloaded"
let m_deadline = Metrics.counter "serve.deadline_exceeded"
let m_cache_hits = Metrics.counter "serve.cache.hits"
let m_coalesced = Metrics.counter "serve.coalesced"
let m_internal = Metrics.counter "serve.errors.internal"

let h_latency =
  Metrics.histogram
    ~buckets:
      [ 100; 300; 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000;
        3_000_000 ]
    "serve.latency_us"

let h_qdepth =
  Metrics.histogram ~buckets:[ 0; 1; 2; 4; 8; 16; 32; 64; 128 ]
    "serve.queue.depth"

(* ---------------- state ---------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  dec : P.decoder;
  outq : Bytes.t Queue.t;  (* encoded frames not yet fully written *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  mutable closing : bool;  (* close once the output buffer drains *)
  mutable alive : bool;
}

type waiter = {
  w_cid : int;
  w_rid : int;
  w_deadline : float;  (* absolute, Unix.gettimeofday base *)
  w_arrival : float;
}

type entry = {
  e_key : string;
  e_work : Work.t;
  e_cacheable : bool;
  mutable e_waiters : waiter list;
}

type t = {
  cfg : config;
  pool : Pool.t;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  adopt_m : Mutex.t;
  mutable adopt_fds : Unix.file_descr list;
  comp_m : Mutex.t;
  completions : (string * (J.t, P.error) result) Queue.t;
  mutable conns : conn list;
  mutable listen_fd : Unix.file_descr option;
  mutable socket_path : string option;
  queue : entry Queue.t;
  queued_keys : (string, entry) Hashtbl.t;
  inflight : (string, entry) Hashtbl.t;
  mutable inflight_n : int;
  cache : (string, J.t) Hashtbl.t;
  cache_order : string Queue.t;
  mutable next_cid : int;
  started : float;
  (* plain counters mirroring the metrics (metrics may be disabled) *)
  mutable n_received : int;
  mutable n_enqueued : int;
  mutable n_completed : int;
  mutable n_rejected : int;
  mutable n_deadline : int;
  mutable n_cache_hits : int;
  mutable n_coalesced : int;
  mutable n_internal : int;
  mutable n_protocol_errors : int;
}

let cache_cap = 4096

let create cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  Unix.set_nonblock wake_r;
  {
    cfg;
    (* +1: a pool of [jobs] spawns [jobs - 1] domains and counts the
       submitter as the last; the IO domain never awaits, so it runs no
       task and [workers] real worker domains serve the queue. *)
    pool = Pool.create ~jobs:(cfg.workers + 1);
    stop_flag = Atomic.make false;
    wake_r;
    wake_w;
    adopt_m = Mutex.create ();
    adopt_fds = [];
    comp_m = Mutex.create ();
    completions = Queue.create ();
    conns = [];
    listen_fd = None;
    socket_path = None;
    queue = Queue.create ();
    queued_keys = Hashtbl.create 64;
    inflight = Hashtbl.create 16;
    inflight_n = 0;
    cache = Hashtbl.create 256;
    cache_order = Queue.create ();
    next_cid = 0;
    started = Unix.gettimeofday ();
    n_received = 0;
    n_enqueued = 0;
    n_completed = 0;
    n_rejected = 0;
    n_deadline = 0;
    n_cache_hits = 0;
    n_coalesced = 0;
    n_internal = 0;
    n_protocol_errors = 0;
  }

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
    -> ()

let stop t =
  Atomic.set t.stop_flag true;
  wake t

let attach t fd =
  Mutex.lock t.adopt_m;
  t.adopt_fds <- fd :: t.adopt_fds;
  Mutex.unlock t.adopt_m;
  wake t

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop t));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t))

let received t = t.n_received
let completed t = t.n_completed
let rejected_overloaded t = t.n_rejected
let deadline_expired t = t.n_deadline
let cache_hits t = t.n_cache_hits
let coalesced t = t.n_coalesced

(* ---------------- connection output ---------------- *)

let conn_flushed c = Queue.is_empty c.outq

(* Write pending frames in order, each from where the last write left
   off, until the socket would block or the queue is empty. *)
let rec try_flush c =
  if c.alive && not (conn_flushed c) then begin
    let b = Queue.peek c.outq in
    let len = Bytes.length b - c.out_off in
    match Unix.write c.fd b c.out_off len with
    | n when n < len -> c.out_off <- c.out_off + n
    | _ ->
      ignore (Queue.pop c.outq);
      c.out_off <- 0;
      try_flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> c.alive <- false
  end

let send_response t c (resp : P.response) =
  ignore t;
  if c.alive then begin
    Queue.add (P.encode_frame (J.to_string (P.response_to_json resp))) c.outq;
    try_flush c
  end

let find_conn t cid = List.find_opt (fun c -> c.alive && c.cid = cid) t.conns

let respond_err t c rid code msg =
  send_response t c
    { P.s_id = rid; s_result = Error { P.e_code = code; e_message = msg } }

let observe_latency w =
  Metrics.observe h_latency
    (int_of_float ((Unix.gettimeofday () -. w.w_arrival) *. 1e6))

let respond_waiter_ok t w payload =
  t.n_completed <- t.n_completed + 1;
  Metrics.incr m_completed;
  observe_latency w;
  match find_conn t w.w_cid with
  | None -> ()  (* client went away; nothing to deliver *)
  | Some c -> send_response t c { P.s_id = w.w_rid; s_result = Ok payload }

let respond_waiter_err t w (err : P.error) =
  (match err.P.e_code with
  | P.Deadline_exceeded ->
    t.n_deadline <- t.n_deadline + 1;
    Metrics.incr m_deadline
  | _ ->
    t.n_internal <- t.n_internal + 1;
    Metrics.incr m_internal);
  observe_latency w;
  match find_conn t w.w_cid with
  | None -> ()
  | Some c -> send_response t c { P.s_id = w.w_rid; s_result = Error err }

(* ---------------- response cache ---------------- *)

let cache_add t key payload =
  if not (Hashtbl.mem t.cache key) then begin
    if Hashtbl.length t.cache >= cache_cap then begin
      match Queue.take_opt t.cache_order with
      | Some old -> Hashtbl.remove t.cache old
      | None -> ()
    end;
    Hashtbl.replace t.cache key payload;
    Queue.add key t.cache_order
  end

(* ---------------- stats verb ---------------- *)

let round3 f = Float.round (f *. 1000.0) /. 1000.0

let stats_payload t =
  J.Obj
    [
      ("uptime_seconds", J.Float (round3 (Unix.gettimeofday () -. t.started)));
      ("workers", J.Int t.cfg.workers);
      ("queue_limit", J.Int t.cfg.queue_depth);
      ("queue_depth", J.Int (Queue.length t.queue));
      ("in_flight", J.Int t.inflight_n);
      ("connections", J.Int (List.length t.conns));
      ("received", J.Int t.n_received);
      ("enqueued", J.Int t.n_enqueued);
      ("completed", J.Int t.n_completed);
      ("cache_hits", J.Int t.n_cache_hits);
      ("coalesced", J.Int t.n_coalesced);
      ("rejected_overloaded", J.Int t.n_rejected);
      ("deadline_exceeded", J.Int t.n_deadline);
      ("internal_errors", J.Int t.n_internal);
      ("protocol_errors", J.Int t.n_protocol_errors);
      ("cache_entries", J.Int (Hashtbl.length t.cache));
      ( "store",
        match t.cfg.store with
        | None -> J.Null
        | Some s ->
          J.Obj
            [
              ("hits", J.Int (Gpr_engine.Store.hits s));
              ("misses", J.Int (Gpr_engine.Store.misses s));
            ] );
      ("metrics", Metrics.to_json ());
    ]

(* ---------------- request admission ---------------- *)

let handle_request t c (req : P.request) =
  t.n_received <- t.n_received + 1;
  Metrics.incr m_received;
  if req.P.q_verb = "stats" then
    send_response t c { P.s_id = req.P.q_id; s_result = Ok (stats_payload t) }
  else if Atomic.get t.stop_flag then
    respond_err t c req.P.q_id P.Shutting_down "daemon is draining"
  else if req.P.q_verb = "sleep" && not t.cfg.debug_sleep then
    respond_err t c req.P.q_id P.Bad_request
      "the sleep verb is disabled (start the server with debug_sleep)"
  else
    match Work.resolve req with
    | Error e -> respond_err t c req.P.q_id e.P.e_code e.P.e_message
    | Ok Work.Ping ->
      send_response t c
        { P.s_id = req.P.q_id; s_result = Ok (Work.run Work.Ping) }
    | Ok work ->
      let key =
        Work.key work ^ if req.P.q_tag = "" then "" else "#" ^ req.P.q_tag
      in
      let now = Unix.gettimeofday () in
      let deadline_ms =
        Option.value req.P.q_deadline_ms ~default:t.cfg.default_deadline_ms
      in
      let w =
        {
          w_cid = c.cid;
          w_rid = req.P.q_id;
          w_deadline = now +. (float_of_int deadline_ms /. 1000.0);
          w_arrival = now;
        }
      in
      let cacheable = Work.cacheable work in
      let cached = if cacheable then Hashtbl.find_opt t.cache key else None in
      (match cached with
      | Some payload ->
        t.n_cache_hits <- t.n_cache_hits + 1;
        Metrics.incr m_cache_hits;
        respond_waiter_ok t w payload
      | None -> (
        let join (e : entry) =
          e.e_waiters <- w :: e.e_waiters;
          t.n_coalesced <- t.n_coalesced + 1;
          Metrics.incr m_coalesced
        in
        match Hashtbl.find_opt t.inflight key with
        | Some e -> join e
        | None -> (
          match Hashtbl.find_opt t.queued_keys key with
          | Some e -> join e
          | None ->
            if Queue.length t.queue >= t.cfg.queue_depth then begin
              t.n_rejected <- t.n_rejected + 1;
              Metrics.incr m_rejected;
              respond_err t c req.P.q_id P.Overloaded
                (Printf.sprintf "request queue full (depth %d)"
                   t.cfg.queue_depth)
            end
            else begin
              let e =
                { e_key = key; e_work = work; e_cacheable = cacheable;
                  e_waiters = [ w ] }
              in
              Queue.add e t.queue;
              Hashtbl.replace t.queued_keys key e;
              t.n_enqueued <- t.n_enqueued + 1;
              Metrics.incr m_enqueued;
              Metrics.observe h_qdepth (Queue.length t.queue)
            end)))

let handle_frame t c frame =
  match J.parse frame with
  | Error e ->
    t.n_protocol_errors <- t.n_protocol_errors + 1;
    respond_err t c 0 P.Parse_error e
  | Ok j -> (
    match P.request_of_json j with
    | Error m ->
      t.n_protocol_errors <- t.n_protocol_errors + 1;
      let rid = match J.member "id" j with Some (J.Int n) when n > 0 -> n | _ -> 0 in
      respond_err t c rid P.Bad_request m
    | Ok req -> handle_request t c req)

(* ---------------- queue machinery ---------------- *)

let expire_entry_waiters t now (e : entry) =
  let live, dead =
    List.partition (fun w -> w.w_deadline >= now) e.e_waiters
  in
  if dead <> [] then begin
    List.iter
      (fun w ->
        respond_waiter_err t w
          { P.e_code = P.Deadline_exceeded;
            e_message = "deadline expired while queued" })
      dead;
    e.e_waiters <- live
  end

let expire_queue t =
  let now = Unix.gettimeofday () in
  let had_waiters = Queue.fold (fun acc e -> acc + List.length e.e_waiters) 0 t.queue in
  Queue.iter (expire_entry_waiters t now) t.queue;
  let still = Queue.fold (fun acc e -> acc + List.length e.e_waiters) 0 t.queue in
  if still < had_waiters then begin
    (* Drop entries whose waiters all expired. *)
    let keep =
      Queue.fold
        (fun acc e ->
          if e.e_waiters = [] then begin
            Hashtbl.remove t.queued_keys e.e_key;
            acc
          end
          else e :: acc)
        [] t.queue
    in
    Queue.clear t.queue;
    List.iter (fun e -> Queue.add e t.queue) (List.rev keep)
  end

let submit_entry t (e : entry) =
  Hashtbl.replace t.inflight e.e_key e;
  t.inflight_n <- t.inflight_n + 1;
  let deadline =
    List.fold_left (fun a w -> Float.max a w.w_deadline) neg_infinity
      e.e_waiters
  in
  let key = e.e_key and work = e.e_work in
  ignore
    (Pool.submit t.pool (fun () ->
         let check () =
           if Unix.gettimeofday () > deadline then raise Work.Deadline
         in
         let r =
           try Ok (Work.run ~check work) with
           | Work.Deadline ->
             Error
               { P.e_code = P.Deadline_exceeded;
                 e_message = "deadline expired mid-pipeline" }
           | exn ->
             Error { P.e_code = P.Internal; e_message = Printexc.to_string exn }
         in
         Mutex.lock t.comp_m;
         Queue.add (key, r) t.completions;
         Mutex.unlock t.comp_m;
         wake t))

let dispatch t =
  while t.inflight_n < t.cfg.workers && not (Queue.is_empty t.queue) do
    let e = Queue.pop t.queue in
    Hashtbl.remove t.queued_keys e.e_key;
    (* Deadline enforcement at dequeue: anyone already expired is
       answered here without costing a worker. *)
    expire_entry_waiters t (Unix.gettimeofday ()) e;
    if e.e_waiters <> [] then submit_entry t e
  done

let drain_completions t =
  let batch =
    Mutex.lock t.comp_m;
    let xs = List.of_seq (Queue.to_seq t.completions) in
    Queue.clear t.completions;
    Mutex.unlock t.comp_m;
    xs
  in
  List.iter
    (fun (key, r) ->
      match Hashtbl.find_opt t.inflight key with
      | None -> ()
      | Some e ->
        Hashtbl.remove t.inflight key;
        t.inflight_n <- t.inflight_n - 1;
        (match r with
        | Ok payload ->
          if e.e_cacheable then cache_add t key payload;
          List.iter (fun w -> respond_waiter_ok t w payload) e.e_waiters
        | Error err ->
          List.iter (fun w -> respond_waiter_err t w err) e.e_waiters))
    batch

(* ---------------- sockets ---------------- *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let open_listener t path =
  (if Sys.file_exists path then
     match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> unlink_quiet path
     | _ ->
       invalid_arg
         (Printf.sprintf "gpr serve: %s exists and is not a socket" path));
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  t.listen_fd <- Some fd;
  t.socket_path <- Some path

let close_listener t =
  match t.listen_fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.listen_fd <- None;
    (match t.socket_path with
    | Some p -> unlink_quiet p
    | None -> ())

let new_conn t fd =
  Unix.set_nonblock fd;
  t.next_cid <- t.next_cid + 1;
  let c =
    {
      fd;
      cid = t.next_cid;
      dec = P.decoder ~max_bytes:t.cfg.max_frame_bytes;
      outq = Queue.create ();
      out_off = 0;
      closing = false;
      alive = true;
    }
  in
  t.conns <- c :: t.conns

let adopt_pending t =
  let fds =
    Mutex.lock t.adopt_m;
    let fds = t.adopt_fds in
    t.adopt_fds <- [];
    Mutex.unlock t.adopt_m;
    fds
  in
  List.iter (new_conn t) (List.rev fds)

let accept_all t fd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true fd with
    | cfd, _ -> new_conn t cfd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

let read_conn t c =
  let chunk = Bytes.create 8192 in
  let rec frames () =
    match P.next c.dec with
    | `Frame f ->
      handle_frame t c f;
      frames ()
    | `Await -> ()
    | `Oversized n ->
      (* The length prefix cannot be resynchronised; answer and close. *)
      t.n_protocol_errors <- t.n_protocol_errors + 1;
      respond_err t c 0 P.Oversized_frame
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
           t.cfg.max_frame_bytes);
      c.closing <- true
  in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.alive <- false
  | n ->
    P.feed c.dec chunk n;
    frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> c.alive <- false

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let prune_conns t =
  let close c =
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let keep, drop =
    List.partition
      (fun c -> c.alive && not (c.closing && conn_flushed c))
      t.conns
  in
  List.iter close drop;
  t.conns <- keep

(* ---------------- main loop ---------------- *)

let nearest_queue_deadline t =
  Queue.fold
    (fun acc e ->
      List.fold_left (fun a w -> Float.min a w.w_deadline) acc e.e_waiters)
    infinity t.queue

let drained t =
  Atomic.get t.stop_flag
  && Queue.is_empty t.queue && t.inflight_n = 0
  && (Mutex.lock t.comp_m;
      let e = Queue.is_empty t.completions in
      Mutex.unlock t.comp_m;
      e)
  && List.for_all (fun c -> (not c.alive) || conn_flushed c) t.conns

let rec loop t =
  adopt_pending t;
  drain_completions t;
  expire_queue t;
  dispatch t;
  if Atomic.get t.stop_flag then close_listener t;
  prune_conns t;
  if drained t then ()
  else begin
    let now = Unix.gettimeofday () in
    let timeout =
      let dl = nearest_queue_deadline t in
      if dl = infinity then 0.2 else Float.max 0.001 (Float.min 0.2 (dl -. now))
    in
    let rd =
      (t.wake_r :: Option.to_list t.listen_fd)
      @ List.filter_map
          (fun c -> if c.alive && not c.closing then Some c.fd else None)
          t.conns
    in
    let wr =
      List.filter_map
        (fun c -> if c.alive && not (conn_flushed c) then Some c.fd else None)
        t.conns
    in
    (match Unix.select rd wr [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, ws, _ ->
      List.iter
        (fun fd ->
          if fd = t.wake_r then drain_wake t
          else if Some fd = t.listen_fd then accept_all t fd
          else
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | Some c when c.alive -> read_conn t c
            | _ -> ())
        rs;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | Some c -> try_flush c
          | None -> ())
        ws);
    loop t
  end

let run ?socket t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match socket with Some path -> open_listener t path | None -> ());
  Fun.protect
    ~finally:(fun () ->
      close_listener t;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        t.conns;
      t.conns <- [];
      Pool.shutdown t.pool;
      (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
      try Unix.close t.wake_w with Unix.Unix_error _ -> ())
    (fun () -> loop t)
