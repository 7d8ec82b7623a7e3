(* Serve daemon: protocol codec, admission control, deadlines,
   coalescing and the one-request/one-response contract, all over real
   socketpairs against a live server (no TCP, no filesystem socket). *)

module P = Gpr_serve.Protocol
module Server = Gpr_serve.Server
module Client = Gpr_serve.Client
module Work = Gpr_serve.Work
module J = Gpr_obs.Json

let default = Server.default_config

(* Run [f] against a live server; [conn ()] hands back a fresh client
   on a socketpair adopted by the IO loop. *)
let with_server ?(cfg = default) f =
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run t) in
  let clients = ref [] in
  let conn () =
    let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Server.attach t b;
    let c = Client.of_fd a in
    clients := c :: !clients;
    c
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d;
      List.iter Client.close !clients)
    (fun () -> f t conn)

let call c req =
  match Client.call ~timeout_s:30.0 c req with
  | Ok r -> r
  | Error m -> Alcotest.failf "call id %d: %s" req.P.q_id m

let code = Alcotest.testable
    (Fmt.of_to_string P.code_to_string) ( = )

let check_error name expected (r : P.response) =
  match r.P.s_result with
  | Ok _ -> Alcotest.failf "%s: expected %s, got success" name
              (P.code_to_string expected)
  | Error e -> Alcotest.check code name expected e.P.e_code

(* ---------------- codec ---------------- *)

let test_codec_roundtrip () =
  let req =
    P.request ~id:7 ~kernel:"Hotspot" ~backend:"slice" ~deadline_ms:250
      ~tag:"salt" "estimate"
  in
  match P.request_of_json (P.request_to_json req) with
  | Error e -> Alcotest.fail e
  | Ok req' ->
    Alcotest.(check bool) "request round-trips" true (req = req');
    let resp = { P.s_id = 7; s_result = Ok (J.Obj [ ("x", J.Int 1) ]) } in
    (match P.response_of_json (P.response_to_json resp) with
     | Error e -> Alcotest.fail e
     | Ok r -> Alcotest.(check bool) "response round-trips" true (r = resp));
    let err =
      { P.s_id = 9;
        s_result = Error { P.e_code = P.Overloaded; e_message = "full" } }
    in
    (match P.response_of_json (P.response_to_json err) with
     | Error e -> Alcotest.fail e
     | Ok r -> Alcotest.(check bool) "error round-trips" true (r = err))

let test_decoder_split_frames () =
  (* Two frames delivered one byte at a time decode to exactly two
     payloads. *)
  let f1 = J.to_string (J.Obj [ ("a", J.Int 1) ]) in
  let f2 = J.to_string (J.Obj [ ("b", J.Int 2) ]) in
  let wire =
    Bytes.cat (P.encode_frame f1) (P.encode_frame f2) |> Bytes.to_string
  in
  let d = P.decoder ~max_bytes:1024 in
  let got = ref [] in
  String.iter
    (fun ch ->
      P.feed d (Bytes.make 1 ch) 1;
      let rec drain () =
        match P.next d with
        | `Frame f -> got := f :: !got; drain ()
        | `Await -> ()
        | `Oversized _ -> Alcotest.fail "spurious oversized"
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "both frames" [ f1; f2 ] (List.rev !got)

(* ---------------- round-trip ---------------- *)

let test_roundtrip () =
  with_server ~cfg:{ default with Server.workers = 1 } @@ fun _t conn ->
  let c = conn () in
  let r = call c (P.request ~id:1 "ping") in
  Alcotest.(check int) "id echoed" 1 r.P.s_id;
  (match r.P.s_result with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "ping failed: %s" e.P.e_message);
  (* A real pipeline verb, byte-identical to the in-process run. *)
  let r = call c (P.request ~id:2 ~kernel:"Hotspot" "plan") in
  (match r.P.s_result with
   | Error e -> Alcotest.failf "plan failed: %s" e.P.e_message
   | Ok served ->
     let local =
       match Work.resolve (P.request ~id:2 ~kernel:"Hotspot" "plan") with
       | Ok w -> Work.run w
       | Error e -> Alcotest.failf "resolve: %s" e.P.e_message
     in
     Alcotest.(check string) "served payload byte-identical"
       (J.to_string local) (J.to_string served));
  (* Cached repeat is the same bytes again. *)
  let r2 = call c (P.request ~id:3 ~kernel:"Hotspot" "plan") in
  (match (r.P.s_result, r2.P.s_result) with
   | Ok a, Ok b ->
     Alcotest.(check string) "cache serves identical bytes"
       (J.to_string a) (J.to_string b)
   | _ -> Alcotest.fail "cached repeat failed");
  let r = call c (P.request ~id:4 "stats") in
  (match r.P.s_result with
   | Error e -> Alcotest.failf "stats failed: %s" e.P.e_message
   | Ok j ->
     Alcotest.(check bool) "stats counts the cache hit" true
       (match J.member "cache_hits" j with
        | Some (J.Int n) -> n >= 1
        | _ -> false))

(* ---------------- unknown names (typed, never raising) ---------------- *)

let test_unknown_names () =
  with_server ~cfg:{ default with Server.workers = 1 } @@ fun _t conn ->
  let c = conn () in
  let r = call c (P.request ~id:1 ~kernel:"no-such-kernel" "estimate") in
  check_error "unknown kernel" P.Unknown_kernel r;
  (match r.P.s_result with
   | Error e ->
     Alcotest.(check bool) "message carries the gpr list hint" true
       (let needle = "try `gpr list`" in
        let hay = e.P.e_message in
        let n = String.length needle in
        let rec scan i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || scan (i + 1))
        in
        scan 0)
   | Ok _ -> ());
  let r =
    call c (P.request ~id:2 ~kernel:"Hotspot" ~backend:"no-such" "estimate")
  in
  check_error "unknown backend" P.Unknown_backend r;
  let r = call c (P.request ~id:3 "frobnicate") in
  check_error "unknown verb" P.Bad_request r

let contains hay needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1))
  in
  scan 0

(* The colocate twins of the CLI's exit-1 hints, checked at the resolve
   layer (no simulation runs on these paths). *)
let test_colocate_unknown_names () =
  let expect_err what code needle req =
    match Work.resolve req with
    | Ok _ -> Alcotest.failf "%s: resolved instead of failing" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": code") true (e.P.e_code = code);
      Alcotest.(check bool)
        (what ^ ": message carries the hint")
        true
        (contains e.P.e_message needle)
  in
  expect_err "unknown kernel-set member" P.Unknown_kernel "try `gpr list`"
    (P.request ~id:1 ~kernel:"Hotspot,no-such-kernel" "colocate");
  expect_err "unknown policy" P.Bad_request "--policy fifo|rr|binpack"
    (P.request ~id:2 ~kernel:"Hotspot,DWT2D" ~policy:"sjf" "colocate");
  expect_err "unknown backend" P.Unknown_backend "available"
    (P.request ~id:3 ~kernel:"Hotspot,DWT2D" ~backend:"no-such" "colocate");
  expect_err "missing kernel set" P.Bad_request "kernel"
    (P.request ~id:4 "colocate");
  match
    Work.resolve
      (P.request ~id:5 ~kernel:"Hotspot, DWT2D" ~policy:"FIFO" "colocate")
  with
  | Ok (Work.Colocate (ws, _, p)) ->
    let module PM = (val p : Gpr_sim.Sim_multi.POLICY) in
    Alcotest.(check (list string))
      "set parses with spaces, policy case-insensitively"
      [ "Hotspot"; "DWT2D" ]
      (List.map (fun (w : Gpr_workloads.Workload.t) -> w.name) ws);
    Alcotest.(check string) "policy id" "fifo" PM.id
  | Ok _ -> Alcotest.fail "resolved to the wrong work item"
  | Error e -> Alcotest.failf "valid colocate rejected: %s" e.P.e_message

(* ---------------- malformed input ---------------- *)

let test_malformed_json () =
  with_server ~cfg:{ default with Server.workers = 1 } @@ fun _t conn ->
  let c = conn () in
  Client.send_raw c "{this is not json";
  (match Client.recv ~timeout_s:30.0 c with
   | `Response r ->
     Alcotest.(check int) "parse errors use the reserved id 0" 0 r.P.s_id;
     check_error "parse error" P.Parse_error r
   | _ -> Alcotest.fail "no response to malformed JSON");
  (* The connection survives a parse error. *)
  let r = call c (P.request ~id:5 "ping") in
  Alcotest.(check int) "connection still usable" 5 r.P.s_id

let test_oversized_frame () =
  with_server
    ~cfg:{ default with Server.workers = 1; max_frame_bytes = 512 }
  @@ fun _t conn ->
  let c = conn () in
  Client.send_raw c (String.make 4096 'x');
  (match Client.recv ~timeout_s:30.0 c with
   | `Response r ->
     Alcotest.(check int) "oversized uses the reserved id 0" 0 r.P.s_id;
     check_error "oversized frame" P.Oversized_frame r
   | _ -> Alcotest.fail "no response to oversized frame");
  (* The length prefix can no longer be trusted: server closes. *)
  (match Client.recv ~timeout_s:30.0 c with
   | `Eof -> ()
   | `Response _ -> Alcotest.fail "expected close after oversized frame"
   | `Timeout -> Alcotest.fail "server kept the poisoned connection open"
   | `Bad m -> Alcotest.fail m)

(* ---------------- deadlines ---------------- *)

let test_deadline_expiry () =
  with_server ~cfg:{ default with Server.workers = 1 } @@ fun t conn ->
  let c = conn () in
  let r =
    call c (P.request ~id:1 ~kernel:"Hotspot" ~deadline_ms:0 "estimate")
  in
  check_error "already-expired deadline" P.Deadline_exceeded r;
  Alcotest.(check bool) "counted" true (Server.deadline_expired t >= 1);
  (* The same request with a sane deadline still works afterwards. *)
  let r =
    call c (P.request ~id:2 ~kernel:"Hotspot" ~deadline_ms:60_000 "estimate")
  in
  (match r.P.s_result with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "follow-up failed: %s" e.P.e_message)

(* ---------------- admission control ---------------- *)

let test_queue_overflow () =
  with_server
    ~cfg:{ default with Server.workers = 1; queue_depth = 1;
                        debug_sleep = true }
  @@ fun t conn ->
  let c = conn () in
  (* Occupy the single worker... *)
  Client.send c (P.request ~id:1 ~sleep_ms:400 "sleep");
  Unix.sleepf 0.1;
  (* ...fill the queue (distinct sleep -> distinct key)... *)
  Client.send c (P.request ~id:2 ~sleep_ms:350 "sleep");
  Unix.sleepf 0.1;
  (* ...and overflow it. *)
  Client.send c (P.request ~id:3 ~sleep_ms:300 "sleep");
  let got = Hashtbl.create 4 in
  for _ = 1 to 3 do
    match Client.recv ~timeout_s:30.0 c with
    | `Response r -> Hashtbl.replace got r.P.s_id r
    | other ->
      Alcotest.failf "lost a response (%s)"
        (match other with
         | `Eof -> "eof" | `Timeout -> "timeout" | `Bad m -> m
         | `Response _ -> assert false)
  done;
  let find id =
    match Hashtbl.find_opt got id with
    | Some r -> r
    | None -> Alcotest.failf "no response for id %d" id
  in
  check_error "third request rejected" P.Overloaded (find 3);
  (match (find 1).P.s_result, (find 2).P.s_result with
   | Ok _, Ok _ -> ()
   | _ -> Alcotest.fail "admitted requests must still complete");
  Alcotest.(check int) "reject counted" 1 (Server.rejected_overloaded t)

(* ---------------- coalescing ---------------- *)

let test_duplicate_coalescing () =
  with_server
    ~cfg:{ default with Server.workers = 1; debug_sleep = true }
  @@ fun t conn ->
  let a = conn () and b = conn () in
  (* Same key from two connections while the work is in flight: one
     execution, two responses. *)
  Client.send a (P.request ~id:10 ~sleep_ms:300 "sleep");
  Unix.sleepf 0.05;
  Client.send b (P.request ~id:20 ~sleep_ms:300 "sleep");
  let ra =
    match Client.recv ~timeout_s:30.0 a with
    | `Response r -> r
    | _ -> Alcotest.fail "client a lost its response"
  in
  let rb =
    match Client.recv ~timeout_s:30.0 b with
    | `Response r -> r
    | _ -> Alcotest.fail "client b lost its response"
  in
  Alcotest.(check int) "a keeps its id" 10 ra.P.s_id;
  Alcotest.(check int) "b keeps its id" 20 rb.P.s_id;
  (match ra.P.s_result, rb.P.s_result with
   | Ok ja, Ok jb ->
     Alcotest.(check string) "identical payloads"
       (J.to_string ja) (J.to_string jb)
   | _ -> Alcotest.fail "coalesced requests must both succeed");
  Alcotest.(check int) "one coalesce counted" 1 (Server.coalesced t);
  (* Different tag -> different key -> no coalescing with the cacheable
     path either. *)
  let r1 = call a (P.request ~id:11 ~kernel:"Hotspot" ~tag:"x" "lint") in
  let r2 = call b (P.request ~id:21 ~kernel:"Hotspot" ~tag:"y" "lint") in
  (match r1.P.s_result, r2.P.s_result with
   | Ok ja, Ok jb ->
     (* Same kernel, so same bytes — but via two executions (the tag
        salts the key); the coalesce counter must not move. *)
     Alcotest.(check string) "tag changes key, not payload"
       (J.to_string ja) (J.to_string jb)
   | _ -> Alcotest.fail "lint failed");
  Alcotest.(check int) "tags prevented coalescing" 1 (Server.coalesced t)

(* ---------------- partial writes ---------------- *)

(* A pipelined burst whose responses overflow small socket buffers:
   while the client holds off reading, the server's writes go partial
   (each ~20 KB frame is more than the socket takes at once), and every
   frame must still arrive whole, byte-exact and in request order.  An
   unknown kernel name is echoed in its error, which makes the frames
   large; resolution errors are answered in arrival order. *)
let test_pipelined_partial_writes () =
  with_server ~cfg:{ default with Server.workers = 1 } @@ fun t _conn ->
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  Unix.setsockopt_int b Unix.SO_SNDBUF 4096;
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 30.0;
  Server.attach t b;
  let req id = P.request ~id ~kernel:(String.make 20_000 'k') "estimate" in
  let frame id =
    match Work.resolve (req id) with
    | Ok _ -> Alcotest.fail "an unknown kernel resolved"
    | Error e ->
      Bytes.to_string
        (P.encode_frame
           (J.to_string
              (P.response_to_json { P.s_id = id; s_result = Error e })))
  in
  let read_exact n =
    let buf = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read a buf off (n - off) with
        | 0 -> Alcotest.failf "server closed after %d of %d bytes" off n
        | k -> go (off + k)
    in
    go 0;
    Bytes.to_string buf
  in
  let burst = List.init 32 (fun i -> i + 1) in
  List.iter
    (fun id -> P.write_frame a (J.to_string (P.request_to_json (req id))))
    burst;
  Unix.sleepf 0.2;
  List.iter
    (fun id ->
      let want = frame id in
      Alcotest.(check string)
        (Printf.sprintf "frame %d" id)
        want
        (read_exact (String.length want)))
    burst

(* ---------------- property: one response per request ---------------- *)

let arb_request =
  let open QCheck in
  let gen =
    Gen.(
      let* id = int_range 1 10_000 in
      let* verb =
        oneofl [ "ping"; "stats"; "plan"; "lint"; "estimate"; "profile";
                 "colocate"; "sleep"; "bogus"; "" ]
      in
      let* kernel = oneofl [ None; Some "Hotspot"; Some "nope";
                             Some "Hotspot,nope" ] in
      let* backend = oneofl [ None; Some "slice"; Some "baseline";
                              Some "wat" ] in
      let* policy = oneofl [ None; Some "fifo"; Some "sjf" ] in
      let* tag = oneofl [ ""; "t1" ] in
      let* deadline_ms = oneofl [ None; Some 60_000 ] in
      return
        { P.q_id = id; q_verb = verb; q_kernel = kernel; q_source = None;
          q_block = 256; q_grid = 16; q_backend = backend; q_policy = policy;
          q_deadline_ms = deadline_ms; q_sleep_ms = 0; q_tag = tag })
  in
  QCheck.make gen
    ~print:(fun r -> J.to_string (P.request_to_json r))

let test_one_response_property () =
  (* One live server for the whole campaign; every well-formed request
     must produce exactly one well-formed response carrying its id —
     success or typed error, never silence, never a raise.  Any extra
     or missing response desynchronises the id check on the next
     iteration. *)
  with_server ~cfg:{ default with Server.workers = 2 } @@ fun _t conn ->
  let c = conn () in
  let prop req =
    let r = call c req in
    r.P.s_id = req.P.q_id
    && (match r.P.s_result with
        | Ok _ -> true
        | Error e -> String.length e.P.e_message > 0)
  in
  let cell = QCheck.Test.make_cell ~count:40 ~name:"one response" arb_request prop in
  (match QCheck.Test.check_cell_exn cell with
   | () -> ()
   | exception QCheck.Test.Test_fail (_, l) ->
     Alcotest.failf "counterexample: %s" (String.concat "; " l));
  (* Nothing left over on the wire. *)
  match Client.recv ~timeout_s:0.2 c with
  | `Timeout -> ()
  | `Response r ->
    Alcotest.failf "stray response for id %d" r.P.s_id
  | `Eof -> Alcotest.fail "server closed a healthy connection"
  | `Bad m -> Alcotest.fail m

(* ---------------- graceful shutdown ---------------- *)

let test_stop_drains () =
  let cfg = { default with Server.workers = 1; debug_sleep = true } in
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run t) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.attach t b;
  let c = Client.of_fd a in
  Client.send c (P.request ~id:1 ~sleep_ms:300 "sleep");
  Unix.sleepf 0.1;
  (* Stop while the sleep is in flight: it must still be answered. *)
  Server.stop t;
  (match Client.recv ~timeout_s:30.0 c with
   | `Response r ->
     Alcotest.(check int) "in-flight work answered across stop" 1 r.P.s_id;
     (match r.P.s_result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "in-flight failed: %s" e.P.e_message)
   | _ -> Alcotest.fail "in-flight response lost on shutdown");
  Domain.join d;
  Client.close c

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "split frames" `Quick test_decoder_split_frames;
        ] );
      ( "server",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "unknown names" `Quick test_unknown_names;
          Alcotest.test_case "colocate unknown names" `Quick
            test_colocate_unknown_names;
          Alcotest.test_case "malformed JSON" `Quick test_malformed_json;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
          Alcotest.test_case "duplicate coalescing" `Quick
            test_duplicate_coalescing;
          Alcotest.test_case "stop drains in-flight" `Quick test_stop_drains;
          Alcotest.test_case "pipelined partial writes" `Quick
            test_pipelined_partial_writes;
        ] );
      ( "property",
        [
          Alcotest.test_case "one well-formed response" `Quick
            test_one_response_property;
        ] );
    ]
