type 'a t = { tbl : (string, 'a) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 16; lock = Mutex.create () }

let get t key f =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) with
  | Some v -> v
  | None ->
    let v = f () in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl key v);
    v

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.tbl)
