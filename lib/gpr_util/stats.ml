let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let geomean_ratio pcts =
  let ratios = List.map (fun p -> 1.0 +. (p /. 100.0)) pcts in
  (geomean ratios -. 1.0) *. 100.0

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. (n -. 1.0))

let min_max = function
  | [] -> (nan, nan)
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n = 1 then a.(0)
    else if Float.is_nan p then nan
    else
      (* Clamp the interpolation rank into [0, n-1]: a percentile
         outside [0, 100] saturates at the extremes instead of
         indexing out of bounds. *)
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let rank = Float.max 0.0 (Float.min rank (float_of_int (n - 1))) in
      let lo = int_of_float (floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let best_cpu_times ~rounds fs =
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Sys.time () in
        f ();
        best.(i) <- Float.min best.(i) (Sys.time () -. t0))
      fs
  done;
  best

let reference_slice () =
  let data = Array.init 4096 (fun i -> i * 2654435761 land 0xffff) in
  let st = Random.State.make [| 42 |] in
  let table = Hashtbl.create 4096 in
  for i = 1 to 30 do
    List.sort compare (List.init 200 (fun _ -> Random.State.float st 1.0))
    |> List.iteri (fun j x ->
           Hashtbl.replace table (((i * 200) + j) land 4095)
             (Float.to_int (x *. 1e6)))
  done;
  (* Four independent chains over cache-resident data: bound by issue
     width and load ports, like the cycle engines' inner loops. *)
  let a = ref 0 and b = ref 1 and c = ref 2 and d = ref 3 in
  for _ = 1 to 2400 do
    for i = 0 to 1023 do
      (* guard for the four reads: the loop bound [i <= 1023] keeps
         [4 * i + 3 <= 4095], below [data]'s length of 4096 *)
      let x = Array.unsafe_get data (4 * i) in
      let y = Array.unsafe_get data ((4 * i) + 1) in
      let z = Array.unsafe_get data ((4 * i) + 2) in
      let w = Array.unsafe_get data ((4 * i) + 3) in
      a := !a + (x lxor (y lsl 1));
      b := !b lxor (y + (z lsr 2));
      c := !c + (z land (w + 7));
      d := !d lxor (w + x)
    done
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d))
