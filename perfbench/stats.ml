let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))
let min_beyond = 10

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = percentile (sorted_copy a) 0.5

let central_p50 a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.central_p50: empty sample";
  let rank p = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  let lo = rank 0.45 and hi = rank 0.55 in
  let sum = ref 0.0 in
  for r = lo to hi do
    sum := !sum +. s.(r - 1)
  done;
  !sum /. float_of_int (hi - lo + 1)

let window = 1000

let windowed_p99 a =
  let n = Array.length a in
  let k = max 1 (n / window) in
  let p99s =
    Array.init k (fun w ->
        let lo = w * (n / k) in
        let hi = if w = k - 1 then n else lo + (n / k) in
        percentile (sorted_copy (Array.sub a lo (hi - lo))) 0.99)
  in
  (median p99s, k)

type summary = {
  n : int;
  p50 : float;
  p99 : float;
  windows : int;
  p99_beyond : int;
}

let summarize a =
  let n = Array.length a in
  let p99, windows = windowed_p99 a in
  {
    n;
    p50 = central_p50 a;
    p99;
    windows;
    p99_beyond = beyond ~n:(n / windows) 0.99;
  }

let window_mean ~times ~width values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.window_mean: empty sample";
  let t0 = times.(0) in
  let sums = Hashtbl.create 64 in
  Array.iteri
    (fun i v ->
      let w = int_of_float ((times.(i) -. t0) /. width) in
      let s, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums w) in
      Hashtbl.replace sums w (s +. v, c + 1))
    values;
  let total = Hashtbl.fold (fun _ (s, c) acc -> acc +. (s /. float_of_int c)) sums 0.0 in
  total /. float_of_int (Hashtbl.length sums)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let record_failures t k = t.failed <- t.failed + k
let attempted t = t.attempted
let failed t = t.failed

let failed_share t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

let merge a b =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let due ~start ~rate i = start +. (float_of_int i /. rate)

type open_loop = { latency : float array; late : float array }

type stepper = {
  clock : unit -> float;
  rate : float;
  send : int -> unit;
  start : float;
  mutable next : int;
  latencies : float array;
  lateness : float array;
}

let stepper ~now ~rate ~n send =
  {
    clock = now;
    rate;
    send;
    start = now ();
    next = 0;
    latencies = Array.make n 0.0;
    lateness = Array.make n 0.0;
  }

let next_due s =
  if s.next >= Array.length s.latencies then None
  else Some (due ~start:s.start ~rate:s.rate s.next)

let rec step s =
  match next_due s with
  | Some d when s.clock () >= d ->
      let i = s.next in
      s.lateness.(i) <- s.clock () -. d;
      s.send i;
      s.latencies.(i) <- s.clock () -. d;
      s.next <- i + 1;
      step s
  | _ -> ()

let rec finish ~sleep_until s =
  match next_due s with
  | None -> { latency = s.latencies; late = s.lateness }
  | Some d ->
      if s.clock () < d then sleep_until d;
      step s;
      finish ~sleep_until s

type span = { parent : int; start : float; stop : float }

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans
