let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type open_span = {
  name : string;
  parent : int;
  start : float;
  mutable stop : float;
}

type t = {
  origin : float;
  keep : int;
  mutable current : open_span list;  (* the open statement's spans, newest first *)
  mutable count : int;
  mutable stack : (int * open_span) list;  (* open spans, innermost first *)
  mutable statements : int;
  durations : (string, Samples.t) Hashtbl.t;
  selfs : (string, float ref) Hashtbl.t;
  retained : Buffer.t;
}

let create ~keep () =
  {
    origin = now ();
    keep;
    current = [];
    count = 0;
    stack = [];
    statements = 0;
    durations = Hashtbl.create 16;
    selfs = Hashtbl.create 16;
    retained = Buffer.create 4096;
  }

let open_span t name =
  let parent = match t.stack with (p, _) :: _ -> p | [] -> -1 in
  let s = { name; parent; start = now (); stop = nan } in
  t.current <- s :: t.current;
  t.stack <- (t.count, s) :: t.stack;
  t.count <- t.count + 1;
  s

let close_span t s =
  s.stop <- now ();
  t.stack <- List.tl t.stack

let vec_of t name =
  match Hashtbl.find_opt t.durations name with
  | Some v -> v
  | None ->
      let v = Samples.create () in
      Hashtbl.add t.durations name v;
      v

let fold_statement t =
  let opened = Array.of_list (List.rev t.current) in
  let names = Array.map (fun s -> s.name) opened in
  let spans =
    Array.map
      (fun s -> { Stats.parent = s.parent; start = s.start; stop = s.stop })
      opened
  in
  let selfs = Stats.self_times spans in
  Array.iteri
    (fun i (s : Stats.span) ->
      Samples.push (vec_of t names.(i)) (s.stop -. s.start);
      match Hashtbl.find_opt t.selfs names.(i) with
      | Some r -> r := !r +. selfs.(i)
      | None -> Hashtbl.add t.selfs names.(i) (ref selfs.(i)))
    spans;
  if t.statements < t.keep then
    Array.iteri
      (fun i (s : Stats.span) ->
        let us x = 1e6 *. (x -. t.origin) in
        Printf.bprintf t.retained "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" t.statements
          i s.parent names.(i) (us s.start) (us s.stop))
      spans;
  t.statements <- t.statements + 1;
  t.current <- [];
  t.count <- 0

let span t name f =
  let s = open_span t name in
  Fun.protect ~finally:(fun () -> close_span t s) f

let stmt t name f =
  if t.stack <> [] then invalid_arg "Spans.stmt: a statement is already open";
  Fun.protect ~finally:(fun () -> fold_statement t) (fun () -> span t name f)

let statements t = t.statements

let durations t name =
  match Hashtbl.find_opt t.durations name with
  | Some v -> Samples.to_array v
  | None -> [||]

let self_total t name =
  match Hashtbl.find_opt t.selfs name with Some r -> !r | None -> 0.0

let write t oc =
  output_string oc "stmt\tid\tparent\tname\tstart_us\tend_us\n";
  Buffer.output_buffer oc t.retained
