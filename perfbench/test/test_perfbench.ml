(* The benchmark's own arithmetic: which percentile a sample supports,
   how failures are counted, open-loop latency from the due time, and
   span self time. *)

let close ?(eps = 1e-9) msg want got = Alcotest.(check (float eps)) msg want got

let test_percentile_rule () =
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  close "p50 nearest rank" 500.0 (Stats.percentile s 0.5);
  close "p99 nearest rank" 990.0 (Stats.percentile s 0.99);
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check int) "999 samples leave 9: p99 unsupported" 9
    (Stats.beyond ~n:999 0.99);
  Alcotest.(check int) "500 samples support p90" 50 (Stats.beyond ~n:500 0.9);
  Alcotest.(check int) "ten thousand support p99.9" 10 (Stats.beyond ~n:10_000 0.999);
  Alcotest.(check int) "the rule's threshold" 10 Stats.min_beyond;
  (* A burst of 100 stalls in the first of three windows sets the plain
     p99 but not the median of the windows' p99s. *)
  let burst =
    Array.init 3000 (fun i ->
        if i < 100 then 1000.0 else 1.0 +. (float_of_int (i mod 1000) /. 1000.0))
  in
  close "plain p99 follows the burst" 1000.0
    (Stats.percentile (Array.of_list (List.sort compare (Array.to_list burst))) 0.99);
  Alcotest.(check (pair (float 1e-9) int))
    "windowed p99" (1.989, 3) (Stats.windowed_p99 burst);
  Alcotest.(check (pair (float 1e-9) int))
    "one window below 2000 samples" (1000.0, 1)
    (Stats.windowed_p99 (Array.sub burst 0 1999));
  (* Two kinds of statement, 1 ms and 2 ms, half each: the median sits
     in the gap and flips with a single sample; the central mean does
     not. *)
  let mix k = Array.init 1000 (fun i -> if i < 500 + k then 1.0 else 2.0) in
  close "median below the gap" 1.0 (Stats.median (mix 1));
  close "median above the gap" 2.0 (Stats.median (mix (-1)));
  close ~eps:0.01 "central p50" 1.5 (Stats.central_p50 (mix 0));
  close ~eps:0.02 "central p50 one sample off" 1.5 (Stats.central_p50 (mix 1));
  close "central p50 of one sample" 7.0 (Stats.central_p50 [| 7.0 |]);
  let sm = Stats.summarize (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.(check int) "summary n" 1000 sm.n;
  close "summary sorts" 990.0 sm.p99;
  Alcotest.(check int) "summary beyond" 10 sm.p99_beyond;
  let sm = Stats.summarize (Array.make 2500 1.0) in
  Alcotest.(check (pair int int)) "two windows of 1250, 12 beyond each" (2, 12)
    (sm.windows, sm.p99_beyond);
  close "median leaves input alone" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

(* Fast early values crowd the first second; the per-second mean is not
   pulled toward them. *)
let test_window_mean () =
  let times = [| 0.0; 0.1; 0.2; 0.3; 1.5; 2.2 |] in
  let values = [| 1.0; 1.0; 1.0; 1.0; 4.0; 7.0 |] in
  close "per-second mean" 4.0 (Stats.window_mean ~times ~width:1.0 values);
  close "empty windows are skipped" 4.0
    (Stats.window_mean ~times:[| 10.0; 13.0 |] ~width:1.0 [| 2.0; 6.0 |])

let test_failed_share () =
  let t = Stats.tally () in
  List.iter (fun ok -> Stats.record t ~ok) [ true; false; true; false ];
  Alcotest.(check int) "attempted" 4 (Stats.attempted t);
  Alcotest.(check int) "failed" 2 (Stats.failed t);
  (* A write lost at recovery fails without a second attempt. *)
  Stats.record_failures t 1;
  Alcotest.(check int) "attempted unchanged" 4 (Stats.attempted t);
  close "share" 0.75 (Stats.failed_share t);
  let m = Stats.merge t (Stats.tally ()) in
  Alcotest.(check int) "merge keeps counts" 3 (Stats.failed m);
  close "empty tally" 0.0 (Stats.failed_share (Stats.tally ()))

(* A fake clock: statement 1 stalls for 35 ms on a 10 ms schedule, so
   statements 2-4 are sent late and their latency counts the wait. *)
let test_open_loop () =
  let clock = ref 100.0 in
  let sent = ref [] in
  let st =
    Stats.stepper
      ~now:(fun () -> !clock)
      ~rate:100.0 ~n:6
      (fun i ->
        sent := (i, !clock) :: !sent;
        clock := !clock +. if i = 1 then 0.035 else 0.001)
  in
  Stats.step st;
  Alcotest.(check (list int)) "step sends only what is due" [ 0 ] (List.map fst !sent);
  Alcotest.(check (option (float 1e-9))) "next due" (Some 100.01) (Stats.next_due st);
  let r = Stats.finish ~sleep_until:(fun t -> clock := t) st in
  Alcotest.(check (option (float 1e-9))) "all sent" None (Stats.next_due st);
  close "due time" 100.03 (Stats.due ~start:100.0 ~rate:100.0 3);
  let ms a = Array.map (fun x -> Float.round (x *. 1e4) /. 10.0) a in
  Alcotest.(check (array (float 1e-9)))
    "latency from due" [| 1.0; 35.0; 26.0; 17.0; 8.0; 1.0 |] (ms r.latency);
  Alcotest.(check (array (float 1e-9)))
    "lateness" [| 0.0; 0.0; 25.0; 16.0; 7.0; 0.0 |] (ms r.late);
  Alcotest.(check (float 1e-9))
    "an on-time statement waits for its due time" 100.05
    (List.assoc 5 !sent)

let test_self_time () =
  let sp parent start stop = { Stats.parent; start; stop } in
  (* root 0..10 with children 1..3 and 2..5 (overlapping: 4 covered) and
     6..12 (clipped to 6..10: 4 covered); child 1 has a grandchild that
     only its own self time loses. *)
  let spans =
    [| sp (-1) 0.0 10.0; sp 0 1.0 3.0; sp 0 2.0 5.0; sp 0 6.0 12.0; sp 1 1.5 2.0 |]
  in
  let self = Stats.self_times spans in
  close "root" 2.0 self.(0);
  close "child with grandchild" 1.5 self.(1);
  close "leaf" 3.0 self.(2);
  close "leaf past its parent" 6.0 self.(3);
  close "grandchild" 0.5 self.(4)

let test_spans_recorder () =
  let r = Spans.create ~keep:1 () in
  let v =
    Spans.stmt r "stmt" (fun () ->
        Spans.span r "a" (fun () -> ()) ;
        Spans.span r "b" (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  (try Spans.stmt r "stmt" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "a raising statement still closes" 2 (Spans.statements r);
  Alcotest.(check int) "one span per name per statement" 1
    (Array.length (Spans.durations r "a"));
  let wall = Array.fold_left ( +. ) 0.0 (Spans.durations r "stmt") in
  let selfs = Spans.self_total r "stmt" +. Spans.self_total r "a" +. Spans.self_total r "b" in
  close ~eps:1e-9 "self times add up to the statements' wall time" wall selfs

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "per-second mean" `Quick test_window_mean;
          Alcotest.test_case "failed share" `Quick test_failed_share;
          Alcotest.test_case "open loop from due time" `Quick test_open_loop;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_spans_recorder;
        ] );
    ]
