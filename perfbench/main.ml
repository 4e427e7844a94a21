(* The repository's benchmark: three workloads driven through
   [Tdb_session.Session], the path the CLI uses.  See README.md in this
   directory for what each workload is for and which layer metric should
   move which end-to-end metric.

   A run with [--trace 0] prints the end-to-end metrics; a run with
   [--trace 1] prints the per-layer metrics, timing the benchmark's own
   calls into each layer.  The last line of standard output is the JSON
   result; the exit code is nonzero when any statement failed, returned
   wrong rows, or an acknowledged write was lost. *)

module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Session = Tdb_session.Session
module Db_instance = Tdb_session.Db_instance
module Parser = Tdb_tquel.Parser
module Semck = Tdb_tquel.Semck
module Ast = Tdb_tquel.Ast
module Executor = Tdb_query.Executor
module Metric = Tdb_obs.Metric
module Trace = Tdb_obs.Trace
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Disk = Tdb_storage.Disk
module Crc32 = Tdb_storage.Crc32
module Cursor = Tdb_storage.Cursor
module Page = Tdb_storage.Page
module Time_fence = Tdb_storage.Time_fence
module Value = Tdb_relation.Value

let now = Spans.now

(* ---------- command line ---------- *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let workloads = [ "probe_fresh"; "history_scan"; "update_mix" ]

let usage =
  "usage: perfbench/run.sh --workload probe_fresh|history_scan|update_mix \
   --seed N --seconds S --trace 0|1"

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail_usage (Printf.sprintf "%s wants an integer, got %S" flag v)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest ->
        if not (List.mem v workloads) then
          fail_usage (Printf.sprintf "unknown workload %S" v);
        go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then fail_usage "--seconds must be at least 1";
        go { a with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | flag :: _ -> fail_usage (Printf.sprintf "unknown or incomplete flag %S" flag)
  in
  let a =
    go { workload = ""; seed = 1; seconds = 20; trace = false } (List.tl argv)
  in
  if a.workload = "" then fail_usage "--workload is required";
  a

(* ---------- constants ---------- *)

(* The paper's tuple: id, amount, seq (i4 each) and a c96 string.  User
   bytes are counted as these 108 data bytes per tuple a statement
   writes; the time attributes are the system's overhead. *)
let user_bytes_per_tuple = 108
let write_rate = 250.0

(* Read-only workloads spend this share of the run on reads, the rest on
   an open-loop write tail (see README.md). *)
let read_share = 0.8
let setup_reps = function "probe_fresh" -> 9 | _ -> 3
let out_dir = ".perfbench-out"
let keep_spans = 20_000
let mib = 1048576.0

(* ---------- statements ---------- *)

let paper_text q =
  match Paper_queries.text q Workload.Temporal with
  | Some t -> t
  | None -> invalid_arg ("no temporal text for " ^ Paper_queries.name q)

(* The paper's keyed queries probe id 500; the benchmark draws the key. *)
let keyed q key =
  let t = paper_text q in
  let pat = "id = 500" in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length t then invalid_arg "Main.keyed: no key in query"
    else if String.sub t i n = pat then i
    else find (i + 1)
  in
  let i = find 0 in
  Printf.sprintf "%sid = %d%s" (String.sub t 0 i) key
    (String.sub t (i + n) (String.length t - i - n))

let sorted_rows tuples = List.sort compare tuples

(* One statement through the session path, text in, outcome out.  With
   spans on, the benchmark also calls the semantic checker and the
   planner itself, so their cost is timed outside the engine (the
   engine repeats both inside [session.*_execute]). *)
let execute ?spans session text =
  match spans with
  | None ->
      Result.bind (Parser.parse_statement text)
        (Session.execute_statement session)
  | Some sp ->
      Spans.stmt sp "stmt" @@ fun () ->
      Result.bind
        (Spans.span sp "tquel.parse" (fun () -> Parser.parse_statement text))
      @@ fun stmt ->
      let c = Db_instance.commit (Session.instance session) in
      let env = Session.semck_env_of c in
      Result.bind
        (Spans.span sp "tquel.semck" (fun () -> Semck.check_statement env stmt))
      @@ fun () ->
      (match stmt with
      | Ast.Retrieve r ->
          let sources = Session.sources_of c in
          ignore
            (Spans.span sp "query.plan" (fun () ->
                 Executor.plan_retrieve ~sources r))
      | _ -> ());
      let name =
        if Engine.read_only stmt then "session.read_execute"
        else "session.write_execute"
      in
      Spans.span sp name (fun () -> Session.execute_statement session stmt)

(* ---------- registered counters ---------- *)

let dump () =
  List.map
    (fun (r : Metric.record) ->
      ( (r.name, r.labels),
        match r.value with Metric.Int i -> float_of_int i | Metric.Float f -> f ))
    (Metric.dump ())

(* Summed over every label set of [name]. *)
let delta ~before ~after name =
  let sum d =
    List.fold_left
      (fun acc ((n, _), v) -> if n = name then acc +. v else acc)
      0.0 d
  in
  sum after -. sum before

(* The nearest-rank p99 of a registered histogram's observations between
   two dumps, as the upper bound of its bucket. *)
let histogram_p99 ~before ~after name =
  let buckets d =
    List.filter_map
      (fun ((n, labels), v) ->
        if n = name ^ "_bucket" then
          Option.map (fun le -> (float_of_string le, v)) (List.assoc_opt "le" labels)
        else None)
      d
  in
  let b0 = buckets before in
  let cum =
    List.map
      (fun (le, v) -> (le, v -. Option.value ~default:0.0 (List.assoc_opt le b0)))
      (buckets after)
    |> List.sort compare
  in
  match List.rev cum with
  | [] -> 0.0
  | (_, total) :: _ ->
      if total <= 0.0 then 0.0
      else
        let need = Float.ceil (0.99 *. total) in
        match List.find_opt (fun (_, c) -> c >= need) cum with
        | Some (le, _) -> le
        | None -> infinity

(* ---------- GC pauses from Runtime_events ---------- *)

module Gc_pauses = struct
  type t = {
    depth : (int, int * int64) Hashtbl.t;  (* ring -> open phases, start ns *)
    mutable total_ns : int64;
    mutable max_ns : int64;
    mutable rings : int list;
    mutable lost : int;
  }

  (* Phases that stop the mutator; nested ones count once. *)
  let pausing = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let ns = Runtime_events.Timestamp.to_int64

  let runtime_begin t ring ts phase =
    if pausing phase then begin
      if not (List.mem ring t.rings) then t.rings <- ring :: t.rings;
      match Hashtbl.find_opt t.depth ring with
      | Some (d, s) when d > 0 -> Hashtbl.replace t.depth ring (d + 1, s)
      | _ -> Hashtbl.replace t.depth ring (1, ns ts)
    end

  let runtime_end t ring ts phase =
    if pausing phase then
      match Hashtbl.find_opt t.depth ring with
      | Some (1, s) ->
          Hashtbl.replace t.depth ring (0, 0L);
          let d = Int64.sub (ns ts) s in
          t.total_ns <- Int64.add t.total_ns d;
          if d > t.max_ns then t.max_ns <- d
      | Some (d, s) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, s)
      | _ -> ()

  (* Starts event collection and returns a poller; the events already in
     the rings are skipped. *)
  let start () =
    Runtime_events.start ();
    let t =
      { depth = Hashtbl.create 4; total_ns = 0L; max_ns = 0L; rings = []; lost = 0 }
    in
    let cursor = Runtime_events.create_cursor None in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin:(runtime_begin t)
        ~runtime_end:(runtime_end t)
        ~lost_events:(fun _ n -> t.lost <- t.lost + n)
        ()
    in
    let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
    poll ();
    t.total_ns <- 0L;
    t.max_ns <- 0L;
    t.rings <- [];
    (t, poll)
end

(* ---------- results ---------- *)

(* [json = false]: printed in the report but left out of the result
   line and of BENCHMARK.json. *)
type metric = {
  name : string;
  unit_ : string;
  value : float;
  note : string;
  json : bool;
}

let m ?(note = "") ?(json = true) name unit_ value =
  { name; unit_; value; note; json }

(* The p99s are reported, not gated: on a shared host they swing more
   than any bound allows (see README.md). *)
let summary_metrics prefix unit_scale (s : Stats.summary) =
  let note =
    Printf.sprintf "median over %d window(s) of n=%d, %d beyond p99 each%s"
      s.windows s.n s.p99_beyond
      (if s.p99_beyond < Stats.min_beyond then " (too few: p99 unsupported)"
       else "")
  in
  [
    m ~note:(Printf.sprintf "median of n=%d" s.n) (prefix ^ "_p50_ms") "ms"
      (unit_scale *. s.p50);
    m ~note ~json:false (prefix ^ "_p99_ms") "ms" (unit_scale *. s.p99);
  ]

(* ---------- phases ---------- *)

type reads = {
  latencies : float array;
  page_counts : float array;  (* per statement, in order *)
  ends : float array;  (* per statement, completion time *)
  pages : int;
  rows : int;
  untraced_per_s : float;  (* statements per second outside traced slices *)
  traced_per_s : float;
  wall : float;
}

(* A closed loop of reads for [duration] seconds.  [next] yields the
   statement text and a check on its sorted rows.  With [spans], tracing
   alternates on and off in 100 ms slices, so the traced and untraced
   throughputs that [trace.overhead_pct] compares see the same drift;
   [on_slice] runs at every slice boundary, [before] before every
   statement, outside its timing. *)
let read_loop ?spans ?(on_slice = ignore) ?(before = ignore) ~tally ~duration
    ?(until = fun () -> false) session next =
  let lat = Samples.create () and page_counts = Samples.create () in
  let ends = Samples.create () in
  let pages = ref 0 and rows = ref 0 in
  let counts = [| 0; 0 |] and times = [| 0.0; 0.0 |] in
  let t0 = now () in
  let stop = t0 +. duration in
  let slice = 0.1 in
  let rec loop slice_no slice_start =
    let t = now () in
    if t < stop && not (until ()) then begin
      let slice_no, slice_start =
        if t -. slice_start >= slice then begin
          let k = slice_no land 1 in
          times.(k) <- times.(k) +. (t -. slice_start);
          on_slice ();
          (slice_no + 1, t)
        end
        else (slice_no, slice_start)
      in
      before ();
      let traced = Option.is_some spans && slice_no land 1 = 1 in
      let text, check = next () in
      let t1 = now () in
      let outcome =
        execute ?spans:(if traced then spans else None) session text
      in
      let t2 = now () in
      let ok =
        match outcome with
        | Ok (Engine.Rows { tuples; io; _ }) ->
            pages := !pages + io.Executor.input_reads;
            Samples.push page_counts (float_of_int io.Executor.input_reads);
            rows := !rows + List.length tuples;
            check (sorted_rows tuples)
        | Ok _ | Error _ ->
            Samples.push page_counts 0.0;
            false
      in
      Stats.record tally ~ok;
      Samples.push lat (t2 -. t1);
      Samples.push ends t2;
      counts.(slice_no land 1) <- counts.(slice_no land 1) + 1;
      loop slice_no slice_start
    end
    else
      let k = slice_no land 1 in
      times.(k) <- times.(k) +. (t -. slice_start)
  in
  loop 0 t0;
  let per_s k = if times.(k) > 0.0 then float_of_int counts.(k) /. times.(k) else 0.0 in
  {
    latencies = Samples.to_array lat;
    page_counts = Samples.to_array page_counts;
    ends = Samples.to_array ends;
    pages = !pages;
    rows = !rows;
    untraced_per_s = per_s 0;
    traced_per_s = per_s 1;
    wall = now () -. t0;
  }

(* The write mix of README.md: 90% replace a paper id, 5% append a new
   id, 5% delete an id this run appended. *)
type rel = H | I
type write_op = Replace of rel * int | Append of rel * int | Delete of rel * int

let write_schedule ~seed ~n =
  let rng = Random.State.make [| seed; 0x77 |] in
  let next_id = ref Workload.n_tuples in
  let live = ref [] in
  Array.init n (fun _ ->
      let roll = Random.State.int rng 100 in
      let rel = if Random.State.bool rng then H else I in
      if roll >= 95 && !live <> [] then begin
        let k = Random.State.int rng (List.length !live) in
        let ((r, id) as victim) = List.nth !live k in
        live := List.filter (( <> ) victim) !live;
        Delete (r, id)
      end
      else if roll >= 90 then begin
        let id = !next_id in
        incr next_id;
        live := (rel, id) :: !live;
        Append (rel, id)
      end
      else Replace (rel, Random.State.int rng Workload.n_tuples))

let var = function H -> "h" | I -> "i"
let rel_name = function H -> "temporal_h" | I -> "temporal_i"

let write_text = function
  | Replace (r, k) ->
      Printf.sprintf "replace %s (seq = %s.seq + 1) where %s.id = %d" (var r)
        (var r) (var r) k
  | Append (r, id) ->
      Printf.sprintf
        {|append to %s (id = %d, amount = %d, seq = 0, string = "perfbench")|}
        (rel_name r) id id
  | Delete (r, id) -> Printf.sprintf "delete %s where %s.id = %d" (var r) (var r) id

(* What the writer was told succeeded. *)
type acks = {
  seqs : int array array;  (* per rel, per paper id: acknowledged replaces *)
  appended : (rel * int, unit) Hashtbl.t;  (* acknowledged and not deleted *)
  mutable statements : int;
}

let new_acks () =
  {
    seqs = [| Array.make Workload.n_tuples 0; Array.make Workload.n_tuples 0 |];
    appended = Hashtbl.create 64;
    statements = 0;
  }

let rel_index = function H -> 0 | I -> 1

type writes = { loop : Stats.open_loop; acks : acks }

(* Sleep to half a millisecond short of the due time, then spin: a
   sleeping domain wakes late on a busy host, and that lateness belongs
   to the load generator, not to the statement. *)
let sleep_until d =
  let dt = d -. now () -. 0.0005 in
  if dt > 0.0 then Unix.sleepf dt;
  while now () < d do
    Domain.cpu_relax ()
  done

(* The open-loop writer over [schedule]: the stepper sends the writes as
   they fall due, and [acks] records what was acknowledged. *)
let writer ?spans ~tally session schedule =
  let acks = new_acks () in
  let stepper =
    Stats.stepper ~now ~rate:write_rate ~n:(Array.length schedule) (fun i ->
        let op = schedule.(i) in
        let ok =
          match (execute ?spans session (write_text op), op) with
          | Ok (Engine.Modified { matched = 1; _ }), Replace (r, k) ->
              let s = acks.seqs.(rel_index r) in
              s.(k) <- s.(k) + 1;
              true
          | Ok (Engine.Modified { inserted = 1; _ }), Append (r, id) ->
              Hashtbl.replace acks.appended (r, id) ();
              true
          | Ok (Engine.Modified { matched = 1; _ }), Delete (r, id) ->
              Hashtbl.remove acks.appended (r, id);
              true
          | _ -> false
        in
        if ok then acks.statements <- acks.statements + 1;
        Stats.record tally ~ok)
  in
  (stepper, acks)

(* ---------- storage probes (traced runs, after the timed phase) ---------- *)

let median_time reps f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         f ();
         now () -. t0))

let storage_probe rels =
  let disks =
    List.map (fun r -> Buffer_pool.disk (Relation_file.pool r)) rels
  in
  let npages = List.fold_left (fun a d -> a + Disk.npages d) 0 disks in
  let read_all () =
    List.iter
      (fun d ->
        for p = 0 to Disk.npages d - 1 do
          ignore (Disk.read_page d p)
        done)
      disks
  in
  let disk_s = median_time 3 read_all in
  let pages =
    Array.of_list
      (List.concat_map
         (fun d -> List.init (Disk.npages d) (fun p -> Disk.read_page d p))
         disks)
  in
  let crc_s =
    median_time 3 (fun () -> Array.iter (fun b -> ignore (Crc32.digest b)) pages)
  in
  let views = List.map Relation_file.reader_view rels in
  let drain () =
    List.concat_map
      (fun v ->
        let acc = ref [] in
        Cursor.iter (Relation_file.cursor v Relation_file.Full_scan) (fun _ r ->
            acc := (v, r) :: !acc);
        !acc)
      views
  in
  let cursor_pages () =
    List.fold_left
      (fun a v -> a + Tdb_storage.Io_stats.reads (Relation_file.stats v))
      0 views
  in
  let p0 = cursor_pages () in
  let cursor_s = median_time 3 (fun () -> ignore (drain ())) in
  let scanned = (cursor_pages () - p0) / 3 in
  let records = Array.of_list (drain ()) in
  let decode_s =
    median_time 3 (fun () ->
        Array.iter (fun (v, r) -> ignore (Relation_file.decode v r)) records)
  in
  let per x n = if n = 0 then 0.0 else 1e6 *. x /. float_of_int n in
  [
    m "storage.disk_read_us_per_page" "us" (per disk_s npages)
      ~note:(Printf.sprintf "%d pages" npages);
    m "storage.crc_us_per_page" "us" (per crc_s npages);
    m "storage.cursor_us_per_page" "us" (per cursor_s scanned)
      ~note:(Printf.sprintf "%d pages per drain" scanned);
    m "storage.decode_us_per_record" "us"
      (per decode_s (Array.length records))
      ~note:(Printf.sprintf "%d records" (Array.length records));
  ]

(* Access-stage rows over emitted rows, from the executed operator tree. *)
let rows_examined session texts =
  let rec access_rows (n : Trace.node) =
    let own =
      let starts prefix = String.starts_with ~prefix n.name in
      if
        List.mem n.name [ "emit"; "coalesce"; "temporal-agg" ]
        || starts "emit(" || starts "filter(" || starts "retrieve"
      then 0
      else n.tuples
    in
    List.fold_left (fun a c -> a + access_rows c) own (Trace.children n)
  in
  let examined, emitted =
    List.fold_left
      (fun (ex, em) text ->
        match
          Result.bind (Parser.parse_statement text)
            (Session.analyze_statement session)
        with
        | Ok a -> (
            match a.Engine.a_outcome with
            | Engine.Rows { tuples; trace = Some t; _ } ->
                (ex + access_rows t, em + List.length tuples)
            | _ -> (ex, em))
        | Error e -> failwith ("analyze: " ^ e))
      (0, 0) texts
  in
  if emitted = 0 then 0.0 else float_of_int examined /. float_of_int emitted

(* ---------- the workloads' databases ---------- *)

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let open_file_db dir =
  let db = ok_or "reopen" (Database.create ~dir ()) in
  List.iter
    (fun r -> ok_or "range" (Database.set_range db ~var:(var r) ~rel:(rel_name r)))
    [ H; I ];
  db

(* The paper's temporal database, file-backed: loaded through the public
   [Database] API with the journal off, checkpointed, then reopened with
   the journal at its default (on). *)
let build_file_db ~seed dir =
  rm_rf dir;
  let db =
    ok_or "create"
      (Database.create ~dir ~journal:false ~start:Workload.evolution_base ())
  in
  let schema = Workload.schema_for Workload.Temporal in
  List.iter
    (fun (r, which, org) ->
      let rel =
        ok_or "create relation"
          (Database.create_relation db ~name:(rel_name r) schema)
      in
      List.iter
        (fun tu -> ignore (Relation_file.insert rel tu))
        (Workload.tuples_for ~kind:Workload.Temporal ~seed ~which schema);
      ok_or "modify" (Database.modify_relation db (rel_name r) org))
    [
      (H, `H, Relation_file.Hash { key_attr = 0; fillfactor = 100 });
      (I, `I, Relation_file.Isam { key_attr = 0; fillfactor = 100 });
    ];
  Database.sync db;
  Database.close db;
  open_file_db dir

(* Set-up repeated [reps] times; the median time is [setup_s] and the
   last database is the one measured.  [discard] releases each earlier
   one before the next is built. *)
let timed_setup reps ~discard build =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for k = 0 to reps - 1 do
    Option.iter discard !last;
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v = build k in
    times.(k) <- now () -. t0;
    last := Some v
  done;
  (Option.get !last, times)

let stored_bytes_per_user_byte rels =
  let file_bytes =
    List.fold_left (fun a r -> a + (Relation_file.npages r * Page.size)) 0 rels
  in
  let versions = List.fold_left (fun a r -> a + Relation_file.tuple_count r) 0 rels in
  float_of_int file_bytes /. float_of_int (versions * user_bytes_per_tuple)

(* ---------- running a workload ---------- *)

type run = {
  tally : Stats.tally;
  e2e : metric list;
  layers : metric list;
  info : string list;  (* extra lines for the human-readable report *)
  span_sets : (string * Spans.t) list;
}

(* Counters are read over a window of two dumps: reads over
   [reads_window], writes over [writes_window] (one window when the two
   interleave). *)
let layer_common ~spans_r ~spans_w ~(reads : reads) ~(writes : writes)
    ~reads_window:(r0, r1) ~writes_window:(w0, w1) ~gc0 ~gc1
    ~(pauses : Gc_pauses.t) ~phase_wall ~session ~queries ~rels =
  let us a = if Array.length a = 0 then 0.0 else 1e6 *. Stats.median a in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let read_stmts = float_of_int (Array.length reads.latencies) in
  let write_acks = float_of_int writes.acks.statements in
  let in_reads = delta ~before:r0 ~after:r1 in
  let in_writes = delta ~before:w0 ~after:w1 in
  let skipped = in_reads "tdb_prune_pages_skipped_total" in
  let hits = delta ~before:r0 ~after:w1 "tdb_pool_hits_total" in
  let misses = delta ~before:r0 ~after:w1 "tdb_pool_misses_total" in
  let stmts = read_stmts +. float_of_int (Array.length writes.loop.latency) in
  let minor_bytes =
    (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
  in
  let median_span name sp span =
    let d = Spans.durations sp span in
    m name "us" (us d) ~note:(Printf.sprintf "median of n=%d spans" (Array.length d))
  in
  let late = Stats.summarize writes.loop.late in
  [
    median_span "tquel.parse_us" spans_r "tquel.parse";
    median_span "tquel.semck_us" spans_r "tquel.semck";
    median_span "query.plan_us" spans_r "query.plan";
    m "query.rows_examined_per_row" "ratio" (rows_examined session queries);
    m "query.tjoin_pairs_per_row" "ratio"
      (ratio (in_reads "tdb_tjoin_candidate_pairs_total") (float_of_int reads.rows));
    median_span "session.read_execute_us" spans_r "session.read_execute";
    median_span "session.write_execute_us" spans_w "session.write_execute";
    m "session.writer_wait_p99_ms" "ms"
      (1e3 *. histogram_p99 ~before:w0 ~after:w1 "tdb_session_writer_wait_seconds")
      ~note:"histogram bucket bound";
    m "storage.pages_skipped_per_stmt" "pages" (ratio skipped read_stmts);
    m "storage.prune_ratio" "ratio"
      (ratio skipped (skipped +. float_of_int reads.pages));
    m "storage.pool_hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "storage.pages_written_per_write" "pages"
      (ratio (in_writes "tdb_io_page_writes_total") write_acks);
    m "storage.journal_bytes_per_write" "bytes"
      (ratio (in_writes "tdb_journal_bytes_total") write_acks);
    m "storage.fsyncs_per_write" "count"
      (ratio
         (in_writes "tdb_journal_fsyncs_total" +. in_writes "tdb_disk_fsyncs_total")
         write_acks);
    m "gc.minor_mb_per_stmt" "MiB" (ratio (minor_bytes /. mib) stmts);
    m "gc.major_per_kstmt" "count"
      (ratio
         (1000.0 *. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
         stmts);
    m "gc.pause_share" "ratio"
      (ratio (Int64.to_float pauses.total_ns /. 1e9) phase_wall)
      ~note:
        (Printf.sprintf "%d rings, %d events lost" (List.length pauses.rings)
           pauses.lost);
    m "gc.pause_max_ms" "ms" (Int64.to_float pauses.max_ns /. 1e6);
    m "load.gen_late_p99_ms" "ms" (1e3 *. late.p99)
      ~note:(Printf.sprintf "n=%d, %d beyond p99" late.n late.p99_beyond);
    m "trace.overhead_pct" "%"
      (100.0 *. ratio (reads.untraced_per_s -. reads.traced_per_s) reads.untraced_per_s)
      ~note:
        (Printf.sprintf "untraced %.1f stmt/s, traced %.1f stmt/s" reads.untraced_per_s
           reads.traced_per_s);
  ]
  @ storage_probe rels

(* On a read-only database each statement's page count is fixed, so the
   first [`Prefix k] statements of the seeded sequence give a
   [pages_per_read] that repeats exactly for a seed, however many
   statements a run completes.  Where writes grow the history during the
   run, [`Per_second] averages the count per second of the run, so read
   speed does not weight it. *)
type pages_rule = [ `Prefix of int | `Per_second ]

let pages_per_read (reads : reads) : pages_rule -> float * string = function
  | `Prefix k ->
      let k = min k (Array.length reads.page_counts) in
      let pages = Array.fold_left ( +. ) 0.0 (Array.sub reads.page_counts 0 k) in
      ( pages /. float_of_int k,
        Printf.sprintf "%.0f pages over the first %d statements" pages k )
  | `Per_second ->
      ( Stats.window_mean ~times:reads.ends ~width:1.0 reads.page_counts,
        Printf.sprintf "%d pages; mean of per-second means" reads.pages )

let e2e_common ~setup_times ~(reads : reads) ~(writes : writes) ~writes_window:(w0, w1)
    ~stored ~pages ~peak_heap =
  let r = Stats.summarize reads.latencies in
  let w = Stats.summarize writes.loop.latency in
  let user_bytes = float_of_int (writes.acks.statements * user_bytes_per_tuple) in
  let bytes_written =
    (delta ~before:w0 ~after:w1 "tdb_io_page_writes_total" *. float_of_int Page.size)
    +. delta ~before:w0 ~after:w1 "tdb_journal_bytes_total"
  in
  let n = Array.length reads.latencies in
  [
    m "setup_s" "s" (Stats.median setup_times)
      ~note:(Printf.sprintf "median of %d set-ups" (Array.length setup_times));
    m "read_stmts_per_s" "stmt/s" (float_of_int n /. reads.wall)
      ~note:(Printf.sprintf "%d statements in %.2f s" n reads.wall);
  ]
  @ summary_metrics "read" 1e3 r
  @ summary_metrics "write" 1e3 w
  @ [
      (let v, note = pages_per_read reads pages in
       m "pages_per_read" "pages" v ~note);
      m "bytes_written_per_user_byte" "ratio" (bytes_written /. user_bytes)
        ~note:
          (Printf.sprintf "%.0f bytes for %.0f user bytes" bytes_written user_bytes);
      m "bytes_stored_per_user_byte" "ratio" stored;
      m "peak_heap_mb" "MiB" peak_heap;
    ]

(* Taken as soon as the timed phases end, before the benchmark's own
   summaries allocate. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. mib

(* Traced runs collect GC pauses; the poller drains the event rings. *)
let gc_pauses trace =
  if trace then
    let t, poll = Gc_pauses.start () in
    (Some t, poll)
  else (None, ignore)

(* probe_fresh and history_scan: a read-only database, a closed read loop
   checked against the serialized engine path, then an open-loop write
   tail on the same database. *)
let read_only_workload a ~setup ~queries ~next_read ~reference_texts ~pages =
  let w, setup_times =
    timed_setup
      (if a.trace then 1 else setup_reps a.workload)
      ~discard:(fun (w : Workload.t) -> Database.close w.db)
      setup
  in
  let db = w.Workload.db in
  let reference = Hashtbl.create 4096 in
  List.iter
    (fun text ->
      match Engine.execute_one db text with
      | Ok (Engine.Rows { tuples; _ }) ->
          Hashtbl.replace reference text (sorted_rows tuples)
      | _ -> failwith ("reference failed: " ^ text))
    reference_texts;
  let inst = Db_instance.of_database db in
  let session = Session.open_ ~name:"perfbench" inst in
  let tally = Stats.tally () in
  let spans_r = Spans.create ~keep:keep_spans () in
  let spans_w = Spans.create ~keep:keep_spans () in
  let total = float_of_int a.seconds in
  let rng = Random.State.make [| a.seed; 0x52 |] in
  let next () =
    let text = next_read rng in
    let expected = Hashtbl.find reference text in
    (text, fun rows -> rows = expected)
  in
  (* The timed phase starts from a compacted heap, free of the set-up's
     and the reference's garbage. *)
  Gc.compact ();
  let pauses, poll_pauses = gc_pauses a.trace in
  let gc0 = Gc.quick_stat () in
  let d0 = dump () in
  let reads =
    read_loop ?spans:(if a.trace then Some spans_r else None)
      ~on_slice:poll_pauses
      ~tally ~duration:(read_share *. total) session next
  in
  let d1 = dump () in
  let schedule =
    write_schedule ~seed:a.seed
      ~n:(Float.to_int (Float.round (write_rate *. (1.0 -. read_share) *. total)))
  in
  let write_start = now () in
  let stepper, acks =
    writer ?spans:(if a.trace then Some spans_w else None) ~tally session schedule
  in
  let writes = { loop = Stats.finish ~sleep_until stepper; acks } in
  let write_wall = now () -. write_start in
  let d2 = dump () in
  let gc1 = Gc.quick_stat () in
  let peak_heap = peak_heap_mb () in
  poll_pauses ();
  let rels = [ Workload.h_rel w; Workload.i_rel w ] in
  let e2e =
    e2e_common ~setup_times ~reads ~writes ~writes_window:(d1, d2)
      ~stored:(stored_bytes_per_user_byte rels) ~pages ~peak_heap
  in
  let layers =
    if not a.trace then []
    else
      layer_common ~spans_r ~spans_w ~reads ~writes ~reads_window:(d0, d1)
        ~writes_window:(d1, d2) ~gc0 ~gc1 ~pauses:(Option.get pauses)
        ~phase_wall:(reads.wall +. write_wall) ~session ~queries ~rels
  in
  Session.close session;
  {
    tally;
    e2e;
    layers;
    info =
      [
        Printf.sprintf "database: h %d pages, i %d pages"
          (Relation_file.npages (Workload.h_rel w))
          (Relation_file.npages (Workload.i_rel w));
      ];
    span_sets = (if a.trace then [ ("reader", spans_r); ("writer", spans_w) ] else []);
  }

let probe_queries = Paper_queries.[ Q01; Q02; Q05; Q06 ]

let probe_fresh a =
  let texts =
    List.concat_map (fun q -> List.init Workload.n_tuples (keyed q)) probe_queries
  in
  read_only_workload a
    ~setup:(fun _ ->
      Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:a.seed ())
    ~queries:(List.map (fun q -> keyed q 500) probe_queries)
    ~next_read:(fun rng ->
      let q = List.nth probe_queries (Random.State.int rng 4) in
      keyed q (Random.State.int rng Workload.n_tuples))
    ~reference_texts:texts ~pages:(`Prefix 10_000)

(* Q09 and Q10 are left out: see README.md. *)
let history_queries =
  Paper_queries.[ Q01; Q02; Q03; Q04; Q05; Q06; Q07; Q08; Q11; Q12 ]

let history_rounds = 15

let history_scan a =
  let texts = List.map paper_text history_queries in
  let cycle = Array.of_list texts in
  let i = ref 0 in
  read_only_workload a
    ~setup:(fun _ ->
      let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:a.seed () in
      for round = 1 to history_rounds do
        Evolve.uniform_round w ~round
      done;
      w)
    ~queries:texts
    ~next_read:(fun _ ->
      let t = cycle.(!i mod Array.length cycle) in
      incr i;
      t)
    ~reference_texts:texts ~pages:(`Prefix (10 * Array.length cycle))

(* Reads [retrieve (v.id, v.seq) when v overlap "now"] into id -> seqs. *)
let current_versions db r =
  match
    Engine.execute_one db
      (Printf.sprintf {|retrieve (%s.id, %s.seq) when %s overlap "now"|} (var r)
         (var r) (var r))
  with
  | Ok (Engine.Rows { tuples; _ }) ->
      let t = Hashtbl.create 2048 in
      List.iter
        (fun row ->
          match (row.(0), row.(1)) with
          | Value.Int id, Value.Int seq -> Hashtbl.add t id seq
          | _ -> ())
        tuples;
      t
  | Ok _ -> failwith "current versions: not a retrieve"
  | Error e -> failwith ("current versions: " ^ e)

(* Every acknowledged write must survive a crash: each paper id's single
   current version carries the acknowledged seq, and the appended ids
   that are current are exactly those acknowledged and not deleted.
   Returns the number of ids that disagree. *)
let durability_failures db (acks : acks) =
  List.fold_left
    (fun bad r ->
      let cur = current_versions db r in
      let bad = ref bad in
      for id = 0 to Workload.n_tuples - 1 do
        if Hashtbl.find_all cur id <> [ acks.seqs.(rel_index r).(id) ] then incr bad
      done;
      Hashtbl.iter
        (fun id _ ->
          if id >= Workload.n_tuples then
            if
              Hashtbl.find_all cur id <> [ 0 ]
              || not (Hashtbl.mem acks.appended (r, id))
            then incr bad)
        cur;
      Hashtbl.iter
        (fun (r', id) () -> if r' = r && not (Hashtbl.mem cur id) then incr bad)
        acks.appended;
      !bad)
    0 [ H; I ]

let update_mix a =
  ensure_dir out_dir;
  let base =
    Filename.concat out_dir (Printf.sprintf "update_mix-%d" (Unix.getpid ()))
  in
  let dir k = Printf.sprintf "%s-%d" base k in
  let reps = if a.trace then 1 else setup_reps a.workload in
  let db, setup_times =
    timed_setup reps
      ~discard:(fun (k, db) ->
        Database.close db;
        rm_rf (dir k))
      (fun k -> (k, build_file_db ~seed:a.seed (dir k)))
  in
  let db = snd db in
  let dir = dir (reps - 1) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let journaling = Database.journaling db in
  let inst = Db_instance.of_database db in
  let total = float_of_int a.seconds in
  let schedule =
    write_schedule ~seed:a.seed ~n:(Float.to_int (Float.round (write_rate *. total)))
  in
  let tally_r = Stats.tally () and tally_w = Stats.tally () in
  let spans_r = Spans.create ~keep:keep_spans () in
  let spans_w = Spans.create ~keep:keep_spans () in
  (* One domain carries both loops: the writer's due statements go
     between reads.  With the writer on a second domain, the figures
     swung with the host's load (see README.md). *)
  let wsession = Session.open_ ~name:"perfbench-writer" inst in
  let reader = Session.open_ ~name:"perfbench-reader" inst in
  let rng = Random.State.make [| a.seed; 0x52 |] in
  let seen = Array.make Workload.n_tuples (-1) in
  let seq_of row = match row.(1) with Value.Int s -> s | _ -> -1 in
  let next () =
    let key = Random.State.int rng Workload.n_tuples in
    let current = Random.State.bool rng in
    let q = if current then Paper_queries.Q05 else Paper_queries.Q01 in
    let check rows =
      let top = List.fold_left (fun acc r -> max acc (seq_of r)) (-1) rows in
      let ok =
        (if current then List.length rows = 1 else rows <> []) && top >= seen.(key)
      in
      seen.(key) <- max seen.(key) top;
      ok
    in
    (keyed q key, check)
  in
  Gc.compact ();
  let pauses, poll_pauses = gc_pauses a.trace in
  let gc0 = Gc.quick_stat () in
  let d0 = dump () in
  let stepper, acks =
    writer ?spans:(if a.trace then Some spans_w else None) ~tally:tally_w wsession
      schedule
  in
  let reads =
    read_loop ?spans:(if a.trace then Some spans_r else None)
      ~on_slice:poll_pauses
      ~before:(fun () -> Stats.step stepper)
      ~tally:tally_r ~duration:infinity
      ~until:(fun () -> Stats.next_due stepper = None)
      reader next
  in
  let writes = { loop = Stats.finish ~sleep_until stepper; acks } in
  let d1 = dump () in
  let gc1 = Gc.quick_stat () in
  let peak_heap = peak_heap_mb () in
  poll_pauses ();
  let rels =
    List.map (fun r -> Option.get (Database.find_relation db (rel_name r))) [ H; I ]
  in
  let stored = stored_bytes_per_user_byte rels in
  let layers =
    if not a.trace then []
    else
      layer_common ~spans_r ~spans_w ~reads ~writes ~reads_window:(d0, d1)
        ~writes_window:(d0, d1) ~gc0 ~gc1 ~pauses:(Option.get pauses)
        ~phase_wall:reads.wall ~session:reader
        ~queries:(List.map (fun q -> keyed q 500) Paper_queries.[ Q01; Q05 ])
        ~rels
  in
  Session.close reader;
  Session.close wsession;
  (* Simulated kill: no flush, no checkpoint; then recovery from what
     reached the files and the journal. *)
  Database.abandon db;
  let t0 = now () in
  let reopened = open_file_db dir in
  let reopen_s = now () -. t0 in
  let lost = durability_failures reopened writes.acks in
  Database.close reopened;
  let tally = Stats.merge tally_r tally_w in
  Stats.record_failures tally lost;
  let e2e =
    e2e_common ~setup_times ~reads ~writes ~writes_window:(d0, d1) ~stored
      ~pages:`Per_second ~peak_heap
  in
  {
    tally;
    e2e;
    layers;
    info =
      [
        Printf.sprintf "journal: %s" (if journaling then "on" else "off");
        Printf.sprintf
          "durability: reopen after simulated kill %.3f s; %d acknowledged \
           writes; %d ids disagree"
          reopen_s writes.acks.statements lost;
        Printf.sprintf "writer: %d statements scheduled at %.0f/s"
          (Array.length schedule) write_rate;
      ];
    span_sets = (if a.trace then [ ("reader", spans_r); ("writer", spans_w) ] else []);
  }

(* ---------- output ---------- *)

let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let v =
      try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None
    in
    ignore (Unix.close_process_in ic);
    v
  with Unix.Unix_error _ | Sys_error _ -> None

let settings a =
  Printf.sprintf
    "settings: workload=%s seed=%d seconds=%d trace=%d nproc=%s recommended_domains=%d \
     temporal_join=%b fence_pruning=%b journal_env=%s workers=%d metrics=%b ocaml=%s"
    a.workload a.seed a.seconds (if a.trace then 1 else 0)
    (match nproc () with Some n -> string_of_int n | None -> "unknown")
    (Domain.recommended_domain_count ())
    (Executor.temporal_join_enabled ())
    (Time_fence.pruning_enabled ())
    (Option.value ~default:"unset" (Sys.getenv_opt "TDB_JOURNAL"))
    (Engine.parallelism ()) (Metric.enabled ()) Sys.ocaml_version

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_spans a sets =
  ensure_dir out_dir;
  List.iter
    (fun (role, sp) ->
      let path =
        Filename.concat out_dir
          (Printf.sprintf "spans-%s-seed%d-%s.tsv" a.workload a.seed role)
      in
      let oc = open_out path in
      Spans.write sp oc;
      close_out oc;
      Printf.printf "spans: %d %s statements, first %d written to %s\n"
        (Spans.statements sp) role
        (min keep_spans (Spans.statements sp))
        path)
    sets

(* Self time per span name, and their sum, which must equal the
   statements' wall time. *)
let print_self_times (role, sp) =
  let names =
    [ "stmt"; "tquel.parse"; "tquel.semck"; "query.plan"; "session.read_execute";
      "session.write_execute" ]
  in
  let wall = Array.fold_left ( +. ) 0.0 (Spans.durations sp "stmt") in
  if wall > 0.0 then begin
    let selfs = List.map (fun n -> (n, Spans.self_total sp n)) names in
    let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 selfs in
    Printf.printf "self time (%s, %.3f s traced):" role wall;
    List.iter
      (fun (n, s) -> if s > 0.0 then Printf.printf " %s %.1f%%" n (100.0 *. s /. wall))
      selfs;
    Printf.printf "; sum %.1f%% of wall\n" (100.0 *. sum /. wall)
  end

let () =
  let a = parse_args (Array.to_list Sys.argv) in
  print_endline (settings a);
  let r =
    match a.workload with
    | "probe_fresh" -> probe_fresh a
    | "history_scan" -> history_scan a
    | _ -> update_mix a
  in
  List.iter print_endline r.info;
  let metrics = if a.trace then r.layers else r.e2e in
  List.iter
    (fun x ->
      Printf.printf "%-34s %14.6g %-7s %s%s\n" x.name x.value x.unit_ x.note
        (if x.json then "" else " (reported only)"))
    metrics;
  let correct = Stats.failed r.tally = 0 in
  Printf.printf "statements: %d attempted, %d failed (failed_share %.6f)\n"
    (Stats.attempted r.tally) (Stats.failed r.tally) (Stats.failed_share r.tally);
  if a.trace then begin
    List.iter print_self_times r.span_sets;
    write_spans a r.span_sets
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (Stats.attempted r.tally) (Stats.failed r.tally)
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.value) x.unit_)
          (List.filter (fun x -> x.json) metrics)));
  exit (if correct then 0 else 1)
