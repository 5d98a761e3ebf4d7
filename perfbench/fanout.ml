(* fanout — many views over one call stream, in process: no socket and
   no journal while it runs, at 1 domain.  (At 2 domains the rate of
   this workload moved by a fifth between runs on a 2-vCPU machine
   whose CPUs are stolen about a tenth of the time, against a few
   percent at 1 domain; the 2-domain figure is the traced run's
   [exec.speedup_2].)

   32 views of four shapes (8 each) over a discard-retention [calls]
   chronicle: SUM/COUNT by caller, MIN/MAX by caller, a per-plan total
   over the key join with a 100 000-row [customers] relation, and a
   (plan, region) GROUP BY over the same join; each view of a shape has
   its own selection, so the affected-view lookup and the Δ-plan folds
   do real work per view.  Caller keys follow Zipf(1.1), so the
   heavy-light join cache has hot keys to serve.  A round is 4 group
   commits of 64 single-row batches through [Db.append_group], one new
   customer (a relation version bump, which empties the join caches),
   8 point summaries ([Db.summary]) checked against a running model,
   and one read of the 128-row (plan, region) view
   ([Db.view_contents]).

   Throughput counts the time spent inside the program's calls, as the
   median over windows of 16 rounds, which a short stall of the
   machine does not move.

   After round 100 the database is checkpointed (the pause is not
   counted); after the run that checkpoint is restarted 5 times by a
   fresh server process, and each restart must hold the views the
   database had when it was taken.  Peak memory is the median of those
   servers' peak resident sets: each holds only the database of round
   100, so the figure covers the same work in every run whatever the
   throughput, and none of this process's set-up or models. *)

open Relational
open Chronicle_core
open Chronicle_durability
open Chronicle_workload

let shape_views =
  let open Model in
  List.concat_map
    (fun i ->
      let at c step = if i = 0 then None else Some (c, step * i) in
      [
        { vname = Printf.sprintf "sumcount_%d" i; join = false; where = at "minutes" 5;
          keys = [ "number" ]; aggs = [ (Sum "minutes", "m"); (Count, "n") ] };
        { vname = Printf.sprintf "minmax_%d" i; join = false; where = at "cost" 100;
          keys = [ "number" ]; aggs = [ (Min "cost", "lo"); (Max "minutes", "hi") ] };
        { vname = Printf.sprintf "plan_%d" i; join = true; where = at "minutes" 5;
          keys = [ "plan" ]; aggs = [ (Sum "cost", "c"); (Count, "n") ] };
        { vname = Printf.sprintf "region_%d" i; join = true; where = at "cost" 100;
          keys = [ "plan"; "region" ]; aggs = [ (Sum "minutes", "m"); (Count, "n") ] };
      ])
    (List.init 8 Fun.id)

let cat =
  {
    Model.chron = "calls";
    ccols = [ "number"; "callee"; "minutes"; "cost" ];
    full = false;
    rel = "customers";
    rcols = [ "number"; "plan"; "region" ];
    views = shape_views;
  }

let customers = 100_000
let group_size = 64
let groups_per_round = 4
let lookups_per_round = 8
let restarts = 5
let window_rounds = 16
let snap_round = 100
let lookup_view = "sumcount_0"
let show_view = "region_0"

let customer rng n = [| n; Rng.int rng 8; Rng.int rng 16 |]

let call zipf rng =
  [| Zipf.sample zipf rng - 1; Rng.int rng 1_000_000; 1 + Rng.int rng 60;
     1 + Rng.int rng 1000 |]

let build ~rel_rows =
  let db = Db.create ~jobs:1 () in
  ignore
    (Chronicle_lang.Analyze.run_script
       (Chronicle_lang.Session.of_db db)
       (Model.schema_text cat ^ Model.views_text cat));
  List.iter
    (fun c -> Db.insert_rows db cat.rel (List.map Model.tuple c))
    (Util.chunks 1000 rel_rows);
  db

(* Counters that must not move on this stream: maintenance never reads
   stored chronicle history (Thm 4.4), and pure appends never enter the
   retraction path. *)
let pinned_zero =
  Stats.[ Chronicle_scan; Retract_apply; Weight_cancel; Aggregate_reprobe ]

let run ~seed ~seconds ~traced =
  let work = Util.fresh_work_dir "fanout" in
  let rng = Rng.create seed in
  let rel_rows = List.init customers (customer rng) in
  let setup_s, db =
    Util.median_of_runs 5 (fun () -> (build ~rel_rows, Fun.id))
  in
  let rel : Model.rel = Hashtbl.create customers in
  List.iter (fun r -> Hashtbl.replace rel r.(0) r) rel_rows;
  let zipf = Zipf.create ~n:customers ~s:1.1 in
  let all_rows = Util.Rows.create 4 and running = Hashtbl.create customers in
  let groups = Util.Sample.create ()
  and lookups = Util.Sample.create ()
  and shows = Util.Sample.create () in
  let next_customer = ref customers and ops = ref 0 and rows = ref 0 in
  (* time spent inside the program's calls: the client's own work
     between calls (drawing rows, updating its model) is not counted *)
  let busy = ref 0 in
  let timed f =
    let start = Util.now_ns () in
    let x = f () in
    let stop = Util.now_ns () in
    busy := !busy + (stop - start);
    (x, start, stop)
  in
  let commit_counts = Hashtbl.create 64 in
  let before = Stats.snapshot () in
  let t0 = Util.now_ns () in
  let deadline = ref (t0 + int_of_float (seconds *. 1e9)) in
  let dir = Filename.concat work "store" and snap_n = ref 0 in
  (* The restarts load a checkpoint taken after [snap_round] rounds, so
     their work does not grow with the run's throughput; the pause it
     takes is added to the deadline. *)
  let checkpoint () =
    let start = Util.now_ns () in
    Durable.detach (Durable.attach ~sync:Server_child.sync ~storage:(Storage.disk ~dir) db);
    snap_n := Util.Rows.length all_rows;
    deadline := !deadline + (Util.now_ns () - start)
  in
  let row_rates = Util.Sample.create () and op_rates = Util.Sample.create () in
  let round_no = ref 0 and mark = ref (0, 0, 0) in
  while Util.now_ns () < !deadline do
    incr round_no;
    for _ = 1 to groups_per_round do
      let batch = List.init group_size (fun _ -> call zipf rng) in
      let group = List.map (fun r -> [ (cat.chron, [ Model.tuple r ]) ]) batch in
      let before = if traced then Some (Stats.snapshot ()) else None in
      let _, start, stop = timed (fun () -> Db.append_group db group) in
      Trace.record ~req:!ops "client.append_group" ~start ~stop;
      Option.iter
        (fun b ->
          List.iter
            (fun (c, n) ->
              Hashtbl.replace commit_counts c
                (n + Option.value ~default:0 (Hashtbl.find_opt commit_counts c)))
            (Stats.diff b (Stats.snapshot ())))
        before;
      Util.Sample.add groups (Util.us_of_ns (stop - start));
      List.iter
        (fun r ->
          Util.Rows.add all_rows r;
          let m, n = Option.value ~default:(0, 0) (Hashtbl.find_opt running r.(0)) in
          Hashtbl.replace running r.(0) (m + r.(2), n + 1))
        batch;
      rows := !rows + group_size;
      incr ops
    done;
    let c = customer rng !next_customer in
    incr next_customer;
    ignore (timed (fun () -> Db.insert_rows db cat.rel [ Model.tuple c ]));
    Hashtbl.replace rel c.(0) c;
    incr ops;
    for _ = 1 to lookups_per_round do
      let k = Zipf.sample zipf rng - 1 in
      let got, start, stop = timed (fun () -> Db.summary db ~view:lookup_view [ Value.Int k ]) in
      Util.Sample.add lookups (Util.us_of_ns (stop - start));
      let expected =
        match Hashtbl.find_opt running k with Some (m, n) -> [ [ k; m; n ] ] | None -> []
      in
      Model.check_rows
        (Printf.sprintf "%s for %d" lookup_view k)
        ~expected
        ~actual:(Option.to_list (Option.map Model.ints_of_tuple got));
      incr ops
    done;
    let _, start, stop = timed (fun () -> Db.view_contents db show_view) in
    Util.Sample.add shows (Util.us_of_ns (stop - start));
    incr ops;
    if !round_no mod window_rounds = 0 then begin
      let r0, o0, b0 = !mark in
      let secs = Util.s_of_ns (!busy - b0) in
      Util.Sample.add row_rates (float_of_int (!rows - r0) /. secs);
      Util.Sample.add op_rates (float_of_int (!ops - o0) /. secs);
      mark := (!rows, !ops, !busy)
    end;
    if !round_no = snap_round then checkpoint ()
  done;
  if !snap_n = 0 then checkpoint ();
  List.iter
    (fun c ->
      let n = Stats.diff_get before (Stats.snapshot ()) c in
      if n <> 0 then Model.mismatch (Printf.sprintf "%s moved by %d" (Stats.counter_name c) n))
    pinned_zero;
  let expected = Model.expected cat rel (Util.Rows.iter all_rows) in
  List.iter
    (fun (v, rows) ->
      Model.check_rows v ~expected:rows
        ~actual:(List.map Model.ints_of_tuple (Db.view_contents db v)))
    expected;
  let snap_expected = Model.expected cat rel (Util.Rows.iter ~upto:!snap_n all_rows) in
  let restarts = Check.restarts ~work ~store:dir ~n:restarts ~expected:snap_expected ignore in
  Printf.eprintf "fanout: %d rows, recover_s %s\n%!" !rows
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.3f" (List.assoc "recover_s" r)) restarts));
  ( {
      Util.attempted = !ops;
      failed = 0;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("ops_per_s", Util.Sample.median op_rates, "1/s");
          ("rows_per_s", Util.Sample.median row_rates, "1/s");
          ("append_p50_us", Util.Sample.median groups, "us");
          ("append_p90_us", Util.Sample.p90_of_tenths groups, "us");
          ("lookup_p50_us", Util.Sample.median lookups, "us");
          ("show_p50_us", Util.Sample.median shows, "us");
          ("recover_s", Check.median_of "recover_s" restarts, "s");
          ("peak_rss_mb", Check.median_of "peak_rss_mb" restarts, "MB");
        ];
    },
    {
      Util.work;
      store = dir;
      journal_bytes_per_row = None;
      client_frame_us = None;
      run_counts = Some (Hashtbl.fold (fun c n l -> (c, n) :: l) commit_counts [], !rows);
    },
    {
      Probes.cat;
      rel_rows;
      preload = [];
      gen = (fun () -> call zipf rng);
      frame_rows = 1;
      batch = 1;
      lookup = (fun () -> Model.lookup_text (Model.view cat lookup_view) (Zipf.sample zipf rng - 1));
      show = show_view;
    } )
