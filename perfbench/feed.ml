(* feed — a bulk load of telephone call records (§1: minutes this
   billing month, shown at phone power-on).

   A server child at 1 domain keeps five billing views over a
   discard-retention [calls] chronicle: minutes and cost by caller, a
   per-plan total over the key join with [customers], long calls by
   caller and calls by callee.  One connection sets SET BATCH 64 and
   pipelines fast-path APPEND frames of 4 rows, one round of 64 frames
   (one group commit) per write, with at most 4 rounds unacknowledged.
   After round [snap_round] the client lets the window drain, reads the
   server's peak resident set and copies the storage: the restarts
   recover that copy, so neither figure grows with the load's
   throughput.  After the last ack the live views are checked.  Then
   the copy is recovered 5 times at 1 domain, each time by a fresh
   process on a fresh copy of it, and every restart must reproduce the
   views the server held when the copy was taken, then answer point
   lookups on minutes by caller and SHOW VIEW of the per-plan view, one
   request at a time.  Reads are timed there, on five servers over the
   restart phase, rather than in one burst. *)

open Chronicle_net
open Chronicle_workload

let cat =
  let open Model in
  {
    chron = "calls";
    ccols = [ "number"; "callee"; "minutes"; "cost" ];
    full = false;
    rel = "customers";
    rcols = [ "number"; "plan" ];
    views =
      [
        { vname = "minutes_by_number"; join = false; where = None; keys = [ "number" ];
          aggs = [ (Sum "minutes", "m"); (Count, "n") ] };
        { vname = "cost_by_number"; join = false; where = None; keys = [ "number" ];
          aggs = [ (Sum "cost", "c"); (Max "minutes", "longest") ] };
        { vname = "by_plan"; join = true; where = None; keys = [ "plan" ];
          aggs = [ (Sum "cost", "c"); (Count, "n") ] };
        { vname = "long_calls"; join = false; where = Some ("minutes", 30);
          keys = [ "number" ]; aggs = [ (Count, "n") ] };
        { vname = "by_callee"; join = false; where = None; keys = [ "callee" ];
          aggs = [ (Count, "n") ] };
      ];
  }

let customers = 20_000
let plans = 8
let callees = 50_000
let rows_per_frame = 4
let batch = 64
let window_rounds = 4
let restarts = 5
let snap_round = 400
let rate_rounds = 64
let lookup_view = Model.view cat "minutes_by_number"
let show_view = "by_plan"

let call rng =
  [| Rng.int rng customers; Rng.int rng callees; 1 + Rng.int rng 60;
     1 + Rng.int rng 1000 |]

let customer_rows rng = List.init customers (fun n -> [| n; Rng.int rng plans |])

let load conn ~rel_rows =
  ignore (Conn.stmt conn (Model.schema_text cat ^ Model.views_text cat));
  List.iter
    (fun c -> ignore (Conn.stmt conn (Model.insert_text cat c)))
    (Util.chunks 1000 rel_rows)

(* Pipelined rounds until [deadline]; every frame's latency is from
   the write of its round to its ack, and every [rate_rounds] rounds
   acked close a window of frame and row rates (the drain and copy
   after round [snap_round] are left out).  Returns (frames, rows,
   failed). *)
let drive conn rng ~deadline ~all_rows ~lat ~windows ~snapshot =
  let outstanding = Queue.create () in
  let snapped = ref false in
  let frames = ref 0 and rows = ref 0 and failed = ref 0 and round_no = ref 0 in
  let send_round () =
    incr round_no;
    let buf = Buffer.create (batch * 64) in
    for _ = 1 to batch do
      let rs = List.init rows_per_frame (fun _ -> call rng) in
      List.iter (fun r -> all_rows := r :: !all_rows) rs;
      Buffer.add_string buf
        (Protocol.encode_request
           (Protocol.Append { chronicle = cat.chron; rows = List.map Model.values rs }))
    done;
    let start = Util.now_ns () in
    Conn.send_bytes conn (Buffer.contents buf);
    for _ = 1 to batch do
      Queue.push (start, !round_no) outstanding
    done
  in
  let rec loop () =
    while
      Queue.length outstanding < window_rounds * batch
      && Util.now_ns () < deadline
      && (!snapped || !round_no < snap_round)
    do
      send_round ()
    done;
    if Queue.is_empty outstanding && not !snapped then begin
      snapped := true;
      snapshot ();
      Util.Windows.restart windows ~ops:!frames ~rows:!rows;
      loop ()
    end
    else if not (Queue.is_empty outstanding) then begin
      List.iter
        (fun resp ->
          let start, round = Queue.pop outstanding in
          let stop = Util.now_ns () in
          incr frames;
          (match resp with
          | Protocol.Ack { count; _ } -> rows := !rows + count
          | Protocol.Err _ -> incr failed
          | r -> Conn.fail_response "feed append" r);
          Util.Sample.add lat (Util.us_of_ns (stop - start));
          if !frames mod batch = 0 then
            Trace.record ~req:round "client.append_round" ~start ~stop;
          if !frames mod (batch * rate_rounds) = 0 then
            Util.Windows.close windows ~ops:!frames ~rows:!rows)
        (Conn.read_responses conn);
      loop ()
    end
  in
  Util.Windows.restart windows ~ops:0 ~rows:0;
  loop ();
  (!frames, !rows, !failed)

let run ~seed ~seconds =
  let work = Util.fresh_work_dir "feed" in
  let rng = Rng.create seed in
  let rel_rows = customer_rows rng in
  let setup_no = ref 0 in
  let setup_s, (host, dir) =
    Util.median_of_runs 5 (fun () ->
        incr setup_no;
        let dir = Filename.concat work (Printf.sprintf "store%d" !setup_no) in
        let host =
          Server_child.start ~dir ~tag:(Printf.sprintf "setup%d" !setup_no) ()
        in
        load host.Server_child.conn ~rel_rows;
        ((host, dir), fun () -> ignore (Server_child.stop host); Util.rm_rf dir))
  in
  let conn = host.Server_child.conn in
  ignore (Conn.stmt conn (Printf.sprintf "SET BATCH %d;" batch));
  let rel : Model.rel = Hashtbl.create customers in
  List.iter (fun r -> Hashtbl.replace rel r.(0) r) rel_rows;
  let journal = Filename.concat dir "journal" in
  let journal_before = (Unix.stat journal).Unix.st_size in
  let all_rows = ref [] and lat = Util.Sample.create () and windows = Util.Windows.create () in
  let snap = Filename.concat work "snapshot" and snap_rows = ref [] in
  (* the server's peak memory is read here, so it covers the same work
     in every run whatever the throughput *)
  let peak_rss_mb = ref 0. in
  let snapshot () =
    peak_rss_mb := Util.peak_rss_mb ~pid:(string_of_int host.Server_child.pid) ();
    Util.copy_dir dir snap;
    snap_rows := !all_rows
  in
  let t0 = Util.now_ns () in
  let frames, rows, failed =
    drive conn rng ~deadline:(t0 + int_of_float (seconds *. 1e9)) ~all_rows ~lat ~windows ~snapshot
  in
  let ops_per_s, rows_per_s =
    Util.Windows.rates windows ~ops:frames ~rows ~elapsed:(Util.s_of_ns (Util.now_ns () - t0))
  in
  let journal_bytes = (Unix.stat journal).Unix.st_size - journal_before in
  let expected = Model.expected cat rel (fun f -> List.iter f !all_rows) in
  Check.views conn expected;
  ignore (Server_child.stop host);
  let snap_expected = Model.expected cat rel (fun f -> List.iter f !snap_rows) in
  let lookups = Util.Sample.create () and shows = Util.Sample.create () in
  let read_rng = Rng.create (seed + 1) in
  let restarts =
    Check.restarts ~work ~store:snap ~n:restarts ~expected:snap_expected
      (fun conn ->
        Check.reads conn ~expected:snap_expected ~view:lookup_view
          ~key:(fun () -> Rng.int read_rng customers)
          ~n:40 ~show:show_view ~n_show:200 ~lookups ~shows)
  in
  Printf.eprintf "feed: %d rows loaded, %d recovered; recover_s %s\n%!" rows
    (List.length !snap_rows)
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.3f" (List.assoc "recover_s" r)) restarts));
  let rng = Rng.create (seed + 2) in
  ( {
      Util.attempted = frames;
      failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("ops_per_s", ops_per_s, "1/s");
          ("rows_per_s", rows_per_s, "1/s");
          ("append_p50_us", Util.Sample.median lat, "us");
          ("append_p90_us", Util.Sample.p90_of_tenths lat, "us");
          ("lookup_p50_us", Util.Sample.median lookups, "us");
          ("show_p50_us", Util.Sample.median shows, "us");
          ("recover_s", Check.median_of "recover_s" restarts, "s");
          ("peak_rss_mb", !peak_rss_mb, "MB");
        ];
    },
    {
      Util.work;
      store = snap;
      journal_bytes_per_row = Some (float_of_int journal_bytes /. float_of_int rows);
      client_frame_us = Some (1e6 /. ops_per_s);
      run_counts = None;
    },
    {
      Probes.cat;
      rel_rows;
      preload = [];
      gen = (fun () -> call rng);
      frame_rows = rows_per_frame;
      batch;
      lookup = (fun () -> Model.lookup_text lookup_view (Rng.int rng customers));
      show = show_view;
    } )
