(* teller — the paper's ATM (§1): every posting must be reflected in the
   balance before the next withdrawal is authorised.

   A server child at 1 domain holds a keyed [accounts] relation, a
   RETAIN FULL [txn] chronicle preloaded at set-up, and three views:
   balance (SUM/COUNT by account), the per-branch SUM over the key join
   with [accounts], and the largest posting (MAX) by account.  Its
   journal records every append (batch 1).  One connection runs a
   closed loop with one request outstanding and checks every balance it
   reads against its own running model.  (With two such connections on
   one single-threaded server, half the requests waited for the other
   connection's request: the append latency had modes at 65 and 310 µs
   with the median between them, and it moved by 30 % between runs.)
   It runs whole rounds of one fixed mix, shuffled per round:
   fast-path APPEND, ℒ-text APPEND INTO, point SELECT on balance, SHOW
   VIEW of the per-branch view, and RETRACT of the oldest live row.

   After [snap_round] rounds the storage is copied and the server's
   peak resident set read.  After the run the
   final storage is recovered once (every acknowledged write, nothing
   else), and the copy five times: those restarts give [recover_s]. *)

open Chronicle_net
open Chronicle_workload

let cat =
  let open Model in
  {
    chron = "txn";
    ccols = [ "acct"; "amount" ];
    full = true;
    rel = "accounts";
    rcols = [ "acct"; "branch" ];
    views =
      [
        { vname = "balance"; join = false; where = None; keys = [ "acct" ];
          aggs = [ (Sum "amount", "bal"); (Count, "n") ] };
        { vname = "branch_total"; join = true; where = None; keys = [ "branch" ];
          aggs = [ (Sum "amount", "total"); (Count, "n") ] };
        { vname = "biggest"; join = false; where = None; keys = [ "acct" ];
          aggs = [ (Max "amount", "top") ] };
      ];
  }

let accounts = 20_000
let branches = 64
let preload = 50_000
let restarts = 5
let snap_round = 8
let window_rounds = 4
let balance = Model.view cat "balance"
let show_view = "branch_total"

type op = Append | Stmt_append | Lookup | Show | Retract

(* One round of requests. *)
let round =
  List.concat
    [ List.init 192 (fun _ -> Append); List.init 8 (fun _ -> Stmt_append);
      List.init 8 (fun _ -> Lookup); List.init 4 (fun _ -> Show); [ Retract ] ]
  |> Array.of_list

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A posting: deposits, and withdrawals as negative amounts. *)
let posting rng =
  let acct = Rng.int rng accounts in
  let amount =
    if Rng.int rng 10 < 3 then -(1 + Rng.int rng 20_000) else 1 + Rng.int rng 50_000
  in
  [| acct; amount |]

let account_rows rng = List.init accounts (fun a -> [| a; Rng.int rng branches |])

(* Catalog, relation rows and chronicle preload, sent as a client would
   send them: ℒ text for the catalog and relation, pipelined fast-path
   APPEND frames of 1000 rows for the preload. *)
let load conn ~rel_rows ~rows =
  ignore (Conn.stmt conn (Model.schema_text cat ^ Model.views_text cat));
  List.iter (fun c -> ignore (Conn.stmt conn (Model.insert_text cat c))) (Util.chunks 1000 rel_rows);
  let frames = Util.chunks 1000 rows in
  List.iter
    (fun c ->
      Conn.send conn
        (Protocol.Append { chronicle = cat.chron; rows = List.map Model.values c }))
    frames;
  let acked = ref 0 in
  while !acked < List.length frames do
    List.iter
      (function Protocol.Ack _ -> incr acked | r -> Conn.fail_response "preload" r)
      (Conn.read_responses conn)
  done

(* The client's state: its running model of [balance] and the live
   rows it may retract, oldest first. *)
type client = {
  conn : Conn.t;
  rng : Rng.t;
  bal : (int, int * int) Hashtbl.t;  (* acct -> sum, count *)
  live : int array Queue.t;
}

let post cl row sign =
  let s, n = Option.value ~default:(0, 0) (Hashtbl.find_opt cl.bal row.(0)) in
  Hashtbl.replace cl.bal row.(0) (s + (sign * row.(1)), n + sign)

type samples = {
  appends : Util.Sample.t;
  stmts : Util.Sample.t;
  lookups : Util.Sample.t;
  shows : Util.Sample.t;
  retracts : Util.Sample.t;
  windows : Util.Windows.t;
}

let op_name = function
  | Append -> "client.append"
  | Stmt_append -> "client.stmt_append"
  | Lookup -> "client.lookup"
  | Show -> "client.show"
  | Retract -> "client.retract"

(* One request and its answer; false if the server answered an error. *)
let exchange cl s ~req op =
  let start = Util.now_ns () in
  let arg, resp =
    match op with
    | Append ->
        let row = posting cl.rng in
        (row, Conn.call cl.conn (Protocol.Append { chronicle = cat.chron; rows = [ Model.values row ] }))
    | Stmt_append ->
        let row = posting cl.rng in
        (row, Conn.call cl.conn (Protocol.Stmt (Model.append_text cat [ row ])))
    | Lookup ->
        let k = Rng.int cl.rng accounts in
        ([| k |], Conn.call cl.conn (Protocol.Stmt (Model.lookup_text balance k)))
    | Show -> ([||], Conn.call cl.conn (Protocol.Stmt ("SHOW VIEW " ^ show_view ^ ";")))
    | Retract ->
        let row = Queue.pop cl.live in
        (row, Conn.call cl.conn (Protocol.Retract { chronicle = cat.chron; rows = [ Model.values row ] }))
  in
  let stop = Util.now_ns () in
  let us = Util.us_of_ns (stop - start) in
  Trace.record ~req (op_name op) ~start ~stop;
  match (op, resp) with
  | (Append | Stmt_append), (Protocol.Ack _ | Protocol.Result _) ->
      Queue.push arg cl.live;
      post cl arg 1;
      Util.Sample.add (if op = Append then s.appends else s.stmts) us;
      true
  | Lookup, Protocol.Result text ->
      let k = arg.(0) in
      let expected =
        match Hashtbl.find_opt cl.bal k with
        | Some (sum, n) when n > 0 -> [ [ k; sum; n ] ]
        | _ -> []
      in
      Model.check_rows (Printf.sprintf "balance of %d" k) ~expected
        ~actual:(Model.parse_rows text);
      Util.Sample.add s.lookups us;
      true
  | Show, Protocol.Result _ ->
      Util.Sample.add s.shows us;
      true
  | Retract, Protocol.Result _ ->
      post cl arg (-1);
      Util.Sample.add s.retracts us;
      true
  | _, Protocol.Err _ ->
      if op = Retract then Queue.push arg cl.live;
      false
  | _ -> Conn.fail_response (op_name op) resp

(* The closed loop until [deadline], in whole rounds; after
   [snap_round] rounds [snapshot] runs, with nothing in flight (at the
   end instead, if the deadline comes first), and is not timed.  Every
   [window_rounds] rounds close a window of request and row rates.
   Returns (operations, rows appended, failed operations). *)
let drive cl ~deadline ~snapshot s =
  let ops = ref 0 and rows = ref 0 and failed = ref 0 and rounds = ref 0 in
  let ops_of_round = Array.copy round in
  Util.Windows.restart s.windows ~ops:0 ~rows:0;
  while Util.now_ns () < deadline do
    if !rounds = snap_round then begin
      snapshot ();
      Util.Windows.restart s.windows ~ops:!ops ~rows:!rows
    end;
    incr rounds;
    shuffle cl.rng ops_of_round;
    Array.iter
      (fun op ->
        incr ops;
        if exchange cl s ~req:!ops op then begin
          if op = Append || op = Stmt_append then incr rows
        end
        else incr failed)
      ops_of_round;
    if !rounds mod window_rounds = 0 then Util.Windows.close s.windows ~ops:!ops ~rows:!rows
  done;
  if !rounds <= snap_round then snapshot ();
  (!ops, !rows, !failed)

let run ~seed ~seconds =
  let work = Util.fresh_work_dir "teller" in
  let rng = Rng.create seed in
  let rel_rows = account_rows rng in
  let rows = List.init preload (fun _ -> posting rng) in
  let setup_no = ref 0 in
  let setup_s, host =
    Util.median_of_runs 5 (fun () ->
        incr setup_no;
        let dir = Filename.concat work (Printf.sprintf "store%d" !setup_no) in
        let host = Server_child.start ~dir ~tag:(Printf.sprintf "setup%d" !setup_no) () in
        load host.Server_child.conn ~rel_rows ~rows;
        ( (host, dir),
          fun () ->
            ignore (Server_child.stop host);
            Util.rm_rf dir ))
  in
  let host, dir = host in
  let rel : Model.rel = Hashtbl.create accounts in
  List.iter (fun r -> Hashtbl.replace rel r.(0) r) rel_rows;
  let cl =
    {
      conn = host.Server_child.conn;
      rng = Rng.create ((seed * 7919) + 1);
      bal = Hashtbl.create accounts;
      live = Queue.create ();
    }
  in
  List.iter
    (fun r ->
      Queue.push r cl.live;
      post cl r 1)
    rows;
  let s =
    {
      appends = Util.Sample.create (); stmts = Util.Sample.create ();
      lookups = Util.Sample.create (); shows = Util.Sample.create ();
      retracts = Util.Sample.create (); windows = Util.Windows.create ();
    }
  in
  let journal = Filename.concat dir "journal" in
  let journal_before = (Unix.stat journal).Unix.st_size in
  let snap = Filename.concat work "snapshot" and snap_live = ref [] in
  (* the server's peak memory is read here, so it covers the same work
     in every run whatever the throughput *)
  let peak_rss_mb = ref 0. in
  let snapshot () =
    peak_rss_mb := Util.peak_rss_mb ~pid:(string_of_int host.Server_child.pid) ();
    Util.copy_dir dir snap;
    snap_live := List.of_seq (Queue.to_seq cl.live)
  in
  let t0 = Util.now_ns () in
  let ops, appended, failed =
    drive cl ~deadline:(t0 + int_of_float (seconds *. 1e9)) ~snapshot s
  in
  let ops_per_s, rows_per_s =
    Util.Windows.rates s.windows ~ops ~rows:appended
      ~elapsed:(Util.s_of_ns (Util.now_ns () - t0))
  in
  let journal_bytes = (Unix.stat journal).Unix.st_size - journal_before in
  let expected = Model.expected cat rel (fun f -> Queue.iter f cl.live) in
  Check.views host.Server_child.conn expected;
  ignore (Server_child.stop host);
  (* durability: the final storage, recovered once, holds every
     acknowledged write and nothing else *)
  ignore (Check.restarts ~work ~store:dir ~n:1 ~expected ignore);
  let snap_expected = Model.expected cat rel (fun f -> List.iter f !snap_live) in
  let restarts =
    Check.restarts ~work ~store:snap ~n:restarts ~expected:snap_expected ignore
  in
  Printf.eprintf "teller: p50 us: APPEND INTO %.0f, retract %.0f\n%!"
    (Util.Sample.median s.stmts) (Util.Sample.median s.retracts);
  let rng = Rng.create (seed + 2) in
  ( {
      Util.attempted = ops;
      failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("ops_per_s", ops_per_s, "1/s");
          ("rows_per_s", rows_per_s, "1/s");
          ("append_p50_us", Util.Sample.median s.appends, "us");
          ("append_p90_us", Util.Sample.p90_of_tenths s.appends, "us");
          ("lookup_p50_us", Util.Sample.median s.lookups, "us");
          ("show_p50_us", Util.Sample.median s.shows, "us");
          ("recover_s", Check.median_of "recover_s" restarts, "s");
          ("peak_rss_mb", !peak_rss_mb, "MB");
        ];
    },
    {
      Util.work;
      store = dir;
      journal_bytes_per_row = Some (float_of_int journal_bytes /. float_of_int appended);
      client_frame_us = Some (Util.Sample.median s.appends);
      run_counts = None;
    },
    {
      Probes.cat;
      rel_rows;
      preload = rows;
      gen = (fun () -> posting rng);
      frame_rows = 1;
      batch = 1;
      lookup = (fun () -> Model.lookup_text balance (Rng.int rng accounts));
      show = show_view;
    } )
