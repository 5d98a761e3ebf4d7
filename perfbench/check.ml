(* Checks and timed reads against a running server. *)

open Chronicle_net

(* Every view the server holds must equal the model's. *)
let views conn expected =
  List.iter
    (fun (v, rows) ->
      match Conn.stmt conn (Printf.sprintf "SHOW VIEW %s;" v) with
      | [ text ] -> Model.check_rows v ~expected:rows ~actual:(Model.parse_rows text)
      | _ -> failwith ("SHOW VIEW " ^ v ^ ": expected one result"))
    expected

(* [n] point lookups on [view] for keys drawn by [key], each checked
   against the model's rows of that view, and [n_show] SHOW VIEW of
   [show]; latencies go to the two samples.  One request at a time. *)
let reads conn ~expected ~view ~key ~n ~show ~n_show ~lookups ~shows =
  let rows = List.assoc view.Model.vname expected in
  for _ = 1 to n do
    let k = key () in
    let t0 = Util.now_ns () in
    let r = Conn.call conn (Protocol.Stmt (Model.lookup_text view k)) in
    Util.Sample.add lookups (Util.us_of_ns (Util.now_ns () - t0));
    match r with
    | Protocol.Result text ->
        Model.check_rows
          (Printf.sprintf "lookup %s=%d" view.Model.vname k)
          ~expected:(List.filter (fun r -> List.hd r = k) rows)
          ~actual:(Model.parse_rows text)
    | r -> Conn.fail_response "lookup" r
  done;
  let text = Printf.sprintf "SHOW VIEW %s;" show in
  for _ = 1 to n_show do
    let t0 = Util.now_ns () in
    let r = Conn.call conn (Protocol.Stmt text) in
    Util.Sample.add shows (Util.us_of_ns (Util.now_ns () - t0));
    match r with
    | Protocol.Result _ -> ()
    | r -> Conn.fail_response "show" r
  done

(* [restarts ~work ~store ~n ~expected read] recovers [n] fresh copies
   of the storage in [store], each by a fresh server process, checks
   that every view equals [expected], runs [read] against it, and
   returns each server's report (recover_s, peak_rss_mb). *)
let restarts ~work ~store ~n ~expected read =
  List.init n (fun i ->
      let tag = Printf.sprintf "restart%d" i in
      let copy = Filename.concat work tag in
      Util.copy_dir store copy;
      let h = Server_child.start ~recover:true ~dir:copy ~tag () in
      views h.Server_child.conn expected;
      read h.Server_child.conn;
      let r = Server_child.stop h in
      Util.rm_rf copy;
      r)

(* The median of one figure over restart reports. *)
let median_of key reports = Util.median (List.map (List.assoc key) reports)
