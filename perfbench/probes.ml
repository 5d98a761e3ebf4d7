(* The traced run's layer probes.  Each probe replays the workload's own
   catalog and rows through one layer's public entry point, in process
   and without a socket, one span per call: the protocol machine
   ([Server.accept]/[feed], on a journaled database as the server
   child holds it) and the codec ([Protocol]) for net, the
   parser, [Analyze.exec] and result rendering for lang, [Db.append],
   [Db.retract] and [Db.append_group] for chronicle, and the journal,
   [Group] staging and recovery for durability.  The metrics are medians
   of those spans, and ratios of the work counters taken around them. *)

open Relational
open Chronicle_core
open Chronicle_durability
open Chronicle_lang
open Chronicle_net

type desc = {
  cat : Model.catalog;
  rel_rows : int array list;
  preload : int array list;
  gen : unit -> int array;  (** a chronicle row as the workload draws it *)
  frame_rows : int;  (** rows per fast-path APPEND frame *)
  batch : int;  (** the connection's SET BATCH *)
  lookup : unit -> string;  (** a point query as the workload sends it *)
  show : string;  (** the view the workload shows *)
}

let calls = 2000
let groups = 30
let group_size = 64

(* A database holding [d]'s catalog, relation and preload; with
   [durable], journaled from its first statement on. *)
let build ?durable ?(jobs = 1) d =
  let db = Db.create ~jobs () in
  let dur =
    Option.map (fun dir -> Durable.attach ~sync:Server_child.sync ~storage:(Storage.disk ~dir) db) durable
  in
  ignore (Analyze.run_script (Session.of_db db) (Model.schema_text d.cat ^ Model.views_text d.cat));
  List.iter
    (fun c -> Db.insert_rows db d.cat.Model.rel (List.map Model.tuple c))
    (Util.chunks 1000 d.rel_rows);
  List.iter
    (fun c -> ignore (Db.append db d.cat.Model.chron (List.map Model.tuple c)))
    (Util.chunks 1000 d.preload);
  (db, dur)

let repeat n name f =
  for i = 1 to n do
    Trace.span ~req:i name f
  done

let group_rows d = List.init group_size (fun _ -> [ (d.cat.Model.chron, [ Model.tuple (d.gen ()) ]) ])

let group_probe d db name =
  Trace.counted name (fun () ->
      repeat groups (name ^ ".group") (fun () -> ignore (Db.append_group db (group_rows d))))
  |> snd

let count counts c = Option.value ~default:0 (List.assoc_opt c counts)
let per_row counts c rows = float_of_int (count counts c) /. float_of_int rows

(* Every response in the bytes [Server.feed] returned. *)
let responses bytes =
  let rec go pos acc =
    match Wire.split bytes ~pos with
    | `Frame (payload, next) -> go next (Protocol.decode_response payload :: acc)
    | `Need_more -> List.rev acc
  in
  go 0 []

let run d (info : Util.info) =
  let chron = d.cat.Model.chron in
  let db, _ = build d in
  (* chronicle *)
  let appended = ref [] in
  repeat calls "chronicle.append" (fun () ->
      let r = d.gen () in
      appended := r :: !appended;
      ignore (Db.append db chron [ Model.tuple r ]));
  let retract_us =
    if d.cat.Model.full then begin
      List.iteri
        (fun i r ->
          if i < 20 then
            Trace.span ~req:i "chronicle.retract" (fun () ->
                ignore (Db.retract db chron [ Model.tuple r ])))
        (List.rev !appended);
      Trace.median_us "chronicle.retract"
    end
    else 0.
  in
  let group_counts = group_probe d db "chronicle" in
  let counts, rows =
    match info.run_counts with
    | Some w -> w
    | None -> (group_counts, groups * group_size)
  in
  (* trace.overhead: one append loop timed with an outer clock,
     untraced and traced in turn (which goes first alternates, so a
     drift of the machine's speed does not favour either) *)
  let append_loop traced =
    Trace.on := traced;
    let t0 = Util.now_ns () in
    repeat 1000 "chronicle.append_overhead" (fun () ->
        ignore (Db.append db chron [ Model.tuple (d.gen ()) ]));
    let ns = Util.now_ns () - t0 in
    Trace.on := true;
    float_of_int ns
  in
  let overhead =
    Util.median
      (List.init 20 (fun i ->
           if i mod 2 = 0 then
             let off = append_loop false in
             append_loop true /. off
           else
             let on = append_loop true in
             on /. append_loop false))
  in
  (* net: the protocol machine, on a journaled database as the server
     child holds it *)
  let jdir = Filename.concat info.work "probe-journal" in
  let ddb, dur = build ~durable:jdir d in
  let dur = Option.get dur in
  (* rounds of [batch] frames, fed one frame at a time to a connection
     under SET BATCH [batch], one span per round: every frame of a
     round must be answered by its end *)
  let machine name ~batch req expect =
    let conn = Server.accept (Server.create ddb) in
    if batch > 1 then begin
      let set = Protocol.Stmt (Printf.sprintf "SET BATCH %d;" batch) in
      match responses (Server.feed conn (Protocol.encode_request set)) with
      | [ Protocol.Result _ ] -> ()
      | _ -> failwith "probe: SET BATCH"
    end;
    for i = 1 to calls / batch do
      let frames = List.init batch (fun _ -> Protocol.encode_request (req ())) in
      let out = Trace.span ~req:i name (fun () -> List.map (Server.feed conn) frames) in
      let resps = responses (String.concat "" out) in
      if List.length resps <> batch || not (List.for_all expect resps) then
        failwith ("probe: bad response to " ^ name)
    done;
    Trace.median_us ~per:batch name
  in
  let machine_append =
    machine "net.machine_append" ~batch:d.batch
      (fun () ->
        Protocol.Append
          { chronicle = chron; rows = List.init d.frame_rows (fun _ -> Model.values (d.gen ())) })
      (function Protocol.Ack _ -> true | _ -> false)
  in
  let machine_stmt =
    machine "net.machine_stmt" ~batch:1
      (fun () -> Protocol.Stmt (Model.append_text d.cat [ d.gen () ]))
      (function Protocol.Result _ | Protocol.Ack _ -> true | _ -> false)
  in
  (* net: the codec *)
  let req = Protocol.Append { chronicle = chron; rows = [ Model.values (d.gen ()) ] } in
  repeat 200 "net.encode" (fun () ->
      for _ = 1 to 100 do
        ignore (Protocol.encode_request req)
      done);
  let ack_payload =
    match
      Wire.split (Protocol.encode_response (Protocol.Ack { chronicle = chron; sn = 123456; count = 1 })) ~pos:0
    with
    | `Frame (p, _) -> p
    | `Need_more -> assert false
  in
  repeat 200 "net.decode" (fun () ->
      for _ = 1 to 100 do
        ignore (Protocol.decode_response ack_payload)
      done);
  (* lang *)
  let session = Session.of_db db in
  repeat calls "lang.parse" (fun () -> ignore (Parser.parse (Model.append_text d.cat [ d.gen () ])));
  let returned = ref 0 in
  let (), lookup_counts =
    Trace.counted "lang.lookups" (fun () ->
        repeat 200 "lang.lookup_exec" (fun () ->
            let stmt = List.hd (Parser.parse (d.lookup ())) in
            match Trace.span "lang.exec" (fun () -> Analyze.exec session stmt) with
            | Analyze.Rows (_, tuples) -> returned := !returned + List.length tuples
            | _ -> failwith "probe: lookup returned no rows"))
  in
  let shown = Analyze.exec session (Ast.Show_view d.show) in
  let shown_rows = match shown with Analyze.Rows (_, t) -> List.length t | _ -> 1 in
  repeat 50 "lang.render" (fun () -> ignore (Format.asprintf "%a" Analyze.pp_result shown));
  (* exec: the same group commits at 1 and at 2 domains *)
  let at jobs =
    let db, _ = build ~jobs { d with preload = [] } in
    ignore (group_probe d db (Printf.sprintf "exec.jobs%d" jobs));
    Trace.median_us ~per:group_size (Printf.sprintf "exec.jobs%d.group" jobs)
  in
  let speedup = at 1 /. at 2 in
  (* durability *)
  repeat calls "durability.append" (fun () -> ignore (Db.append ddb chron [ Model.tuple (d.gen ()) ]));
  let stager = Group.create ~batch:max_int ddb in
  let (), stage_counts =
    Trace.counted "durability.group" (fun () ->
        for g = 1 to groups do
          for _ = 1 to group_size do
            Trace.span ~req:g "durability.stage" (fun () ->
                ignore (Group.stage stager [ (chron, [ Model.tuple (d.gen ()) ]) ]))
          done;
          Trace.span ~req:g "durability.flush" (fun () -> Group.flush stager)
        done)
  in
  let journal_bytes_per_row =
    match info.journal_bytes_per_row with
    | Some b -> b
    | None -> per_row stage_counts Stats.Journal_bytes (groups * group_size)
  in
  Durable.detach dur;
  (* recovery of the workload's storage, split *)
  let copy = Filename.concat info.work "probe-recover" in
  Util.copy_dir info.store copy;
  let storage = Storage.disk ~dir:copy in
  Trace.span "durability.recover" (fun () ->
      ignore
        (Trace.span "durability.journal_read" (fun () ->
             Journal.read storage Durable.journal_file));
      (match storage.Storage.read Durable.checkpoint_file with
      | Some text ->
          ignore (Trace.span "durability.checkpoint_load" (fun () -> Snapshot.load ~jobs:1 text))
      | None -> ());
      ignore (Trace.span "durability.recover_all" (fun () ->
          Durable.recover ~sync:Server_child.sync ~jobs:1 ~storage ())));
  let s name = Util.s_of_ns (Trace.total_ns name) in
  let journal_read_s = s "durability.journal_read"
  and checkpoint_load_s = s "durability.checkpoint_load" in
  (* the rest of [Durable.recover]; with an empty journal it is within
     the noise of the separately timed load, hence the floor *)
  let replay_s = Float.max 0. (s "durability.recover_all" -. journal_read_s -. checkpoint_load_s) in
  let chronicle_append = Trace.median_us "chronicle.append" in
  let heavy = count counts Stats.Heavy_probe and light = count counts Stats.Light_fold in
  [
    ("net.machine_append_us", machine_append, "us");
    ("net.machine_stmt_us", machine_stmt, "us");
    ( "net.socket_share",
      (match info.client_frame_us with
      | Some c -> (c -. machine_append) /. c
      | None -> 0.),
      "ratio" );
    ("net.encode_us", Trace.median_us ~per:100 "net.encode", "us");
    ("net.decode_us", Trace.median_us ~per:100 "net.decode", "us");
    ("lang.parse_us", Trace.median_us "lang.parse", "us");
    ("lang.lookup_exec_us", Trace.median_us "lang.exec", "us");
    ( "lang.rows_examined_per_lookup",
      float_of_int (count lookup_counts Stats.Tuple_read) /. float_of_int (max 1 !returned),
      "count" );
    ("lang.render_us_per_row", Trace.median_us ~per:shown_rows "lang.render", "us");
    ("chronicle.append_us", chronicle_append, "us");
    ("chronicle.retract_us", retract_us, "us");
    ("chronicle.group_us_per_row", Trace.median_us ~per:group_size "chronicle.group", "us");
    ("chronicle.views_per_row", per_row group_counts Stats.Plan_cache_hit (groups * group_size), "count");
    ("relational.tuple_read_per_row", per_row counts Stats.Tuple_read rows, "count");
    ("relational.agg_step_per_row", per_row counts Stats.Agg_step rows, "count");
    ("relational.index_probe_per_row", per_row counts Stats.Index_probe rows, "count");
    ( "relational.heavy_share",
      (if heavy + light = 0 then 0. else float_of_int heavy /. float_of_int (heavy + light)),
      "ratio" );
    ("relational.chronicle_scan_per_row", per_row counts Stats.Chronicle_scan rows, "count");
    ("exec.speedup_2", speedup, "ratio");
    ( "durability.journal_us_per_record",
      Trace.median_us "durability.append" -. chronicle_append,
      "us" );
    ("durability.stage_us", Trace.median_us "durability.stage", "us");
    ("durability.flush_us", Trace.median_us "durability.flush", "us");
    ( "durability.records_per_row",
      per_row stage_counts Stats.Journal_append (groups * group_size),
      "count" );
    ("durability.journal_bytes_per_row", journal_bytes_per_row, "B");
    ("durability.journal_read_s", journal_read_s, "s");
    ("durability.checkpoint_load_s", checkpoint_load_s, "s");
    ("durability.replay_s", replay_s, "s");
    ("trace.overhead", overhead, "ratio");
  ]
