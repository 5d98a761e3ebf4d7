(* The server process of the teller and feed workloads, and of every
   restart: one durable database behind [Server.serve] on a
   Unix-domain socket.  The benchmark starts it as a child process
   ([perfbench serve ...]) so the database lives in its own heap, as it
   would in a deployment.  On SHUTDOWN it writes a report (recovery
   time, peak resident memory) for the client to read.

   The journal is written with sync policy [never]: the benchmark
   writes only inside its checkout, whose disk would put device flush
   latency (tens of microseconds to milliseconds per fsync) into every
   acknowledgement.  The program's journal encode and write path stays
   measured; the device flush does not.  Every server runs at 1 domain
   (see the README's Steadiness section). *)

open Chronicle_core
open Chronicle_durability
open Chronicle_net

let sync = Journal.Sync_never

let main ~dir ~socket ~recover ~report =
  let storage = Storage.disk ~dir in
  let durable, recover_s =
    if recover then begin
      let t0 = Util.now_ns () in
      let d, _ = Durable.recover ~sync ~jobs:1 ~storage () in
      (d, Util.s_of_ns (Util.now_ns () - t0))
    end
    else (Durable.attach ~sync ~storage (Db.create ~jobs:1 ()), 0.)
  in
  let server = Server.create (Durable.db durable) in
  Server.serve server (Server.listen_unix socket);
  Util.write_report report
    [ ("recover_s", recover_s); ("peak_rss_mb", Util.peak_rss_mb ()) ]

(* A running server as the client holds it. *)
type t = { pid : int; socket : string; report : string; conn : Conn.t }

(* Start a server child on storage [dir] (recovering it first with
   [recover]) and connect to it.  The socket path is relative to the
   checkout, so it stays short whatever the checkout's path. *)
let start ?(recover = false) ~dir ~tag () =
  let base = Filename.concat (Filename.dirname dir) tag in
  let socket = base ^ ".sock" and report = base ^ ".report" in
  let pid =
    Util.spawn_self
      ([ "serve"; "--dir"; dir; "--socket"; socket; "--report"; report ]
      @ if recover then [ "--recover" ] else [])
  in
  { pid; socket; report; conn = Conn.connect socket }

(* SHUTDOWN, wait for the process, and return its report. *)
let stop t =
  Conn.shutdown t.conn;
  Util.wait_ok "server" t.pid;
  let r = Util.read_report t.report in
  Util.rm_rf t.report;
  Util.rm_rf t.socket;
  r
