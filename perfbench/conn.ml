(* A client connection to the chronicle server over a Unix-domain
   socket: blocking writes of encoded requests, and reads that return
   every response a read completed.  A one-at-a-time exchange polls for
   its answer instead of sleeping in [read] (see [recv1]). *)

open Chronicle_net

type t = { fd : Unix.file_descr; mutable pending : string }

let connect path =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < 600 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (attempt + 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  { fd = go 0; pending = "" }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_bytes t s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring t.fd s !sent (len - !sent)
  done

let send t req = send_bytes t (Protocol.encode_request req)

let chunk = Bytes.create 65536

(* Read once (blocking) and return every response completed by it. *)
let read_responses t =
  match Unix.read t.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise End_of_file
  | n ->
      let data = t.pending ^ Bytes.sub_string chunk 0 n in
      let rec frames pos acc =
        match Wire.split data ~pos with
        | `Frame (payload, next) ->
            frames next (Protocol.decode_response payload :: acc)
        | `Need_more ->
            t.pending <- String.sub data pos (String.length data - pos);
            List.rev acc
      in
      frames 0 []

(* Wait for the next response, polling the socket without sleeping.
   Only for one-at-a-time exchanges, where no second response can be
   buffered behind it.  A client that sleeps in [read] leaves its vCPU
   idle between requests, and on the 2-vCPU virtual machine the
   figures were taken on that made teller's append round trip switch
   between a 38 µs and a 65 µs median from one run to the next (its
   95th percentile between 650 µs and 1.2 ms, and the point lookups by
   a tenth); a polling client read the faster figures in the runs where
   the sleeping one read the slower. *)
let rec recv1 t =
  while
    let readable, _, _ = Unix.select [ t.fd ] [] [] 0. in
    readable = []
  do
    ()
  done;
  match read_responses t with
  | [ r ] -> r
  | [] -> recv1 t
  | _ -> failwith "conn: more than one response to one request"

let call t req =
  send t req;
  recv1 t

let fail_response what = function
  | Protocol.Err { kind; message } ->
      failwith
        (Printf.sprintf "%s: %s error: %s" what (Protocol.err_kind_name kind)
           message)
  | _ -> failwith (what ^ ": unexpected response")

(* Run ℒ text that answers with one RESULT per statement. *)
let stmt t text =
  send t (Protocol.Stmt text);
  let want = List.length (Client.split_statements text) in
  let rec collect got acc =
    if got = want then List.rev acc
    else
      let rs = read_responses t in
      let acc =
        List.fold_left
          (fun acc r ->
            match r with
            | Protocol.Result s -> s :: acc
            | r -> fail_response text r)
          acc rs
      in
      collect (got + List.length rs) acc
  in
  collect 0 []

let shutdown t =
  send t Protocol.Shutdown;
  (try
     match recv1 t with
     | Protocol.Bye -> ()
     | r -> fail_response "shutdown" r
   with End_of_file -> ());
  close t
