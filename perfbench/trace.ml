(* Spans for the traced run.  A span is recorded around one call into
   a layer of the program; it carries a name ("layer.what"), start and
   end (monotonic ns), the id of the span that caused it (0 = none) and
   the id of the request it belongs to.  Spans stay in memory and are
   written out once, at the end of the run.  When tracing is off
   [span] is one branch around the call. *)

type span = {
  id : int;
  name : string;
  start : int;
  stop : int;
  parent : int;
  req : int;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let enter () =
  incr next_id;
  !next_id

(* [span name ~req f] runs [f] and, when tracing, records it; spans
   opened inside [f] get this one as their parent. *)
let span ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id = enter () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Util.now_ns () in
    let finish () =
      let stop = Util.now_ns () in
      stack := List.tl !stack;
      spans := { id; name; start; stop; parent; req } :: !spans
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

let dur s = s.stop - s.start

let named name = List.filter (fun s -> s.name = name) !spans

(* Median duration of the spans called [name], in µs, each divided by
   [per] (the number of calls one span wraps). *)
let median_us ?(per = 1) name =
  match named name with
  | [] -> invalid_arg ("trace: no span " ^ name)
  | l -> Util.median (List.map (fun s -> Util.us_of_ns (dur s) /. float_of_int per) l)

let total_ns name = List.fold_left (fun acc s -> acc + dur s) 0 (named name)

(* Self time per layer: each span's duration minus the part its child
   spans cover, summed by the prefix of its name. *)
let self_by_layer () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    !spans;
  let layers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let layer =
        match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name
      in
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      Hashtbl.replace layers layer
        (self + Option.value ~default:0 (Hashtbl.find_opt layers layer)))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) layers [])

(* Work counters taken at span boundaries: [counted name f] runs [f]
   as a span and keeps the {!Relational.Stats} delta across it. *)
let counts : (string * (Relational.Stats.counter * int) list) list ref = ref []

let counted name f =
  let before = Relational.Stats.snapshot () in
  let x = span name f in
  let d = Relational.Stats.diff before (Relational.Stats.snapshot ()) in
  counts := (name, d) :: !counts;
  (x, d)

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}\n"
            s.id s.name s.start s.stop s.parent s.req)
        (List.rev !spans);
      List.iter
        (fun (name, d) ->
          Printf.fprintf oc "{\"counts\":\"%s\",%s}\n" name
            (String.concat ","
               (List.map
                  (fun (c, n) ->
                    Printf.sprintf "\"%s\":%d" (Relational.Stats.counter_name c) n)
                  d)))
        (List.rev !counts))

(* A span timed by the caller (requests completed out of call order). *)
let record ~req name ~start ~stop =
  if !on then spans := { id = enter (); name; start; stop; parent = 0; req } :: !spans
