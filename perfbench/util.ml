(* Clock, sample statistics and process helpers shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

(* [percentile xs p] with linear interpolation between closest ranks;
   [xs] need not be sorted.  Raises on an empty sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty sample";
  Array.sort compare a;
  let r = p *. float_of_int (n - 1) in
  let lo = truncate r in
  let hi = min (n - 1) (lo + 1) in
  let w = r -. float_of_int lo in
  (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = percentile xs 0.5

(* [l] cut into consecutive pieces of [n] elements (the last shorter). *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: xs ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 xs else go acc (x :: cur) (k + 1) xs
  in
  go [] [] 0 l

(* Growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let to_list t = Array.to_list (Array.sub t.a 0 t.n)

  (* The 90th percentile of each tenth of the sample, in the order it
     was taken, and the median of those ten: one stall of the machine
     moves one tenth, not the figure. *)
  let p90_of_tenths t =
    let k = t.n / 10 in
    median
      (List.init 10 (fun i -> percentile (Array.to_list (Array.sub t.a (i * k) k)) 0.9))

  let percentile t p = percentile (to_list t) p
  let median t = percentile t 0.5
end

(* Peak resident set of this process, or of the process [pid], in MB
   (VmHWM). *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Copy the regular files of [src] into a fresh directory [dst] — a
   restart reads its own copy, as a restarted machine would. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f ->
      let p = Filename.concat src f in
      if (Unix.stat p).Unix.st_kind = Unix.S_REG then
        write_file (Filename.concat dst f) (read_file p))
    (Sys.readdir src)

(* Every file the benchmark writes lives under this directory of the
   checkout it runs from (ignored by git and by dune). *)
let work_root = Filename.concat "perfbench" "_work"

let work_dir name = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let fresh_work_dir name =
  let d = work_dir name in
  rm_rf d;
  mkdir_p d;
  d

let children = ref []

(* Run this executable again with a subcommand, its output sent to our
   standard error so the result line stays the last line of stdout. *)
let spawn_self args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  pid

(* Stop and reap every child still running (after an error). *)
let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let wait_ok what pid =
  let status = snd (Unix.waitpid [] pid) in
  children := List.filter (( <> ) pid) !children;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "%s exited with code %d" what n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "%s killed by signal %d" what n)

(* A child's report: "key value" lines. *)
let read_report path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             Some
               ( String.sub l 0 i,
                 float_of_string (String.sub l (i + 1) (String.length l - i - 1))
               )
         | None -> None)

let write_report path kvs =
  write_file path
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %.17g\n" k v) kvs))

(* What one workload run reports. *)
(* Operation and row rates over consecutive windows of a run, reported
   as the median window: a stall of the machine over part of the run
   moves a few windows, not the figure. *)
module Windows = struct
  type t = { mutable mark : int * int * int; ops : Sample.t; rows : Sample.t }

  let create () = { mark = (now_ns (), 0, 0); ops = Sample.create (); rows = Sample.create () }

  (* Start a window at these counts; the time since the last is left out. *)
  let restart t ~ops ~rows = t.mark <- (now_ns (), ops, rows)

  (* Close the current window at these counts and start the next. *)
  let close t ~ops ~rows =
    let t0, o, r = t.mark in
    let secs = s_of_ns (now_ns () - t0) in
    Sample.add t.ops (float_of_int (ops - o) /. secs);
    Sample.add t.rows (float_of_int (rows - r) /. secs);
    restart t ~ops ~rows

  (* (ops/s, rows/s): the median window's, or the whole run's if no
     window closed. *)
  let rates t ~ops ~rows ~elapsed =
    if Sample.count t.ops = 0 then (float_of_int ops /. elapsed, float_of_int rows /. elapsed)
    else (Sample.median t.ops, Sample.median t.rows)
end

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Median of [n] timed runs of [f]; returns it with the last result. *)
let median_of_runs n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    let t0 = now_ns () in
    let x = f () in
    times := s_of_ns (now_ns () - t0) :: !times;
    (match !last with Some (_, cleanup) -> cleanup () | None -> ());
    last := Some x
  done;
  match !last with
  | Some (x, _) -> (median !times, x)
  | None -> invalid_arg "median_of_runs"

(* What a traced run hands the layer probes besides its outcome. *)
type info = {
  work : string;  (** the run's work directory; the caller removes it *)
  store : string;  (** a storage directory recovery is split on *)
  journal_bytes_per_row : float option;  (** of the run's own journal *)
  client_frame_us : float option;
      (** client time per APPEND frame over the socket: the round trip
          (closed loop), or the inverse of the median window's frame
          rate (pipelined) *)
  run_counts : ((Relational.Stats.counter * int) list * int) option;
      (** work counters of an in-process run, with its rows *)
}

(* Rows of [width] ints kept outside the OCaml heap, so a model of a
   long run adds nothing to the collector's work in the process that
   holds the database. *)
module Rows = struct
  open Bigarray

  type t = { width : int; mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create width = { width; a = Array1.create int c_layout (width * 65536); n = 0 }

  let add t r =
    if (t.n + 1) * t.width > Array1.dim t.a then begin
      let b = Array1.create int c_layout (2 * Array1.dim t.a) in
      Array1.blit t.a (Array1.sub b 0 (Array1.dim t.a));
      t.a <- b
    end;
    Array.iteri (fun i x -> t.a.{(t.n * t.width) + i} <- x) r;
    t.n <- t.n + 1

  let length t = t.n

  (* [iter ?upto t f] calls [f] on the first [upto] rows (all by default). *)
  let iter ?upto t f =
    for j = 0 to Option.value ~default:t.n upto - 1 do
      f (Array.init t.width (fun i -> t.a.{(j * t.width) + i}))
    done
end
