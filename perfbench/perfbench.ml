(* perfbench — the chronicle benchmark.

     perfbench run --workload teller|feed|fanout --seed N --seconds S --trace 0|1
     perfbench serve ...   (the server child; started by the workloads)

   [run] prints one JSON object as the last line of standard output:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  Progress and the per-layer self-time table go to
   standard error. *)

let json_of_outcome (o : Util.outcome) =
  let metric (name, value, unit_) =
    if not (Float.is_finite value) then invalid_arg ("metric " ^ name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!Model.mismatches = 0) o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

let run ~workload ~seed ~seconds ~trace =
  Trace.on := trace;
  let outcome, (info : Util.info), desc =
    match workload with
    | "teller" -> Teller.run ~seed ~seconds
    | "feed" -> Feed.run ~seed ~seconds
    | "fanout" -> Fanout.run ~seed ~seconds ~traced:trace
    | w -> failwith ("unknown workload " ^ w)
  in
  let outcome =
    if not trace then outcome
    else begin
      let metrics = Probes.run desc info in
      let path = Filename.concat Util.work_root (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Trace.write path;
      let layers = Trace.self_by_layer () in
      let total = List.fold_left (fun a (_, ns) -> a + ns) 0 layers in
      Printf.eprintf "self time by layer (spans written to %s):\n" path;
      List.iter
        (fun (layer, ns) ->
          Printf.eprintf "  %-12s %10.1f ms  %5.1f%%\n" layer (Util.s_of_ns ns *. 1e3)
            (100. *. float_of_int ns /. float_of_int total))
        layers;
      { outcome with Util.metrics }
    end
  in
  Util.rm_rf info.work;
  print_endline (json_of_outcome outcome)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && v <> "" && v.[0] <> '-' ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), "") :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  match args with
  | "serve" :: rest ->
      let o = opts [] rest in
      let get k = List.assoc k o in
      Server_child.main ~dir:(get "dir") ~socket:(get "socket")
        ~recover:(List.mem_assoc "recover" o)
        ~report:(get "report")
  | "run" :: rest -> (
      let o = opts [] rest in
      let get k = List.assoc k o in
      let workload = get "workload" in
      try
        run ~workload ~seed:(int_of_string (get "seed"))
          ~seconds:(float_of_string (get "seconds"))
          ~trace:(get "trace" = "1")
      with e ->
        Util.kill_children ();
        Util.rm_rf (Util.work_dir workload);
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 1)
  | _ ->
      prerr_endline "usage: perfbench run --workload W --seed N --seconds S --trace 0|1";
      exit 2
