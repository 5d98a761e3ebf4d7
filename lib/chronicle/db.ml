open Relational

exception Unknown of string
exception Read_only of string

(* Catalog changes and transactions, as seen by a durability layer.  The
   sink (when installed — see {!set_txn_sink}) receives [Ev_append]
   *before* any state mutates (write-ahead), [Ev_abort] when a batch is
   rolled back, and the DDL/clock events after the catalog operation
   succeeds. *)
type txn_event =
  | Ev_append of {
      group : string;
      sn : Seqnum.t;
      batch : (string * Tuple.t list) list;
    }
  | Ev_group of {
      group : string;
      entries : (Seqnum.t * (string * Tuple.t list) list) list;
    }
  | Ev_insert of { relation : string; rows : Tuple.t list; at : int }
  | Ev_retract of {
      chronicle : string;
      entries : (Seqnum.t * Tuple.t list) list;
    }
  | Ev_clock of { group : string; chronon : Seqnum.chronon }
  | Ev_add_group of { name : string; clock_start : Seqnum.chronon option }
  | Ev_add_chronicle of {
      name : string;
      group : string;
      retention : Chron.retention;
      schema : Schema.t;
    }
  | Ev_add_relation of {
      name : string;
      group : string;
      schema : Schema.t;
      key : string list option;
    }
  | Ev_define_view of { def : Sca.t; index : Index.kind }
  | Ev_drop_view of { name : string }
  | Ev_abort of { group : string; sn : Seqnum.t }

type t = {
  groups : (string, Group.t) Hashtbl.t;
  chronicles : (string, Chron.t) Hashtbl.t;
  relations : (string, Versioned.t) Hashtbl.t;
  registry : Registry.t;
  default_group : string;
  pool : Exec.Pool.t;
      (* the Δ-maintenance executor: [jobs = 1] (default) keeps the
         historical strictly-sequential transaction path; [jobs > 1]
         partitions the affected views of each batch across domains *)
  heavy_threshold : int;
      (* promotion bar for the heavy-light key partition of every
         view's key-join Δ-sites; 0 = adaptive (see [Skew]) *)
  mutable batch_hooks : (sn:Seqnum.t -> batch:Delta.batch -> unit) list;
  mutable txn_sink : (txn_event -> unit) option;
  mutable fold_probe : (view:string -> sn:Seqnum.t -> unit) option;
  mutable read_only : string option;
      (* degraded mode: [Some reason] rejects every mutation with
         [Read_only] while queries keep serving — set by salvage
         recovery and by the durability layer when it can no longer
         guarantee that writes reach stable storage *)
}

let unknown kind name =
  raise (Unknown (Printf.sprintf "%s %S is not in the catalog" kind name))

let create ?(default_group = "main") ?(jobs = 1) ?(heavy_threshold = 0) () =
  let t =
    {
      groups = Hashtbl.create 4;
      chronicles = Hashtbl.create 16;
      relations = Hashtbl.create 16;
      registry = Registry.create ();
      default_group;
      pool = Exec.Pool.create ~jobs ();
      heavy_threshold;
      batch_hooks = [];
      txn_sink = None;
      fold_probe = None;
      read_only = None;
    }
  in
  Hashtbl.add t.groups default_group (Group.create default_group);
  t

let pool t = t.pool
let heavy_threshold t = t.heavy_threshold

let set_txn_sink t sink = t.txn_sink <- sink
let set_fold_probe t probe = t.fold_probe <- probe
let emit t ev = match t.txn_sink with Some f -> f ev | None -> ()

let set_read_only t reason = t.read_only <- reason
let read_only t = t.read_only

let check_writable t op =
  match t.read_only with
  | Some reason ->
      raise
        (Read_only (Printf.sprintf "Db.%s: database is read-only (%s)" op reason))
  | None -> ()

let add_group t ?clock_start name =
  check_writable t "add_group";
  if Hashtbl.mem t.groups name then
    invalid_arg (Printf.sprintf "Db.add_group: group %S already exists" name);
  let g = Group.create ?clock_start name in
  Hashtbl.add t.groups name g;
  emit t (Ev_add_group { name; clock_start });
  g

let group t name =
  match Hashtbl.find_opt t.groups name with
  | Some g -> g
  | None -> unknown "group" name

let default_group t = group t t.default_group

let add_chronicle t ?group:gname ?retention ~name schema =
  check_writable t "add_chronicle";
  if Hashtbl.mem t.chronicles name then
    invalid_arg (Printf.sprintf "Db.add_chronicle: %S already exists" name);
  let gname = Option.value ~default:t.default_group gname in
  let g = group t gname in
  let c = Chron.create ~group:g ?retention ~name schema in
  Hashtbl.add t.chronicles name c;
  emit t
    (Ev_add_chronicle
       { name; group = gname; retention = Chron.retention c; schema });
  c

let chronicle t name =
  match Hashtbl.find_opt t.chronicles name with
  | Some c -> c
  | None -> unknown "chronicle" name

let add_relation t ?group:gname ~name ~schema ?key () =
  check_writable t "add_relation";
  if Hashtbl.mem t.relations name then
    invalid_arg (Printf.sprintf "Db.add_relation: %S already exists" name);
  let gname = Option.value ~default:t.default_group gname in
  let g = group t gname in
  let r = Versioned.create ~group:g ~name ~schema ?key () in
  Hashtbl.add t.relations name r;
  emit t (Ev_add_relation { name; group = gname; schema; key });
  r

let relation t name =
  match Hashtbl.find_opt t.relations name with
  | Some r -> r
  | None -> unknown "relation" name

let names_of tbl =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) tbl [])

let group_names t = names_of t.groups
let chronicle_names t = names_of t.chronicles
let relation_names t = names_of t.relations

let define_view t ?index ?(tier_limit = Classify.IM_poly_r) def =
  check_writable t "define_view";
  let report = Classify.sca def in
  if not (Classify.im_subseteq report.Classify.view_im tier_limit) then
    raise
      (Ca.Ill_formed
         (Format.asprintf
            "view %s is in %s, outside this database's limit %s:@ %a"
            (Sca.name def)
            (Classify.im_class_name report.Classify.view_im)
            (Classify.im_class_name tier_limit)
            Classify.pp_report report));
  let body = Sca.body def in
  let has_history =
    List.exists (fun c -> Chron.total_appended c > 0) (Ca.chronicles body)
  in
  let view =
    if has_history then
      (* bulk (re)materialization over retained history: with jobs > 1
         this is the parallel scan/aggregate kernel (Plan.compile_parallel);
         at jobs = 1 it is exactly the sequential evaluator *)
      match Eval.eval_parallel t.pool body with
      | initial ->
          View.of_initial ?index ~heavy_threshold:t.heavy_threshold def initial
      | exception Chron.Not_retained msg ->
          raise
            (Ca.Ill_formed
               (Printf.sprintf
                  "view %s cannot be initialized: %s.  Define views before \
                   appending, or give the chronicle a retention policy that \
                   still covers its history"
                  (Sca.name def) msg))
    else View.create ?index ~heavy_threshold:t.heavy_threshold def
  in
  Registry.register t.registry view;
  emit t (Ev_define_view { def; index = View.index_kind view });
  view

let view t name =
  match Registry.find t.registry name with
  | Some v -> v
  | None -> unknown "view" name

let drop_view t name =
  check_writable t "drop_view";
  match Registry.find t.registry name with
  | Some _ ->
      Registry.unregister t.registry name;
      emit t (Ev_drop_view { name })
  | None -> unknown "view" name

let views t = Registry.views t.registry
let classify_view t name = Classify.sca (View.def (view t name))
let registry t = t.registry

let on_batch t hook = t.batch_hooks <- hook :: t.batch_hooks
let has_batch_hooks t = t.batch_hooks <> []

(* ---- the commit core ----

   Every append — a live append, a group commit, the journal's final
   record at recovery, a recovery replay window — is one [commit] over a
   list of entries [(group, sn, resolved batch)]:

     validate every entry (nothing that can never commit is journaled)
     → emit the write-ahead record (live commits only)
     → mark every chronicle the entries touch, every relation and each
       group watermark (atomic commits only)
     → per entry, in order: skip it if its sn is at or below its group's
       watermark (the recovery-idempotence case), else claim the sn,
       record the batch, flush the relation updates that have come due
       and compute the affected views
     → fold: per-view chains on the pool — a view folds its batches in
       record order; distinct views' folds are independent by the
       maintenance theorem — run at the end, after every entry with a
       history-reading affected view (recording further batches could
       evict the ring-retained tuples its Δ still needs), and after
       every entry while relation updates are pending (a later entry's
       [flush_pending] must not be visible to an earlier entry's fold)
     → commit the marks, then notify subscribers and batch hooks in
       record order, strictly post-commit.

   Any failure between mark and commit rolls the whole commit back —
   every begun view, chronicle, relation and watermark — bumps
   [Stats.Rollback], emits [Ev_abort] for a journaled commit and
   re-raises: an atomic commit is never partially visible.  A recovery
   window is not atomic: it takes no undo marks (the bookkeeping is what
   makes per-record replay slow), observers fire after each fold run,
   and a failure leaves the database partially replayed — recovery then
   discards it.  Failures are wrapped in [Commit_error] with the index of
   the lowest failing entry, deterministic at every degree because
   distinct views' chains do not interact; atomic entry points re-raise
   the underlying error. *)

exception Commit_error of { index : int; error : exn }

type mode =
  | Journaled of txn_event (* a live commit: write-ahead record, atomic *)
  | Atomic (* the journal's final record: atomic, not re-journaled *)
  | Window (* a recovery window: neither journaled nor undoable *)

let at index f =
  try f () with
  | Commit_error _ as e -> raise e
  | error -> raise (Commit_error { index; error })

let unwrap f = try f () with Commit_error { error; _ } -> raise error

let dedup name = function
  | ([] | [ _ ]) as xs -> xs
  | xs ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun x ->
          let k = name x in
          (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
        xs

let reads_history_view v = Ca.reads_history (Sca.body (View.def v))

let validate ~op i (g, _, batch) =
  at i (fun () ->
      if batch = [] then invalid_arg (Printf.sprintf "Db.%s: empty batch" op);
      List.iter
        (fun (c, tuples) ->
          if not (Group.same (Chron.group c) g) then
            invalid_arg
              (Printf.sprintf "Db.%s: chronicle %s is not in group %s" op
                 (Chron.name c) (Group.name g));
          Chron.check_batch c tuples)
        batch)

let record t g sn batch =
  Group.claim_sn g sn;
  let tagged =
    List.map (fun (c, tuples) -> (c, Chron.record c sn tuples)) batch
  in
  (* future-effective relation updates that have come due take effect
     before the views see this batch (they are proactive for [sn]) *)
  Hashtbl.iter
    (fun _ r -> Versioned.flush_pending r ~upto:(sn - 1))
    t.relations;
  let affected =
    match tagged with
    | [ (c, tg) ] -> Registry.affected t.registry c tg (* each view once *)
    | _ ->
        dedup View.name
          (List.concat_map
             (fun (c, tg) -> Registry.affected t.registry c tg)
             tagged)
  in
  (tagged, affected)

(* One view's fold of one recorded entry, reporting a failure with the
   entry's index. *)
let fold_view t v ~index ~sn ~tagged =
  try
    (match t.fold_probe with
    | Some probe -> probe ~view:(View.name v) ~sn
    | None -> ());
    View.maintain v ~sn ~batch:tagged
  with error -> raise (Commit_error { index; error })

(* The fold scheduler: run per-view chains of folds on the pool — at
   [jobs = 1] inline, in chain order — and re-raise the failure of the
   lowest entry index (the first chain's among equals).  Every fold
   reports its failure as a [Commit_error]. *)
let run_folds t chains =
  let failures = Exec.Pool.run_chains t.pool (Array.of_list chains) in
  let lowest =
    Array.fold_left
      (fun acc failure ->
        match (acc, failure) with
        | None, _ -> failure
        | ( Some (Commit_error { index = j; _ }),
            Some (Commit_error { index; _ }) )
          when index < j ->
            failure
        | _ -> acc)
      None failures
  in
  Option.iter raise lowest

let commit t ~op mode entries =
  check_writable t op;
  List.iteri (validate ~op) entries;
  let atomic = match mode with Window -> false | Journaled _ | Atomic -> true in
  (match mode with Journaled ev -> emit t ev | Atomic | Window -> ());
  let chron_marks, rel_marks, wm_marks =
    if not atomic then ([], [], [])
    else
      ( List.map
          (fun c -> (c, Chron.mark c))
          (dedup Chron.name
             (List.concat_map (fun (_, _, b) -> List.map fst b) entries)),
        Hashtbl.fold
          (fun _ r acc -> (r, Versioned.mark r) :: acc)
          t.relations [],
        List.map
          (fun g -> (g, Group.watermark g))
          (dedup Group.name (List.map (fun (g, _, _) -> g) entries)) )
  in
  let interleave =
    Hashtbl.fold
      (fun _ r acc -> acc || Versioned.pending_count r > 0)
      t.relations false
    || ((not atomic) && t.batch_hooks <> [])
  in
  let outcomes = Array.make (List.length entries) false in
  let last = Array.length outcomes - 1 in
  let begun = ref [] in
  (* recorded entries [(index, sn, tagged, affected)], newest first:
     those not yet folded, and all of them for the post-commit
     observers of an atomic commit *)
  let recorded = ref [] and unfolded = ref [] in
  let observe recs =
    List.iter
      (fun (_, sn, tagged, _) ->
        List.iter (fun (c, tg) -> Chron.notify c sn tg) tagged)
      recs;
    List.iter
      (fun (_, sn, tagged, _) ->
        List.iter (fun hook -> hook ~sn ~batch:tagged) (List.rev t.batch_hooks))
      recs
  in
  let fold () =
    let recs = List.rev !unfolded in
    unfolded := [];
    let chains =
      match recs with
      | [ (index, sn, tagged, affected) ] ->
          (* one entry: [affected] already lists each view once *)
          List.map
            (fun v -> (v, [| (fun () -> fold_view t v ~index ~sn ~tagged) |]))
            affected
      | recs ->
          (* chains in order of first appearance: deterministic, since
             recording runs in entry order and [Registry.affected] lists
             views in registration order *)
          let order = ref [] and chains = Hashtbl.create 8 in
          List.iter
            (fun (index, sn, tagged, affected) ->
              List.iter
                (fun v ->
                  let name = View.name v in
                  let chain =
                    match Hashtbl.find_opt chains name with
                    | Some chain -> chain
                    | None ->
                        let chain = ref [] in
                        Hashtbl.add chains name chain;
                        order := (v, chain) :: !order;
                        chain
                  in
                  chain :=
                    (fun () -> fold_view t v ~index ~sn ~tagged) :: !chain)
                affected)
            recs;
          List.rev_map
            (fun (v, chain) -> (v, Array.of_list (List.rev !chain)))
            !order
    in
    (* txn brackets are per-view bookkeeping: open them on the
       submitting domain before the pool touches anything *)
    if atomic then
      List.iter
        (fun (v, _) ->
          if not (View.in_txn v) then begin
            View.begin_txn v;
            begun := v :: !begun
          end)
        chains;
    run_folds t (List.map snd chains);
    if not atomic then observe recs
  in
  let apply () =
    List.iteri
      (fun i (g, sn, batch) ->
        at i (fun () ->
            if sn > Group.watermark g then begin
              let tagged, affected = record t g sn batch in
              outcomes.(i) <- true;
              if atomic then recorded := (i, sn, tagged, affected) :: !recorded;
              unfolded := (i, sn, tagged, affected) :: !unfolded;
              (* the last entry's folds run below in any case *)
              if
                i < last
                && (interleave || List.exists reads_history_view affected)
              then fold ()
            end))
      entries;
    if !unfolded <> [] then fold ()
  in
  if not atomic then apply ()
  else begin
    match apply () with
    | () ->
        List.iter View.commit_txn !begun;
        List.iter (fun (r, _) -> Versioned.commit r) rel_marks;
        List.iter (fun (c, _) -> Chron.commit c) chron_marks;
        (* a committed group record is one group commit, counted before
           the observers run (one of them may raise) *)
        (match mode with
        | Journaled (Ev_group { entries; _ }) ->
            Stats.incr Stats.Group_commit;
            Stats.record_max Stats.Group_size_max (List.length entries)
        | _ -> ());
        observe (List.rev !recorded)
    | exception e ->
        List.iter View.rollback_txn !begun;
        List.iter (fun (r, m) -> Versioned.rollback r m) rel_marks;
        List.iter (fun (c, m) -> Chron.rollback c m) chron_marks;
        List.iter (fun (g, wm) -> Group.rollback_watermark g wm) wm_marks;
        Stats.incr Stats.Rollback;
        (match (mode, entries) with
        | Journaled _, (g, sn, _) :: _ ->
            emit t (Ev_abort { group = Group.name g; sn })
        | _ -> ());
        raise e
  end;
  outcomes

(* ---- the entry points: what each caller knows ---- *)

let resolve_batch t batch =
  List.map (fun (cname, tuples) -> (chronicle t cname, tuples)) batch

let batch_names batch =
  List.map (fun (c, tuples) -> (Chron.name c, tuples)) batch

let append_one t g batch =
  let sn = Group.watermark g + 1 in
  let ev = Ev_append { group = Group.name g; sn; batch = batch_names batch } in
  ignore
    (unwrap (fun () ->
         commit t ~op:"append" (Journaled ev) [ (g, sn, batch) ]));
  sn

let append t cname tuples =
  let c = chronicle t cname in
  append_one t (Chron.group c) [ (c, tuples) ]

let append_multi t ?group:gname batch =
  append_one t
    (group t (Option.value ~default:t.default_group gname))
    (resolve_batch t batch)

let append_group t ?group:gname batches =
  let g = group t (Option.value ~default:t.default_group gname) in
  if batches = [] then invalid_arg "Db.append_group: empty group";
  let wm = Group.watermark g in
  let entries =
    List.mapi (fun i batch -> (g, wm + 1 + i, resolve_batch t batch)) batches
  in
  let ev =
    Ev_group
      {
        group = Group.name g;
        entries =
          List.map (fun (_, sn, batch) -> (sn, batch_names batch)) entries;
      }
  in
  ignore
    (unwrap (fun () -> commit t ~op:"append_group" (Journaled ev) entries));
  List.map (fun (_, sn, _) -> sn) entries

type replay_entry = {
  rgroup : string;
  rsn : Seqnum.t;
  rbatch : (string * Tuple.t list) list;
}

let resolve_entries t entries =
  List.mapi
    (fun i { rgroup; rsn; rbatch } ->
      at i (fun () -> (group t rgroup, rsn, resolve_batch t rbatch)))
    entries

let replay t entries = commit t ~op:"replay" Window (resolve_entries t entries)

let replay_group t entries =
  if entries = [] then invalid_arg "Db.replay_group: empty group";
  unwrap (fun () ->
      commit t ~op:"replay_group" Atomic (resolve_entries t entries))

(* Relation-row inserts follow the same write-ahead discipline as
   appends: validate every row, emit [Ev_insert] carrying the relation's
   pre-insert cardinality (the replay-idempotence marker: a checkpoint
   taken after the insert already holds the rows, and its cardinality
   exceeds [at], so recovery skips the record), then mutate under an
   undo mark.  A failure mid-batch (e.g. a key violation on a later row)
   rolls the relation back and emits [Ev_abort] so the journal erases
   the write-ahead record — rows land all-or-nothing. *)
let insert_rows t rname rows =
  check_writable t "insert_rows";
  let r = relation t rname in
  let rel = Versioned.relation r in
  let schema = Relation.schema rel in
  List.iter
    (fun row ->
      if not (Tuple.type_check schema row) then
        invalid_arg
          (Printf.sprintf "Db.insert_rows: row does not match the schema of %s"
             rname))
    rows;
  if rows <> [] then begin
    emit t (Ev_insert { relation = rname; rows; at = Relation.cardinality rel });
    let m = Versioned.mark r in
    match List.iter (fun row -> Versioned.insert r row) rows with
    | () -> Versioned.commit r
    | exception e ->
        Versioned.rollback r m;
        Stats.incr Stats.Rollback;
        let g = Versioned.group r in
        emit t (Ev_abort { group = Group.name g; sn = Group.watermark g });
        raise e
  end

(* ---- the retraction path (ℤ-weighted deltas) ----

   Retraction removes stored occurrences from a Full-retention
   chronicle and propagates the change to the persistent views as a
   weighted (weight −1) delta: COUNT/SUM-class aggregates invert in
   O(1) per group, MIN/MAX groups that lose their extremum re-probe
   retained history, and views whose bodies read history outright
   ([Ca.CrossChron]/[Ca.ThetaJoinChron]) are rematerialized.  The
   protocol mirrors the append path — validate → journal (write-ahead
   [Ev_retract]) → snapshot → mutate → apply — but the undo is coarse:
   a pre-mutation [View.dump_w] per affected view plus the chronicle's
   stored window, restored wholesale on any failure (retraction is
   rare; paying O(|V|) for an airtight rollback beats threading a
   weighted undo log through every operator). *)

let untag tu = Array.sub tu 1 (Array.length tu - 1)

(* Whether the body contains an operator whose weighted delta is
   computed by diffing its own plain evaluation over the at-sn slices
   (see [Delta.run_weighted]) — only then are the slices needed. *)
let rec nonlinear_body = function
  | Ca.Chronicle _ -> false
  | Ca.Select (_, e) | Ca.Project (_, e) -> nonlinear_body e
  | Ca.ProductRel (e, _) | Ca.KeyJoinRel (e, _, _) -> nonlinear_body e
  | Ca.SeqJoin _ | Ca.Union _ | Ca.Diff _ | Ca.GroupBySeq _ -> true
  | Ca.CrossChron _ | Ca.ThetaJoinChron _ -> true

(* Rebuild a history-reading view from retained history in place
   (weighted deltas cannot unwind it: its old output depended on
   history that has just changed). *)
let rematerialize t v =
  let initial = Eval.eval_parallel t.pool (Sca.body (View.def v)) in
  let empty =
    match View.dump_w v with
    | View.Rows_dump_w _ -> View.Rows_dump_w []
    | View.Groups_dump_w _ -> View.Groups_dump_w []
  in
  View.restore_w v empty;
  View.apply_delta v initial

(* Retract the given user rows at one sequence number and propagate the
   weighted delta to every non-history-reading affected view (the
   caller rematerializes the history readers once at the end). *)
let retract_at t c ~sn ~rows =
  let tagged = List.map (Chron.tag sn) rows in
  let wbatch = [ (c, List.map (fun tu -> (tu, -1)) tagged) ] in
  let live =
    List.filter
      (fun v -> not (reads_history_view v))
      (dedup View.name (Registry.affected t.registry c tagged))
  in
  (* at-sn before-slices, taken pre-mutation, only where the compiled
     plan will actually diff them *)
  let prepared =
    List.map
      (fun v ->
        let body = Sca.body (View.def v) in
        let slice_chrons =
          if nonlinear_body body then Ca.chronicles body else []
        in
        let before =
          List.map (fun ch -> (ch, Chron.at_sn ch sn)) slice_chrons
        in
        (v, body, slice_chrons, before))
      live
  in
  Chron.remove_stored c sn rows;
  let apply_one (v, body, slice_chrons, before) =
    let after = List.map (fun ch -> (ch, Chron.at_sn ch sn)) slice_chrons in
    let wdelta =
      Delta.run_weighted (View.plan v) ~sn ~wbatch ~before ~after
    in
    View.apply_weighted v ~body:(fun () -> Eval.eval body) wdelta
  in
  (* one single-fold chain per view on the commit core's scheduler; the
     first failing view's exception re-raises into the coarse undo *)
  unwrap (fun () ->
      run_folds t
        (List.map
           (fun p -> [| (fun () -> at 0 (fun () -> apply_one p)) |])
           prepared))

(* Apply fully resolved retraction entries ([(sn, user rows)] with sn
   ascending) under the write-ahead + coarse-undo bracket. *)
let retract_resolved t c entries =
  let cname = Chron.name c in
  emit t (Ev_retract { chronicle = cname; entries });
  let affected =
    dedup View.name
      (List.concat_map
         (fun (sn, rows) ->
           Registry.affected t.registry c (List.map (Chron.tag sn) rows))
         entries)
  in
  let saved_views = List.map (fun v -> (v, View.dump_w v)) affected in
  let saved_store = Chron.stored c in
  let g = Chron.group c in
  match
    List.iter (fun (sn, rows) -> retract_at t c ~sn ~rows) entries;
    List.iter
      (fun v -> if reads_history_view v then rematerialize t v)
      affected
  with
  | () -> Stats.incr Stats.Retract_apply
  | exception e ->
      Chron.reset_store c saved_store;
      List.iter (fun (v, d) -> View.restore_w v d) saved_views;
      Stats.incr Stats.Rollback;
      emit t (Ev_abort { group = Group.name g; sn = Group.watermark g });
      raise e

(* Resolve requested user rows to stored occurrences, newest occurrence
   first per row (deterministic), and group the claims by sequence
   number ascending. *)
let resolve_retraction c rows =
  let stored = Array.of_list (Chron.stored c) in
  let n = Array.length stored in
  let claimed = Array.make n false in
  List.iter
    (fun row ->
      let rec claim i =
        if i < 0 then
          invalid_arg
            (Format.asprintf
               "Db.retract %s: tuple %a has no retained occurrence left"
               (Chron.name c) Tuple.pp row)
        else if (not claimed.(i)) && Tuple.equal (untag stored.(i)) row then
          claimed.(i) <- true
        else claim (i - 1)
      in
      claim (n - 1))
    rows;
  (* stored order is oldest-to-newest, so one left-to-right sweep groups
     the claims by ascending sn with in-store order within each sn *)
  let by_sn = ref [] in
  Array.iteri
    (fun i tu ->
      if claimed.(i) then begin
        let sn = Chron.sn_of tu in
        let row = untag tu in
        match !by_sn with
        | (sn', rows') :: rest when sn' = sn ->
            by_sn := (sn, row :: rows') :: rest
        | _ -> by_sn := (sn, [ row ]) :: !by_sn
      end)
    stored;
  List.rev_map (fun (sn, rows) -> (sn, List.rev rows)) !by_sn

let retract t cname rows =
  check_writable t "retract";
  let c = chronicle t cname in
  (match Chron.retention c with
  | Chron.Full -> ()
  | Chron.Discard | Chron.Window _ ->
      invalid_arg
        (Printf.sprintf
           "Db.retract %s: retraction requires Full retention (stored \
            occurrences must be addressable)"
           cname));
  Chron.check_batch c rows;
  if rows = [] then 0
  else begin
    retract_resolved t c (resolve_retraction c rows);
    List.length rows
  end

(* Recovery replay of a journaled [Ev_retract].  Idempotence marker:
   occurrences already absent from the store (the checkpoint was taken
   after the retraction applied) are skipped; if nothing survives the
   record is a no-op and [false] is returned. *)
let replay_retract t cname entries =
  check_writable t "replay_retract";
  let c = chronicle t cname in
  let surviving =
    List.filter_map
      (fun (sn, rows) ->
        let avail = ref (List.map untag (Chron.at_sn c sn)) in
        let take row =
          let rec go seen = function
            | [] -> false
            | p :: rest when Tuple.equal p row ->
                avail := List.rev_append seen rest;
                true
            | p :: rest -> go (p :: seen) rest
          in
          go [] !avail
        in
        match List.filter take rows with
        | [] -> None
        | present -> Some (sn, present))
      entries
  in
  match surviving with
  | [] -> false
  | surviving ->
      retract_resolved t c surviving;
      true

let advance_clock t ?group:gname chronon =
  check_writable t "advance_clock";
  let gname = Option.value ~default:t.default_group gname in
  Group.advance_clock (group t gname) chronon;
  emit t (Ev_clock { group = gname; chronon })

let summary t ~view:vname key = View.lookup (view t vname) key
let view_contents t vname = View.to_list (view t vname)
