open Relational

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

module Key_tree = Btree.Make (struct
  type t = Value.t list

  let compare = Value.compare_list
end)

(* The group table: either hash-backed (expected O(1) localization, with
   a side vector remembering insertion order) or B+-tree-backed
   (O(log |V|) worst case, ordered iteration). *)
type 'v backing =
  | Hash of 'v Key_tbl.t * Value.t list Vec.t
  | Tree of 'v Key_tree.t

(* Every entry carries a hidden ℤ-multiplicity: how many body-output
   occurrences support it.  The weight=+1 append path only ever
   increments it (invisible to the outside: set semantics and
   aggregate states are unchanged); the weighted retraction path
   decrements it and drops the entry exactly when it reaches zero. *)
type group = { mutable g_mult : int; g_states : Aggregate.state array }

type contents =
  | Groups of group backing (* Group_agg *)
  | Rows of int ref backing (* Project_out: a set of result tuples *)

(* Undo state for one transactional batch: keys added (most recent
   first — their [order] pushes are exactly the vector's tail) and a
   pre-touch snapshot (multiplicity + aggregate-state copy) of every
   entry the batch stepped.  For [Rows] views the state array is
   empty and only the multiplicity matters. *)
type txn = {
  tx_batches : int;
  mutable tx_added : Value.t list list;
  mutable tx_touched : (Value.t list * int * Aggregate.state array) list;
  tx_seen : unit Key_tbl.t; (* keys already saved or added this txn *)
}

type t = {
  def : Sca.t;
  body_schema : Schema.t;
  key_of : Tuple.t -> Tuple.t;
  aggs : Aggregate.call list;
  arg_pos : int option array;
  contents : contents;
  mutable batches : int;
  mutable txn : txn option;
      (* active transactional batch; [Db.append] brackets maintenance
         with [begin_txn] … [commit_txn]/[rollback_txn] so a mid-batch
         failure leaves no partially-maintained view observable *)
  heavy_threshold : int;
      (* promotion bar for the plan's key-join partitions; 0 = adaptive
         (see [Skew]) *)
  mutable plan : Delta.plan option;
      (* compiled body Δ-plan, built on first use and kept for the
         view's lifetime.  Redefining a view creates a fresh [t], so the
         cache is invalidated exactly when the definition changes. *)
}

let make_backing : type v. Index.kind -> v backing = function
  | Index.Hash -> Hash (Key_tbl.create 256, Vec.create ())
  | Index.Ordered -> Tree (Key_tree.create ())

let backing_find : type v. v backing -> Value.t list -> v option =
 fun b key ->
  Stats.incr Stats.Group_lookup;
  match b with
  | Hash (tbl, _) ->
      Stats.incr Stats.Index_probe;
      Key_tbl.find_opt tbl key
  | Tree tree -> Key_tree.find tree key

let backing_add : type v. v backing -> Value.t list -> v -> unit =
 fun b key v ->
  match b with
  | Hash (tbl, order) ->
      Key_tbl.add tbl key v;
      ignore (Vec.push order key)
  | Tree tree -> ignore (Key_tree.insert tree key v)

let backing_size : type v. v backing -> int = function
  | Hash (tbl, _) -> Key_tbl.length tbl
  | Tree tree -> Key_tree.length tree

let backing_iter : type v. (Value.t list -> v -> unit) -> v backing -> unit =
 fun f -> function
  | Hash (tbl, order) -> Vec.iter (fun key -> f key (Key_tbl.find tbl key)) order
  | Tree tree -> Key_tree.iter f tree

(* Removal support for the weighted (retraction) path.  A hash backing
   keeps insertion order in a side vector; removing from the table
   alone would leave a ghost key there and break [backing_iter], so
   callers that removed anything must run [backing_compact] before the
   view is next observed.  Compaction preserves the relative order of
   the surviving keys. *)
let backing_remove : type v. v backing -> Value.t list -> unit =
 fun b key ->
  match b with
  | Hash (tbl, _) -> Key_tbl.remove tbl key
  | Tree tree -> ignore (Key_tree.remove tree key)

let backing_compact : type v. v backing -> unit = function
  | Hash (tbl, order) ->
      let live =
        Vec.fold
          (fun acc key -> if Key_tbl.mem tbl key then key :: acc else acc)
          [] order
      in
      Vec.clear order;
      List.iter (fun key -> ignore (Vec.push order key)) (List.rev live)
  | Tree _ -> ()

let create ?(index = Index.Hash) ?(heavy_threshold = 0) def =
  let body_schema = Ca.schema_of (Sca.body def) in
  let key_of, aggs =
    match Sca.summarize def with
    | Sca.Project_out attrs -> (Tuple.projector body_schema attrs, [])
    | Sca.Group_agg (gl, al) -> (Tuple.projector body_schema gl, al)
  in
  let arg_pos =
    Array.of_list
      (List.map
         (fun (c : Aggregate.call) -> Option.map (Schema.pos body_schema) c.arg)
         aggs)
  in
  let contents =
    match Sca.summarize def with
    | Sca.Project_out _ -> Rows (make_backing index)
    | Sca.Group_agg _ -> Groups (make_backing index)
  in
  { def; body_schema; key_of; aggs; arg_pos; contents; batches = 0; txn = None;
    heavy_threshold; plan = None }

let def t = t.def
let name t = Sca.name t.def
let schema t = Sca.schema t.def

let plan t =
  match t.plan with
  | Some p ->
      Stats.incr Stats.Plan_cache_hit;
      p
  | None ->
      Stats.incr Stats.Plan_cache_miss;
      let p =
        Delta.compile ~heavy_threshold:t.heavy_threshold (Sca.body t.def)
      in
      t.plan <- Some p;
      p

let index_kind t =
  let kind : type v. v backing -> Index.kind = function
    | Hash _ -> Index.Hash
    | Tree _ -> Index.Ordered
  in
  match t.contents with
  | Rows backing -> kind backing
  | Groups backing -> kind backing

(* Undo bookkeeping: with a transaction active, remember every key this
   batch creates and a pre-touch copy of every state array it steps. *)
let txn_note_added t key =
  match t.txn with
  | None -> ()
  | Some tx ->
      tx.tx_added <- key :: tx.tx_added;
      Key_tbl.replace tx.tx_seen key ()

let txn_note_touched t key mult states =
  match t.txn with
  | None -> ()
  | Some tx ->
      if not (Key_tbl.mem tx.tx_seen key) then begin
        Key_tbl.replace tx.tx_seen key ();
        tx.tx_touched <- (key, mult, Array.copy states) :: tx.tx_touched
      end

let fresh_states t =
  Array.of_list
    (List.map (fun (c : Aggregate.call) -> Aggregate.init c.func) t.aggs)

let step_states t states tu =
  List.iteri
    (fun i (c : Aggregate.call) ->
      let arg =
        match t.arg_pos.(i) with
        | None -> Value.Int 1 (* COUNT over the whole tuple *)
        | Some p -> Tuple.get tu p
      in
      states.(i) <- Aggregate.step c.func states.(i) arg)
    t.aggs

let apply_delta t delta =
  t.batches <- t.batches + 1;
  match t.contents with
  | Rows backing ->
      List.iter
        (fun tu ->
          let key = Array.to_list (t.key_of tu) in
          match backing_find backing key with
          | Some r ->
              (* set semantics: already present; only the hidden
                 multiplicity moves *)
              txn_note_touched t key !r [||];
              incr r
          | None ->
              Stats.incr Stats.Tuple_write;
              backing_add backing key (ref 1);
              txn_note_added t key)
        delta
  | Groups backing ->
      List.iter
        (fun tu ->
          let key = Array.to_list (t.key_of tu) in
          let states =
            match backing_find backing key with
            | Some g ->
                txn_note_touched t key g.g_mult g.g_states;
                g.g_mult <- g.g_mult + 1;
                g.g_states
            | None ->
                let g = { g_mult = 1; g_states = fresh_states t } in
                Stats.incr Stats.Tuple_write;
                backing_add backing key g;
                txn_note_added t key;
                g.g_states
          in
          step_states t states tu)
        delta

let maintain t ~sn ~batch = apply_delta t (Delta.run (plan t) ~sn ~batch)

(* ---- weighted (ℤ-delta) maintenance: the retraction path ---- *)

(* Undo one [step_states] in place.  [`Reprobe] means some call could
   not invert (MIN/MAX losing its extremum); states may then be left
   partially inverted — the caller resets and refolds the whole group,
   so partial damage is unobservable. *)
let unstep_states t states tu =
  let inverted =
    List.mapi
      (fun i (c : Aggregate.call) ->
        let arg =
          match t.arg_pos.(i) with
          | None -> Value.Int 1
          | Some p -> Tuple.get tu p
        in
        Aggregate.unstep c.func states.(i) arg)
      t.aggs
  in
  if List.exists (function Aggregate.Reprobe -> true | _ -> false) inverted
  then `Reprobe
  else begin
    List.iteri
      (fun i inv ->
        match inv with
        | Aggregate.Inverted st -> states.(i) <- st
        | Aggregate.Reprobe -> assert false)
      inverted;
    `Inverted
  end

(* Apply a ℤ-weighted view-output delta: weight [w > 0] folds the tuple
   in [w] times, [w < 0] retracts [-w] occurrences.  An entry whose
   multiplicity reaches zero is removed.  Groups whose aggregates
   cannot invert are marked, then recomputed from a single evaluation
   of [body ()] — the view body's full output over the {e already
   mutated} base — bumping [Stats.Aggregate_reprobe] once per marked
   group.  Never called on the append fast path, and never inside a
   transactional batch (retraction undo is [dump_w]/[restore_w]). *)
let apply_weighted t ~body wdelta =
  if t.txn <> None then invalid_arg "View.apply_weighted: transaction active";
  let removed = ref false in
  let drop : type v. v backing -> Value.t list -> unit =
   fun backing key ->
    Stats.incr Stats.Tuple_write;
    backing_remove backing key;
    removed := true
  in
  (match t.contents with
  | Rows backing ->
      List.iter
        (fun (tu, w) ->
          if w <> 0 then
            let key = Array.to_list (t.key_of tu) in
            match backing_find backing key with
            | Some r ->
                let m = !r + w in
                if m < 0 then
                  invalid_arg "View.apply_weighted: negative multiplicity"
                else if m = 0 then drop backing key
                else r := m
            | None ->
                if w < 0 then
                  invalid_arg "View.apply_weighted: retracting an absent row";
                Stats.incr Stats.Tuple_write;
                backing_add backing key (ref w))
        wdelta
  | Groups backing ->
      let reprobe = Key_tbl.create 8 in
      let add t_ g tu w =
        for _ = 1 to w do step_states t_ g.g_states tu done;
        g.g_mult <- g.g_mult + w
      in
      let retract g key tu w =
        (try
           for _ = 1 to -w do
             match unstep_states t g.g_states tu with
             | `Inverted -> g.g_mult <- g.g_mult - 1
             | `Reprobe ->
                 Key_tbl.replace reprobe key ();
                 raise Exit
           done
         with Exit -> ());
        if not (Key_tbl.mem reprobe key) then
          if g.g_mult < 0 then
            invalid_arg "View.apply_weighted: negative multiplicity"
          else if g.g_mult = 0 then drop backing key
      in
      List.iter
        (fun (tu, w) ->
          if w <> 0 then begin
            let key = Array.to_list (t.key_of tu) in
            if not (Key_tbl.mem reprobe key) then
              if w > 0 then begin
                let g =
                  match backing_find backing key with
                  | Some g -> g
                  | None ->
                      let g = { g_mult = 0; g_states = fresh_states t } in
                      Stats.incr Stats.Tuple_write;
                      backing_add backing key g;
                      g
                in
                add t g tu w
              end
              else
                match backing_find backing key with
                | None ->
                    invalid_arg
                      "View.apply_weighted: retracting an absent group"
                | Some g -> retract g key tu w
          end)
        wdelta;
      if Key_tbl.length reprobe > 0 then begin
        (* some MIN/MAX group lost its extremum: reset every marked
           group and refold it from one post-mutation body scan *)
        Key_tbl.iter
          (fun key () ->
            match backing_find backing key with
            | Some g ->
                g.g_mult <- 0;
                let fresh = fresh_states t in
                Array.blit fresh 0 g.g_states 0 (Array.length fresh)
            | None -> assert false)
          reprobe;
        List.iter
          (fun tu ->
            let key = Array.to_list (t.key_of tu) in
            if Key_tbl.mem reprobe key then
              match backing_find backing key with
              | Some g ->
                  step_states t g.g_states tu;
                  g.g_mult <- g.g_mult + 1
              | None -> assert false)
          (body ());
        Key_tbl.iter
          (fun key () ->
            Stats.incr Stats.Aggregate_reprobe;
            match backing_find backing key with
            | Some g when g.g_mult = 0 -> drop backing key
            | _ -> ())
          reprobe
      end);
  if !removed then
    match t.contents with
    | Rows backing -> backing_compact backing
    | Groups backing -> backing_compact backing

(* ---- transactional batches ---- *)

let begin_txn t =
  match t.txn with
  | Some _ -> invalid_arg "View.begin_txn: transaction already active"
  | None ->
      t.txn <-
        Some
          {
            tx_batches = t.batches;
            tx_added = [];
            tx_touched = [];
            tx_seen = Key_tbl.create 8;
          }

let in_txn t = Option.is_some t.txn
let commit_txn t = t.txn <- None

let backing_remove_added : type v. v backing -> Value.t list list -> unit =
 fun b keys ->
  match b with
  | Hash (tbl, order) ->
      (* the added keys are exactly the most recent [order] pushes *)
      List.iter (Key_tbl.remove tbl) keys;
      Vec.truncate order (Vec.length order - List.length keys)
  | Tree tree -> List.iter (fun key -> ignore (Key_tree.remove tree key)) keys

let rollback_txn t =
  match t.txn with
  | None -> invalid_arg "View.rollback_txn: no active transaction"
  | Some tx ->
      (match t.contents with
      | Rows backing ->
          backing_remove_added backing tx.tx_added;
          List.iter
            (fun (key, mult, _) ->
              match backing_find backing key with
              | Some r -> r := mult
              | None -> assert false (* touched keys were pre-existing *))
            tx.tx_touched
      | Groups backing ->
          backing_remove_added backing tx.tx_added;
          List.iter
            (fun (key, mult, saved) ->
              match backing_find backing key with
              | Some g ->
                  g.g_mult <- mult;
                  Array.blit saved 0 g.g_states 0 (Array.length saved)
              | None -> assert false (* touched keys were pre-existing *))
            tx.tx_touched);
      t.batches <- tx.tx_batches;
      t.txn <- None

let of_initial ?index ?heavy_threshold def initial =
  let t = create ?index ?heavy_threshold def in
  apply_delta t initial;
  t.batches <- 0;
  t

let row_of t key states =
  Tuple.make
    (key
    @ List.mapi
        (fun i (c : Aggregate.call) -> Aggregate.final c.func states.(i))
        t.aggs)

let lookup t key =
  match t.contents with
  | Rows backing ->
      Option.map (fun (_ : int ref) -> Tuple.make key) (backing_find backing key)
  | Groups backing ->
      Option.map (fun g -> row_of t key g.g_states) (backing_find backing key)

let multiplicity t key =
  match t.contents with
  | Rows backing -> (
      match backing_find backing key with Some r -> !r | None -> 0)
  | Groups backing -> (
      match backing_find backing key with Some g -> g.g_mult | None -> 0)

let size t =
  match t.contents with
  | Rows backing -> backing_size backing
  | Groups backing -> backing_size backing

let iter f t =
  match t.contents with
  | Rows backing ->
      backing_iter (fun key (_ : int ref) -> f (Tuple.make key)) backing
  | Groups backing ->
      backing_iter (fun key g -> f (row_of t key g.g_states)) backing

let to_list t =
  let acc = ref [] in
  iter (fun tu -> acc := tu :: !acc) t;
  List.rev !acc

let materialize t =
  let rel = Relation.create ~name:(name t) ~schema:(schema t) () in
  iter (fun tu -> ignore (Relation.insert rel tu)) t;
  rel

let maintained_batches t = t.batches

type dump =
  | Groups_dump of (Value.t list * Aggregate.state list) list
  | Rows_dump of Value.t list list

let dump t =
  match t.contents with
  | Rows backing ->
      let acc = ref [] in
      backing_iter (fun key (_ : int ref) -> acc := key :: !acc) backing;
      Rows_dump (List.rev !acc)
  | Groups backing ->
      let acc = ref [] in
      backing_iter
        (fun key g -> acc := (key, Array.to_list g.g_states) :: !acc)
        backing;
      Groups_dump (List.rev !acc)

let load t dump =
  if size t <> 0 then invalid_arg "View.load: view is not empty";
  match t.contents, dump with
  | Rows backing, Rows_dump keys ->
      List.iter (fun key -> backing_add backing key (ref 1)) keys
  | Groups backing, Groups_dump groups ->
      List.iter
        (fun (key, states) ->
          if List.length states <> List.length t.aggs then
            invalid_arg "View.load: aggregate-state arity mismatch";
          backing_add backing key
            { g_mult = 1; g_states = Array.of_list states })
        groups
  | Rows _, Groups_dump _ | Groups _, Rows_dump _ ->
      invalid_arg "View.load: dump shape does not match the view kind"

(* ---- multiplicity-preserving dumps (retraction undo / snapshots) ----

   {!dump}/{!load} predate ℤ-weighted deltas and project the hidden
   multiplicities out (load defaults them to 1); these variants carry
   them, so a view restored through [restore_w] maintains correctly
   under later retractions. *)

type dump_w =
  | Groups_dump_w of (Value.t list * int * Aggregate.state list) list
  | Rows_dump_w of (Value.t list * int) list

let dump_w t =
  match t.contents with
  | Rows backing ->
      let acc = ref [] in
      backing_iter (fun key r -> acc := (key, !r) :: !acc) backing;
      Rows_dump_w (List.rev !acc)
  | Groups backing ->
      let acc = ref [] in
      backing_iter
        (fun key g -> acc := (key, g.g_mult, Array.to_list g.g_states) :: !acc)
        backing;
      Groups_dump_w (List.rev !acc)

let load_w t dump =
  if size t <> 0 then invalid_arg "View.load_w: view is not empty";
  match t.contents, dump with
  | Rows backing, Rows_dump_w keys ->
      List.iter (fun (key, mult) -> backing_add backing key (ref mult)) keys
  | Groups backing, Groups_dump_w groups ->
      List.iter
        (fun (key, mult, states) ->
          if List.length states <> List.length t.aggs then
            invalid_arg "View.load_w: aggregate-state arity mismatch";
          backing_add backing key
            { g_mult = mult; g_states = Array.of_list states })
        groups
  | Rows _, Groups_dump_w _ | Groups _, Rows_dump_w _ ->
      invalid_arg "View.load_w: dump shape does not match the view kind"

let backing_clear : type v. v backing -> unit = function
  | Hash (tbl, order) ->
      Key_tbl.reset tbl;
      Vec.clear order
  | Tree tree ->
      (* Btree has no [clear]; drain it key by key *)
      List.iter
        (fun (key, _) -> ignore (Key_tree.remove tree key))
        (Key_tree.to_list tree)

let restore_w t dump =
  (match t.contents with
  | Rows backing -> backing_clear backing
  | Groups backing -> backing_clear backing);
  load_w t dump

let pp ppf t =
  Format.fprintf ppf "@[<v2>view %a [%d rows, %d batches]" Sca.pp t.def (size t)
    t.batches;
  iter (fun tu -> Format.fprintf ppf "@,%a" (Tuple.pp_with (schema t)) tu) t;
  Format.fprintf ppf "@]"
