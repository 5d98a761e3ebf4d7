(* Catalog descriptions shared by the program and the client-side
   model.  One description renders the ℒ catalog text the program
   receives and drives the plain hash-table aggregation the benchmark
   checks the program's views against.  Every column is INT, so view
   contents compare exactly (no float summation order). *)

open Relational

type agg = Sum of string | Count | Max of string | Min of string

type view = {
  vname : string;
  join : bool;  (** key join of the chronicle with the relation *)
  where : (string * int) option;  (** [attr >= literal] *)
  keys : string list;
  aggs : (agg * string) list;  (** aggregate, output column *)
}

type catalog = {
  chron : string;
  ccols : string list;  (** first column joins the relation's key *)
  full : bool;  (** RETAIN FULL (retraction needs it) *)
  rel : string;
  rcols : string list;  (** first column is the key *)
  views : view list;
}

let cols_text cols = String.concat ", " (List.map (fun c -> c ^ " INT") cols)

let agg_text = function
  | Sum c -> Printf.sprintf "SUM(%s)" c
  | Count -> "COUNT(*)"
  | Max c -> Printf.sprintf "MAX(%s)" c
  | Min c -> Printf.sprintf "MIN(%s)" c

let view_text cat v =
  let key = List.hd cat.ccols in
  Printf.sprintf "DEFINE VIEW %s AS SELECT %s FROM CHRONICLE %s%s%s GROUP BY %s;"
    v.vname
    (String.concat ", "
       (v.keys @ List.map (fun (a, out) -> agg_text a ^ " AS " ^ out) v.aggs))
    cat.chron
    (if v.join then Printf.sprintf " JOIN %s ON %s = %s" cat.rel key key else "")
    (match v.where with
    | Some (c, lit) -> Printf.sprintf " WHERE %s >= %d" c lit
    | None -> "")
    (String.concat ", " v.keys)

(* The catalog statements, without relation rows and views. *)
let schema_text cat =
  Printf.sprintf "CREATE RELATION %s (%s) KEY (%s);\nCREATE CHRONICLE %s (%s)%s;\n"
    cat.rel (cols_text cat.rcols) (List.hd cat.rcols) cat.chron
    (cols_text cat.ccols)
    (if cat.full then " RETAIN FULL" else "")

let views_text cat = String.concat "\n" (List.map (view_text cat) cat.views)

let row_text r =
  "(" ^ String.concat ", " (Array.to_list (Array.map string_of_int r)) ^ ")"

let values_text rows = String.concat ", " (List.map row_text rows)

let append_text cat rows =
  Printf.sprintf "APPEND INTO %s VALUES %s;" cat.chron (values_text rows)

let insert_text cat rows =
  Printf.sprintf "INSERT INTO %s VALUES %s;" cat.rel (values_text rows)

let values r = Array.to_list (Array.map (fun x -> Value.Int x) r)
let tuple r = Tuple.make (values r)

let ints_of_tuple t =
  List.init (Tuple.arity t) (fun i -> Value.to_int (Tuple.get t i))

let rec index_of x = function
  | [] -> None
  | y :: ys -> if x = y then Some 0 else Option.map succ (index_of x ys)

(* The relation as the model sees it: key → row. *)
type rel = (int, int array) Hashtbl.t

(* [expected cat rel iter] aggregates the live chronicle rows that
   [iter] enumerates, per view: a group exists while at least one live
   row falls in it.  Each view's rows come out sorted. *)
let expected cat (rel : rel) iter =
  let field c =
    match index_of c cat.ccols with
    | Some i -> fun (r, _) -> r.(i)
    | None -> (
        match index_of c cat.rcols with
        | Some i -> fun (_, (s : int array)) -> s.(i)
        | None -> invalid_arg ("model: unknown column " ^ c))
  in
  List.map
    (fun v ->
      let keyf = List.map field v.keys in
      let wheref = Option.map (fun (c, lit) -> (field c, lit)) v.where in
      let aggf =
        List.map
          (fun (a, _) ->
            match a with
            | Sum c -> (`Sum, field c)
            | Count -> (`Count, fun _ -> 1)
            | Max c -> (`Max, field c)
            | Min c -> (`Min, field c))
          v.aggs
      in
      let groups : (int list, int array) Hashtbl.t = Hashtbl.create 1024 in
      let empty = [| 0 |] in
      iter (fun r ->
          let s =
            if v.join then Hashtbl.find_opt rel r.(0) else Some empty
          in
          match s with
          | None -> ()
          | Some s ->
              let env = (r, s) in
              if match wheref with Some (f, lit) -> f env >= lit | None -> true
              then begin
                let k = List.map (fun f -> f env) keyf in
                match Hashtbl.find_opt groups k with
                | None ->
                    Hashtbl.add groups k
                      (Array.of_list (List.map (fun (_, f) -> f env) aggf))
                | Some acc ->
                    List.iteri
                      (fun i (kind, f) ->
                        let x = f env in
                        acc.(i) <-
                          (match kind with
                          | `Sum | `Count -> acc.(i) + x
                          | `Max -> max acc.(i) x
                          | `Min -> min acc.(i) x))
                      aggf
              end);
      let rows =
        Hashtbl.fold (fun k acc l -> (k @ Array.to_list acc) :: l) groups []
      in
      (v.vname, List.sort compare rows))
    cat.views

(* The rows of a rendered result ([Analyze.pp_result] text): every
   parenthesised group holding [name=value] pairs, in order. *)
let parse_rows text =
  String.split_on_char ')' text
  |> List.filter_map (fun chunk ->
         match String.rindex_opt chunk '(' with
         | None -> None
         | Some i ->
             let body = String.sub chunk (i + 1) (String.length chunk - i - 1) in
             if not (String.contains body '=') then None
             else
               Some
                 (String.split_on_char ',' body
                 |> List.map (fun kv ->
                        let kv = String.trim kv in
                        let j = String.index kv '=' in
                        int_of_string
                          (String.sub kv (j + 1) (String.length kv - j - 1)))))

(* Checks that failed in this run; a failure is reported on standard
   error and the run goes on, to report [correct: false]. *)
let mismatches = ref 0

let mismatch msg =
  incr mismatches;
  prerr_endline ("perfbench: check failed: " ^ msg)

let check_rows what ~expected ~actual =
  let actual = List.sort compare actual in
  if actual <> expected then begin
    let show r = "(" ^ String.concat "," (List.map string_of_int r) ^ ")" in
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (Some e, Some a)
      | e :: _, [] -> (Some e, None)
      | [], a :: _ -> (None, Some a)
      | [], [] -> (None, None)
    in
    let e, a = first_diff (expected, actual) in
    let opt = function Some r -> show r | None -> "-" in
    mismatch
      (Printf.sprintf "%s: %d rows expected, %d found; first difference %s vs %s"
         what (List.length expected) (List.length actual) (opt e) (opt a))
  end

(* The point query of view [v] for key [k] of its first group column. *)
let lookup_text v k =
  Printf.sprintf "SELECT %s FROM %s WHERE %s = %d;"
    (String.concat ", " (v.keys @ List.map snd v.aggs))
    v.vname (List.hd v.keys) k

let view cat name = List.find (fun v -> v.vname = name) cat.views
