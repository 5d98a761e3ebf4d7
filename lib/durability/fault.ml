exception Crash of string
exception Sync_failed of string

(* [hit] is called from the transaction path, which at [jobs > 1] folds
   affected views on several domains concurrently — the [view-fold]
   crash point in particular fires from pool workers.  A mutex
   serializes all mutation of the table and the countdowns; at most
   one concurrent prober wins the race to crash (the others see
   [dead = true] and pass through), mirroring a real machine where one
   fault takes the process down once. *)
type t = {
  lock : Mutex.t;
  armed : (string, int ref) Hashtbl.t; (* remaining hits before firing *)
  mutable torn : (int ref * int) option; (* appends before firing, bytes kept *)
  mutable sync_fail : (int ref * int ref) option;
      (* (healthy syncs left, failures left): transient — the storage
         raises [Sync_failed] instead of crashing, modelling an I/O
         error the durability layer may retry through *)
  mutable dead : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create () =
  { lock = Mutex.create (); armed = Hashtbl.create 8;
    torn = None; sync_fail = None; dead = false }

let arm t ?(after = 0) name =
  if after < 0 then invalid_arg "Fault.arm: negative countdown";
  locked t (fun () -> Hashtbl.replace t.armed name (ref after))

let hit t name =
  let fire =
    locked t (fun () ->
        if t.dead then false
        else
          match Hashtbl.find_opt t.armed name with
          | Some remaining when !remaining = 0 ->
              Hashtbl.remove t.armed name;
              t.dead <- true;
              true
          | Some remaining ->
              decr remaining;
              false
          | None -> false)
  in
  if fire then raise (Crash name)

let is_dead t = t.dead

let arm_torn_write ?(after = 0) t ~keep =
  if after < 0 || keep < 0 then invalid_arg "Fault.arm_torn_write";
  locked t (fun () -> t.torn <- Some (ref after, keep))

let arm_sync_failures ?(after = 0) t ~fails =
  if after < 0 || fails <= 0 then invalid_arg "Fault.arm_sync_failures";
  locked t (fun () -> t.sync_fail <- Some (ref after, ref fails))

let wrap_storage t (s : Storage.t) =
  {
    s with
    Storage.append =
      (fun name data ->
        (* decide under the lock, perform storage I/O outside it *)
        let tear =
          locked t (fun () ->
              match t.torn with
              | Some (remaining, keep) when (not t.dead) && !remaining = 0 ->
                  t.torn <- None;
                  t.dead <- true;
                  Some keep
              | Some (remaining, _) when not t.dead ->
                  decr remaining;
                  None
              | _ -> None)
        in
        match tear with
        | Some keep ->
            s.Storage.append name
              (String.sub data 0 (min keep (String.length data)));
            raise (Crash "torn-write")
        | None -> s.Storage.append name data);
    Storage.sync =
      (fun name ->
        let fail =
          locked t (fun () ->
              match t.sync_fail with
              | Some (healthy, remaining) when not t.dead ->
                  if !healthy > 0 then begin
                    decr healthy;
                    false
                  end
                  else begin
                    decr remaining;
                    if !remaining <= 0 then t.sync_fail <- None;
                    true
                  end
              | _ -> false)
        in
        if fail then raise (Sync_failed name) else s.Storage.sync name);
  }

let flip_bit (s : Storage.t) ~name ~byte ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Fault.flip_bit: bit out of range";
  match s.Storage.read name with
  | None -> invalid_arg (Printf.sprintf "Fault.flip_bit: %S is absent" name)
  | Some data ->
      if byte < 0 || byte >= String.length data then
        invalid_arg "Fault.flip_bit: byte offset out of range";
      let b = Bytes.of_string data in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      s.Storage.write name (Bytes.unsafe_to_string b)
