module Json = Flux_json.Json
module Api = Flux_cmb.Api
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar
module Engine = Flux_sim.Engine

type watch_state = {
  w_key : string;
  mutable w_last : Json.t option;
  mutable w_active : bool;
  w_cb : Json.t option -> unit;
}

type t = {
  api : Api.t;
  mutable pending : Proto.tuple list; (* this handle's transaction, reversed *)
  mutable watches : watch_state list;
  mutable watch_subscribed : bool;
}

let connect sess ~rank =
  { api = Api.connect sess ~rank; pending = []; watches = []; watch_subscribed = false }

let unit_reply = function Ok _ -> Ok () | Error e -> Error e

let put t ~key v =
  match Api.rpc t.api ~topic:"kvs.put" (Json.obj [ ("key", Json.string key); ("v", v) ]) with
  | Ok reply ->
    (* The broker returns the content address; the (key, sha) tuple
       stays in this handle's transaction until commit/fence. *)
    t.pending <- { Proto.key; sha = Proto.put_reply_sha reply } :: t.pending;
    Ok ()
  | Error e -> Error e

let get t ~key =
  (* Reads are side-effect free: retransmit on timeout so a parent dying
     mid-get resolves through the healed topology. *)
  match
    Api.rpc t.api ~idempotent:true ~topic:"kvs.get"
      (Json.obj [ ("key", Json.string key) ])
  with
  | Ok payload -> Ok (Proto.load_reply_value payload)
  | Error e -> Error e

let version_reply = function
  | Ok payload -> Ok (Json.to_int (Json.member "version" payload))
  | Error e -> Error e

let commit t =
  let tuples = List.rev t.pending in
  match
    version_reply
      (Api.rpc t.api ~topic:"kvs.commit"
         (Json.obj [ ("tuples", Proto.tuples_to_json tuples) ]))
  with
  | Ok v ->
    t.pending <- [];
    Ok v
  | Error e -> Error e

let abort t = t.pending <- []

let fence ?(timeout = infinity) t ~name ~nprocs =
  let tuples = List.rev t.pending in
  (* A fence blocks until all [nprocs] participants enter: no deadline by
     default. Fault-tolerant callers pass [timeout] so a fence whose
     aggregated contributions died with a master can be abandoned. *)
  match
    version_reply
      (Api.rpc t.api ~timeout ~topic:"kvs.fence"
         (Json.obj
            [
              ("name", Json.string name);
              ("nprocs", Json.int nprocs);
              ("tuples", Proto.tuples_to_json tuples);
            ]))
  with
  | Ok v ->
    t.pending <- [];
    Ok v
  | Error e ->
    (* This participant is abandoning the collective (typically its
       deadline fired), so the fence can never complete: clear the
       name's aggregation state up the tree — without the abort, this
       handle's contribution stays parked in the master's pending map
       and a retried fence under the same name collides with it.
       Asynchronous and best effort: if the fence in fact completed
       (only this reply was lost), the name is no longer registered
       anywhere and the abort is a no-op. *)
    Api.rpc_async t.api ~timeout:5.0 ~topic:"kvs.fenceabort"
      (Json.obj [ ("name", Json.string name) ])
      ~reply:(fun _ -> ());
    Error e

let get_version t =
  version_reply (Api.rpc t.api ~idempotent:true ~topic:"kvs.getversion" Json.null)

let get_root t =
  match Api.rpc t.api ~idempotent:true ~topic:"kvs.getroot" Json.null with
  | Ok payload -> Ok (Proto.commit_reply_decode payload)
  | Error e -> Error e

let wait_version t v =
  (* Blocks until the store reaches version [v]: no deadline. *)
  unit_reply
    (Api.rpc t.api ~timeout:infinity ~topic:"kvs.waitversion"
       (Json.obj [ ("version", Json.int v) ]))

(* Watches re-get the key on every root update; because of the hash-tree
   organization a watched directory changes whenever any key beneath it
   changes. *)
let refresh_watch t (w : watch_state) =
  Api.rpc_async t.api ~topic:"kvs.get"
    (Json.obj [ ("key", Json.string w.w_key) ])
    ~reply:(fun r ->
      if w.w_active then begin
        let current =
          match r with Ok payload -> Some (Proto.load_reply_value payload) | Error _ -> None
        in
        let changed =
          match (w.w_last, current) with
          | None, None -> false
          | Some a, Some b -> not (Json.equal a b)
          | None, Some _ | Some _, None -> true
        in
        if changed then begin
          w.w_last <- current;
          w.w_cb current
        end
      end)

let ensure_subscription t =
  if not t.watch_subscribed then begin
    t.watch_subscribed <- true;
    Api.subscribe t.api ~prefix:"kvs.setroot" (fun ~topic:_ _payload ->
        List.iter (fun w -> if w.w_active then refresh_watch t w) t.watches)
  end

let watch t ~key cb =
  ensure_subscription t;
  let initial =
    match get t ~key with Ok v -> Some v | Error _ -> None
  in
  let w = { w_key = key; w_last = initial; w_active = true; w_cb = cb } in
  t.watches <- w :: t.watches;
  cb initial;
  Ok ()

let unwatch t ~key =
  List.iter (fun w -> if String.equal w.w_key key then w.w_active <- false) t.watches;
  t.watches <- List.filter (fun w -> not (String.equal w.w_key key)) t.watches
