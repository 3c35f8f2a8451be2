module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Api = Flux_cmb.Api
module Treemath = Flux_util.Treemath
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar

(* Per-rank coordination state of the cross-shard fence protocol.  The
   protocol is decentralized: phase-1 prepare announcements ride the
   sequenced event plane, so every live rank observes the same prepare
   order and computes the same composite — there is no coordinator rank
   to lose. *)
type xfence = {
  xf_roots : Proto.root_info option array; (* best prepare seen, per volume *)
  mutable xf_release : (unit -> unit) list; (* parked releases of local masters *)
  mutable xf_done : bool; (* every shard prepared; composite recorded *)
}

type coord = {
  co_fences : (string, xfence) Hashtbl.t; (* base fence name -> state *)
  mutable co_order : string list; (* completion order, newest first *)
  mutable co_epoch : int; (* cross-shard fence epoch: merges completed *)
  mutable co_last : Proto.composite option;
}

type t = {
  sess : Session.t;
  n_shards : int;
  masters : int array;
  instances : Kvs_module.t array array; (* [volume].[rank] *)
  coords : coord array; (* [rank] *)
  mutable next_cid : int; (* stamps client fan-out RPCs for dedup *)
}

let master_rank t i = t.masters.(i)
let instance t ~volume ~rank = t.instances.(volume).(rank)

let service_of i = Printf.sprintf "kvs-%d" i

(* The volume's aggregation tree is the session's k-ary tree relabeled
   so that the *current* master is rank 0 of the virtual numbering, and
   healed like the session tree: a dead interior rank's children attach
   to its nearest live virtual ancestor. Mastership moves the whole
   labeling (the routing closures receive the believed master), so a
   failed-over volume re-roots at its successor. *)
let volume_routing sess ~volume ~master:static_master rank =
  let n = Session.size sess in
  let k = Session.fanout sess in
  let virtual_of master r = ((r - master) mod n + n) mod n in
  let actual_of master v = (v + master) mod n in
  let live r = not (Session.is_down sess r) in
  let rec healed_parent master r =
    match Treemath.parent ~k (virtual_of master r) with
    | None -> None
    | Some pv ->
      let p = actual_of master pv in
      if live p then Some p else healed_parent master p
  in
  {
    Kvs_module.rt_service = service_of volume;
    rt_master = static_master;
    rt_parent =
      (fun ~master -> if rank = master then None else healed_parent master rank);
    rt_children =
      (fun ~master ->
        List.filter
          (fun c -> c <> rank && live c && healed_parent master c = Some rank)
          (List.init n Fun.id));
    rt_direct = true;
  }

(* --- Key routing ------------------------------------------------------------ *)

(* A key is legal when no path component is empty: an empty first
   component would hash every such key onto one fixed shard, and empty
   interior components are never resolvable in the hash tree anyway. *)
let check_key key =
  if String.length key = 0 then Error "volumes: empty key"
  else if not (Tree.valid_key key) then
    Error (Printf.sprintf "volumes: key %S has an empty path component" key)
  else Ok ()

(* djb2 over the first path component: stable and spread. *)
let volume_for_key t key =
  match check_key key with
  | Error _ as e -> e
  | Ok () ->
    let first =
      match String.index_opt key '.' with
      | Some i -> String.sub key 0 i
      | None -> key
    in
    let h = ref 5381 in
    String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) first;
    Ok (!h mod t.n_shards)

let volume_of_key t key =
  match volume_for_key t key with Ok v -> v | Error e -> invalid_arg e

(* --- Cross-shard fence coordination ----------------------------------------- *)

let xprepare_topic = "kvsx.prepare"

let xname base vol = Printf.sprintf "%s-v%d" base vol

(* Parse "<base>-v<vol>" back; [None] when the name is not one of ours. *)
let parse_xname name =
  match String.rindex_opt name '-' with
  | None -> None
  | Some i ->
    let len = String.length name in
    if i + 2 < len && name.[i + 1] = 'v' then
      match int_of_string_opt (String.sub name (i + 2) (len - i - 2)) with
      | Some vol when vol >= 0 -> Some (String.sub name 0 i, vol)
      | _ -> None
    else None

let coord_fence c ~shards base =
  match Hashtbl.find_opt c.co_fences base with
  | Some xf -> xf
  | None ->
    let xf = { xf_roots = Array.make shards None; xf_release = []; xf_done = false } in
    Hashtbl.replace c.co_fences base xf;
    xf

(* A re-prepare from a successor master supersedes the dead master's
   proposal iff it is (epoch, version)-newer. *)
let supersedes (a : Proto.root_info) = function
  | None -> true
  | Some (b : Proto.root_info) ->
    a.Proto.ri_epoch > b.Proto.ri_epoch
    || (a.Proto.ri_epoch = b.Proto.ri_epoch && a.Proto.ri_version >= b.Proto.ri_version)

let coord_check c base xf =
  if Array.for_all Option.is_some xf.xf_roots then begin
    if not xf.xf_done then begin
      xf.xf_done <- true;
      c.co_epoch <- c.co_epoch + 1;
      c.co_last <-
        Some
          {
            Proto.cx_name = base;
            cx_epoch = c.co_epoch;
            cx_roots = Array.map Option.get xf.xf_roots;
          };
      c.co_order <- base :: c.co_order;
      (* Completed entries are kept for a while (a successor master
         re-preparing an old fence completes from this table), bounded
         so a long run cannot grow it without limit. *)
      if List.length c.co_order > 192 then begin
        match List.rev c.co_order with
        | oldest :: _ ->
          Hashtbl.remove c.co_fences oldest;
          c.co_order <- List.filter (fun x -> not (String.equal x oldest)) c.co_order
        | [] -> ()
      end
    end;
    let parked = xf.xf_release in
    xf.xf_release <- [];
    List.iter (fun release -> release ()) parked
  end

let coord_prepare t ~rank ~base ~vol ~ri ~release =
  let c = t.coords.(rank) in
  let xf = coord_fence c ~shards:t.n_shards base in
  if supersedes ri xf.xf_roots.(vol) then xf.xf_roots.(vol) <- Some ri;
  (match release with
  | Some r -> xf.xf_release <- r :: xf.xf_release
  | None -> ());
  coord_check c base xf

(* Install the phase-1 hook on every instance: when volume [vol]'s
   master (whichever rank that is by now) completes a named fence, it
   freezes its proposed root here and publishes the prepare; the parked
   release fires once this rank has seen all [n_shards] prepares. *)
let install_hooks t =
  Array.iteri
    (fun vol per_rank ->
      Array.iteri
        (fun rank inst ->
          Kvs_module.set_fence_hold inst
            (Some
               (fun ~name ~ri ~release ->
                 match parse_xname name with
                 | Some (base, v) when v = vol ->
                   coord_prepare t ~rank ~base ~vol ~ri ~release:(Some release);
                   Session.publish
                     (Session.broker t.sess rank)
                     ~topic:xprepare_topic
                     (Proto.prepare_to_json
                        { Proto.px_name = base; px_vol = vol; px_ri = ri })
                 | _ -> release ())))
        per_rank)
    t.instances

let subscribe_coords t =
  for r = 0 to Session.size t.sess - 1 do
    Session.subscribe (Session.broker t.sess r) ~prefix:xprepare_topic (fun ev ->
        let p = Proto.prepare_of_json ev.Message.payload in
        if p.Proto.px_vol >= 0 && p.Proto.px_vol < t.n_shards then
          coord_prepare t ~rank:r ~base:p.Proto.px_name ~vol:p.Proto.px_vol
            ~ri:p.Proto.px_ri ~release:None)
  done

let xfence_epoch t ~rank = t.coords.(rank).co_epoch
let last_composite t ~rank = t.coords.(rank).co_last

let load sess ?config ~shards () =
  let n = Session.size sess in
  if shards <= 0 || shards > n then
    invalid_arg "Volumes.load: shards must be in [1, session size]";
  let masters = Array.init shards (fun i -> i * n / shards) in
  let instances =
    Array.init shards (fun i ->
        Kvs_module.load_routed sess ?config
          ~routing:(fun rank -> volume_routing sess ~volume:i ~master:masters.(i) rank)
          ())
  in
  let coords =
    Array.init n (fun _ ->
        { co_fences = Hashtbl.create 16; co_order = []; co_epoch = 0; co_last = None })
  in
  let t = { sess; n_shards = shards; masters; instances; coords; next_cid = 0 } in
  (* The two-phase merge is pure overhead with one shard — and shards=1
     must preserve the single-volume phenomenology exactly — so the
     cross-shard machinery engages only when there is something to
     merge. *)
  if shards > 1 then begin
    install_hooks t;
    subscribe_coords t
  end;
  t

(* --- Client --------------------------------------------------------------- *)

type client = {
  vt : t;
  api : Api.t;
  pending : Proto.tuple list array; (* per volume, reversed *)
  mutable pending_dirty : bool array;
}

let client t ~rank =
  {
    vt = t;
    api = Api.connect t.sess ~rank;
    pending = Array.make t.n_shards [];
    pending_dirty = Array.make t.n_shards false;
  }

let put c ~key v =
  match volume_for_key c.vt key with
  | Error _ as e -> e
  | Ok vol -> (
    match
      Api.rpc c.api
        ~topic:(service_of vol ^ ".put")
        (Json.obj [ ("key", Json.string key); ("v", v) ])
    with
    | Ok reply ->
      c.pending.(vol) <- { Proto.key; sha = Proto.put_reply_sha reply } :: c.pending.(vol);
      c.pending_dirty.(vol) <- true;
      Ok ()
    | Error _ as e -> e)

let get c ~key =
  match volume_for_key c.vt key with
  | Error _ as e -> e
  | Ok vol -> (
    match
      Api.rpc c.api ~topic:(service_of vol ^ ".get")
        (Json.obj [ ("key", Json.string key) ])
    with
    | Ok payload -> Ok (Proto.load_reply_value payload)
    | Error _ as e -> e)

(* Issue one RPC per selected volume concurrently and await them all.
   The replies ride the same busy/backoff machinery as synchronous RPCs
   (an admission shed at one shard backs off and retries instead of
   aborting the whole cross-shard operation), and each RPC carries a
   fresh fid so a shard applies it exactly once even if a slow fence
   outlives one RPC deadline and the request is retransmitted. *)
let fan_out c ~select ~topic_of ~fields_of =
  let eng = Session.engine c.vt.sess in
  let calls =
    List.filter_map
      (fun vol ->
        if select vol then begin
          let fid = c.vt.next_cid in
          c.vt.next_cid <- c.vt.next_cid + 1;
          let iv = Ivar.create () in
          Api.rpc_async c.api ~timeout:30.0 ~attempts:8 ~idempotent:true
            ~topic:(topic_of vol)
            (Json.obj (("fid", Json.int fid) :: fields_of vol))
            ~reply:(fun r -> Ivar.fill eng iv r);
          Some (vol, iv)
        end
        else None)
      (List.init c.vt.n_shards Fun.id)
  in
  List.map (fun (vol, iv) -> (vol, Proc.await iv)) calls

(* Consume *every* per-volume result: volumes that succeeded clear their
   pending state even when another volume failed, so a caller's retry
   cannot re-send already-applied tuples (double version bump, duplicate
   fence contribution). Errors are aggregated, not first-wins. *)
let settle c results ~on_ok =
  let errs =
    List.fold_left
      (fun errs (vol, r) ->
        match r with
        | Ok payload ->
          c.pending.(vol) <- [];
          c.pending_dirty.(vol) <- false;
          on_ok vol payload;
          errs
        | Error e -> Printf.sprintf "%s: %s" (service_of vol) e :: errs)
      [] results
  in
  match errs with [] -> Ok () | _ -> Error (String.concat "; " (List.rev errs))

let commit c =
  let results =
    fan_out c
      ~select:(fun vol -> c.pending_dirty.(vol))
      ~topic_of:(fun vol -> service_of vol ^ ".commit")
      ~fields_of:(fun vol ->
        [ ("tuples", Proto.tuples_to_json (List.rev c.pending.(vol))) ])
  in
  let vmax = ref 0 in
  match
    settle c results ~on_ok:(fun _ payload ->
        vmax := max !vmax (Json.to_int (Json.member "version" payload)))
  with
  | Ok () -> Ok !vmax
  | Error _ as e -> e

let fence c ~name ~nprocs =
  let results =
    fan_out c
      ~select:(fun _ -> true)
      ~topic_of:(fun vol -> service_of vol ^ ".fence")
      ~fields_of:(fun vol ->
        [
          ("name", Json.string (xname name vol));
          ("nprocs", Json.int nprocs);
          ("tuples", Proto.tuples_to_json (List.rev c.pending.(vol)));
        ])
  in
  settle c results ~on_ok:(fun _ _ -> ())
