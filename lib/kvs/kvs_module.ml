module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine
module Lru = Flux_util.Lru
module Tracer = Flux_trace.Tracer
module Collective = Flux_cmb.Collective
module Metrics = Flux_trace.Metrics

type config = {
  cache_capacity : int;
  apply_cpu_per_tuple : float;
  setroot_interiors : bool;
  admission_max_intake : int;
}

let default_config =
  {
    cache_capacity = 100_000;
    apply_cpu_per_tuple = 0.3e-6;
    setroot_interiors = false;
    admission_max_intake = 0;
  }

let replicated_config = { default_config with setroot_interiors = true }

let put_cpu = 1e-6
let admission_retry_after = 1e-3 (* floor of a shed request's retry hint *)
let hash_cpu_per_byte = 1.5e-9
let inline_threshold = 256

(* A fence's content folded from its contributions: the tuples
   (reversed) and the value objects, deduplicated by sha. *)
type fence = {
  mutable tuples : Proto.tuple list;
  objects : (string, Json.t) Hashtbl.t; (* sha-hex -> value *)
}

(* What one fence contribution carries: its tuples and value objects. *)
type fence_part = Proto.tuple list * Proto.obj list

(* One write's or client request's identity: its reply once known, and
   the retransmits parked behind it meanwhile. *)
type entry = { mutable result : (Json.t, string) result option; mutable waiting : Message.t list }

type routing = {
  rt_service : string;
  rt_master : int;
  rt_parent : master:int -> int option;
  rt_children : master:int -> int list;
  rt_direct : bool;
}

type t = {
  b : Session.broker;
  cfg : config;
  eng : Engine.t;
  routing : routing;
  mutable el : Election.state; (* every mastership fact: see Election *)
  mutable service_ranks : int list; (* the election order *)
  live : int -> bool;
  mutable parked : Message.t list; (* newest first, held while not thawed *)
  mutable round : int; (* the peer round out; [forget] moves it on *)
  cache : Json.t Lru.t; (* slave object cache *)
  store : (string, Json.t) Hashtbl.t; (* master authoritative store *)
  mutable root : Sha1.digest;
  mutable version : int;
  dirty_objs : (string, Json.t) Hashtbl.t; (* objects pinned until flushed *)
  pending_loads : (string, ((unit, string) result -> unit) list ref) Hashtbl.t;
  fences : fence_part Collective.t; (* open below the master, accumulating at it *)
  mutable version_waiters : (int * Message.t) list;
  mutable cpu_free_at : float; (* serializes local put hashing *)
  seen : (int * int, entry) Hashtbl.t; (* by identity: see [wid_of] *)
  mutable next_fid : int;
  mutable bytes_held : int;
  mutable n_loads_issued : int;
  mutable apply_backlog : int; (* requests awaiting a scheduled master apply *)
  (* Cross-shard fence hold (two-phase epoch-merge, see {!Volumes}): when
     installed, a completed master fence freezes its proposed root and
     defers adoption/responses/setroot until [release] fires. *)
  mutable fence_hold :
    (name:string -> ri:Proto.root_info -> release:(unit -> unit) -> unit) option;
  mutable held : (string * int) option; (* held fence name, participants parked *)
  mutable held_applies : (unit -> unit) list; (* applies deferred behind the hold *)
  mutable intake_hwm : int; (* peak intake depth seen at the admission gate *)
  mutable admission_sheds : int;
  mutable tracer : Tracer.t option;
  mutable metrics : Metrics.t option;
}

let hex = Sha1.to_hex

let set_tracer_all instances tr = Array.iter (fun t -> t.tracer <- Some tr) instances
let set_metrics_all instances m = Array.iter (fun t -> t.metrics <- Some m) instances

let trace t ~name ?ctx ?fields () =
  match t.tracer with
  | Some tr -> Tracer.emit tr ~cat:"kvs" ~name ~rank:(Session.rank t.b) ?ctx ?fields ()
  | None -> ()

let metric_incr t name =
  match t.metrics with
  | Some m -> Metrics.incr m ~name ~rank:(Session.rank t.b)
  | None -> ()

let metric_observe t name v =
  match t.metrics with
  | Some m -> Metrics.observe m ~name ~rank:(Session.rank t.b) v
  | None -> ()

let metric_add t name n =
  match t.metrics with
  | Some m -> Metrics.add m ~name ~rank:(Session.rank t.b) n
  | None -> ()

(* A child span under [parent], when both a tracer and a parent exist. *)
let child_span t parent =
  match (t.tracer, parent) with
  | Some tr, Some c -> Some (Tracer.child_ctx tr c)
  | _ -> None

let set_fence_hold t hook = t.fence_hold <- hook
let is_master t = t.el.Election.is_master
let master_rank t = t.el.Election.master
let epoch t = t.el.Election.epoch
let version t = t.version
let root_ref t = t.root
let cached_objects t = if is_master t then Hashtbl.length t.store else Lru.length t.cache
let store_bytes t = t.bytes_held
let dirty_count t = Hashtbl.length t.dirty_objs
let loads_issued t = t.n_loads_issued
let intake_hwm t = t.intake_hwm
let admission_sheds t = t.admission_sheds

let acting_master instances =
  let m = ref None in
  Array.iteri (fun r t -> if is_master t && t.live r then m := Some r) instances;
  !m

(* --- Object access ----------------------------------------------------- *)

let cache_put t sha v =
  let h = hex sha in
  if is_master t then begin
    if not (Hashtbl.mem t.store h) then begin
      Hashtbl.replace t.store h v;
      t.bytes_held <- t.bytes_held + Json.serialized_size v
    end
  end
  else if not (Lru.mem t.cache h) then begin
    t.bytes_held <- t.bytes_held + Json.serialized_size v;
    Lru.put t.cache h v
  end

let lookup_obj t sha =
  let h = hex sha in
  let r =
    if is_master t then Hashtbl.find_opt t.store h
    else if Hashtbl.length t.dirty_objs = 0 then Lru.find t.cache h
    else
      match Hashtbl.find_opt t.dirty_objs h with
      | Some v -> Some v
      | None -> Lru.find t.cache h
  in
  (match t.metrics with
  | None -> ()
  | Some _ ->
    metric_incr t (match r with Some _ -> "kvs.cache.hit" | None -> "kvs.cache.miss"));
  r

(* Service peers that are currently reachable (election candidates and
   fetch sources). *)
let live_peers t =
  let self = Session.rank t.b in
  List.filter (fun r -> r <> self && t.live r) t.service_ranks

(* Upstream transport: the session's RPC tree by default, or a direct
   rank-addressed hop along the volume's relabeled tree. *)
let send_up t ?timeout ?idempotent ?trace_ctx ~method_ payload ~reply =
  let topic = t.routing.rt_service ^ "." ^ method_ in
  let self = Session.rank t.b and master = master_rank t in
  match t.routing.rt_parent ~master with
  | Some p when t.routing.rt_direct ->
    (* Retransmits re-resolve the parent, so a send outliving its first
       target follows the healed tree (or a new master). If the healed
       tree says we have no parent by then, loop back to self: either we
       were just elected (the local handler applies) or the belief is
       stale and the handler re-forwards once it updates. *)
    let route () =
      match t.routing.rt_parent ~master:(master_rank t) with Some p -> p | None -> self
    in
    Session.rpc_rank t.b ?timeout ?idempotent ?trace_ctx ~route ~dst:p ~topic payload ~reply
  | Some _ -> Session.request_from_module t.b ?timeout ?idempotent ?trace_ctx ~topic payload ~reply
  | None when is_master t -> reply (Error (t.routing.rt_service ^ ": master has no parent"))
  | None when t.routing.rt_direct || master < 0 || (master = self && t.el.Election.phase = Thawed) ->
    (* No master to reach: a takeover is still in flight or no live
       master is known. Fail fast; callers on the fence path
       re-contribute and retry. *)
    reply (Error (t.routing.rt_service ^ ": no live master"))
  | None ->
    (* This broker is the overlay root but not the master: the overlay
       and the election each moved on a death, and this broker's belief
       names another rank, or its own takeover is still in flight. Hop
       straight to the master over the rank plane; a loop-back to self
       lands in our own handler, which parks it while the takeover
       runs. *)
    Session.rpc_rank t.b ?timeout ?idempotent ?trace_ctx ~dst:master ~topic payload ~reply

(* --- Exactly-once client requests and plain flushes ------------------------ *)

(* A write (commit, mput) gets one identity [(origin, fid)] at its first
   hop: the Volumes client's origin and the fid it stamped on the
   request, or else the first hop's rank and a fid fresh there (a family
   is written through Volumes or not at all, so the two never meet). The
   plain flush carries it unchanged to the master, which alone applies
   the write once per identity, however a retransmit was re-routed. A
   client's stamped fence is checked where it enters the collective,
   whose root counts its leaves once (see {!Flux_cmb.Tally}). The first
   arrival registers an entry; a retransmit is answered from the
   recorded reply, or parked behind the original until it is answered.
   Completed entries are dropped once the table passes 8,192. *)

let fresh_fid t =
  let id = t.next_fid in
  t.next_fid <- id + 1;
  id

let wid_of (req : Message.t) =
  let p = req.Message.payload in
  match Json.member_opt "wid" p with
  | Some w -> Some (Proto.wid_of_json w)
  | None -> Option.map (fun f -> (req.Message.origin, Json.to_int f)) (Json.member_opt "fid" p)

let answer t q = function
  | Ok payload -> Session.respond t.b q payload
  | Error e -> Session.respond_error t.b q e

let duplicate t (req : Message.t) =
  match wid_of req with
  | None -> false
  | Some key -> (
    match Hashtbl.find_opt t.seen key with
    | Some e ->
      (match e.result with Some r -> answer t req r | None -> e.waiting <- req :: e.waiting);
      true
    | None ->
      if Hashtbl.length t.seen > 8192 then begin
        let stale =
          Hashtbl.fold
            (fun key e acc -> if e.result <> None && e.waiting = [] then key :: acc else acc)
            t.seen []
        in
        List.iter (Hashtbl.remove t.seen) stale
      end;
      Hashtbl.replace t.seen key { result = None; waiting = [] };
      false)

(* Answer a request, and the retransmits parked behind it. *)
let respond_result t (req : Message.t) result =
  answer t req result;
  match wid_of req with
  | Some key -> (
    match Hashtbl.find_opt t.seen key with
    | Some e ->
      e.result <- Some result;
      let waiting = e.waiting in
      e.waiting <- [];
      List.iter (fun q -> answer t q result) waiting
    | None -> ())
  | None -> ()

(* --- Fault-in with coalescing ------------------------------------------- *)

let fault_in t ?trace_ctx sha k =
  let h = hex sha in
  match Hashtbl.find_opt t.pending_loads h with
  | Some waiters -> waiters := k :: !waiters
  | None ->
    Hashtbl.replace t.pending_loads h (ref [ k ]);
    t.n_loads_issued <- t.n_loads_issued + 1;
    metric_incr t "kvs.fault_in";
    let ctx = child_span t trace_ctx in
    let t0 = Engine.now t.eng in
    let finish outcome =
      (match t.tracer with
      | None -> ()
      | Some _ ->
        let dur = Engine.now t.eng -. t0 in
        trace t ~name:"fault_in" ?ctx
          ~fields:
            [
              ("sha", Json.string (Sha1.short sha));
              ("dur", Json.float dur);
              ("ok", Json.bool (match outcome with Ok () -> true | Error _ -> false));
            ]
          ());
      metric_observe t "kvs.fault_in.latency" (Engine.now t.eng -. t0);
      match Hashtbl.find_opt t.pending_loads h with
      | Some waiters ->
        Hashtbl.remove t.pending_loads h;
        List.iter (fun k -> k outcome) (List.rev !waiters)
      | None -> ()
    in
    if is_master t then begin
      (* The master is authoritative yet a freshly elected one may hold
         an incomplete store: any replica of a content-addressed object
         is as good as another (the git-store property the paper leans
         on), so fault missing objects in from surviving slave caches. *)
      let topic = t.routing.rt_service ^ ".fetch" in
      let rec try_peers = function
        | [] -> finish (Error (Printf.sprintf "object %s lost" (Sha1.short sha)))
        | p :: rest ->
          Session.rpc_rank t.b ~idempotent:true ~timeout:1.0 ?trace_ctx:ctx ~dst:p ~topic
            (Proto.load_request sha) ~reply:(function
            | Ok payload ->
              cache_put t sha (Proto.load_reply_value payload);
              finish (Ok ())
            | Error _ -> try_peers rest)
      in
      try_peers (live_peers t)
    end
    else
      (* Loads are pure reads: retransmit on timeout so a parent dying
         mid-load resolves through the healed topology. *)
      send_up t ~idempotent:true ?trace_ctx:ctx ~method_:"load" (Proto.load_request sha)
        ~reply:(fun r ->
          match r with
          | Ok payload ->
            cache_put t sha (Proto.load_reply_value payload);
            finish (Ok ())
          | Error e -> finish (Error e))

(* --- Root/version management -------------------------------------------- *)

(* Step down to a caching slave: fail the collectives this master was
   aggregating (the participants' idempotent retransmits will find the
   successor) and fold the authoritative store back into the ordinary
   object cache. *)
let demote t =
  trace t ~name:"demote" ~fields:[ ("epoch", Json.int (epoch t)) ] ();
  (* A fence held for the cross-shard merge dies with the mastership:
     its parked participants time out and their idempotent retransmits
     re-aggregate at the successor, which re-prepares with the
     coordinator. Deferred applies behind the hold are dropped the same
     way (their senders retransmit too). *)
  t.held <- None;
  t.held_applies <- [];
  Collective.drop_roots t.fences (Error "kvs: master deposed");
  let entries = Hashtbl.fold (fun h v acc -> (h, v) :: acc) t.store [] in
  Hashtbl.reset t.store;
  t.bytes_held <- 0;
  Hashtbl.iter
    (fun _ v -> t.bytes_held <- t.bytes_held + Json.serialized_size v)
    t.dirty_objs;
  List.iter
    (fun (h, v) ->
      if not (Lru.mem t.cache h) then begin
        t.bytes_held <- t.bytes_held + Json.serialized_size v;
        Lru.put t.cache h v
      end)
    entries

let current_ri t =
  {
    Proto.ri_epoch = epoch t;
    ri_master = master_rank t;
    ri_version = t.version;
    ri_root = t.root;
  }

(* The [Adopt] effect: an announcement the election found current moves
   the version only forward, so reads at this rank are monotonic even
   across failovers. *)
let adopt t (ri : Proto.root_info) =
  if ri.Proto.ri_version > t.version then begin
    t.version <- ri.Proto.ri_version;
    t.root <- ri.Proto.ri_root;
    let ready, waiting = List.partition (fun (v, _) -> v <= t.version) t.version_waiters in
    t.version_waiters <- waiting;
    List.iter (fun (_, req) -> Session.respond t.b req Json.null) ready
  end

(* Fold the object cache (and still-pinned dirty objects) into the
   authoritative store of a rank assuming mastership. *)
let promote t =
  t.bytes_held <- 0;
  let keep h v =
    if not (Hashtbl.mem t.store h) then begin
      Hashtbl.replace t.store h v;
      t.bytes_held <- t.bytes_held + Json.serialized_size v
    end
  in
  Lru.iter keep t.cache;
  Lru.clear t.cache;
  Hashtbl.iter keep t.dirty_objs;
  trace t ~name:"master_elected"
    ~fields:[ ("epoch", Json.int (epoch t)); ("version", Json.int t.version) ]
    ()

(* A revived rank drops what it held in flight: the parked requests, its
   peer round, the collectives and the loads (their senders timed out
   long ago). *)
let forget t =
  t.parked <- [];
  t.round <- t.round + 1;
  Collective.reset t.fences;
  t.held <- None;
  t.held_applies <- [];
  let stale_loads = Hashtbl.fold (fun _ w acc -> List.rev !w @ acc) t.pending_loads [] in
  Hashtbl.reset t.pending_loads;
  List.iter (fun k -> k (Error "kvs: node rejoined")) stale_loads

let publish_root t =
  Session.publish t.b
    ~topic:(t.routing.rt_service ^ ".setroot")
    (Proto.setroot_to_json (current_ri t) ~objects:[])

let serve = ref (fun _ (_ : Message.t) -> ()) (* the dispatcher below; a thaw replays *)

(* Step the election and perform its effects in order. [ri] is the
   announcement an [Adopt] takes its version and root from. *)
let rec run t ri input =
  let el, effects =
    Election.step ~self:(Session.rank t.b) ~order:t.service_ranks ~live:t.live t.el input
  in
  t.el <- el;
  List.iter (perform t ri) effects;
  Collective.reroute t.fences

and perform t ri = function
  | Election.Adopt -> adopt t ri
  | Demote -> demote t
  | Promote -> promote t
  | Forget -> forget t
  | Publish_setroot -> publish_root t
  | Publish_hello ->
    trace t ~name:"rejoin" ();
    Session.publish t.b
      ~topic:(t.routing.rt_service ^ ".hello")
      (Json.obj [ ("rank", Json.int (Session.rank t.b)) ])
  | Thaw ->
    let queued = List.rev t.parked in
    t.parked <- [];
    trace t ~name:"unfreeze" ~fields:[ ("queued", Json.int (List.length queued)) ] ();
    List.iter (!serve t) queued
  | Ask_peers -> ask_peers t

(* The takeover's peer round: the newest (epoch, version, root) any live
   peer has seen, this rank's own included, and a peer of the newest
   epoch that names itself master, if any. *)
and ask_peers t =
  trace t ~name:"takeover" ~fields:[ ("epoch", Json.int (epoch t)) ] ();
  let peers = live_peers t in
  let best = ref (current_ri t) and round = t.round in
  let remaining = ref (List.length peers) in
  let finish () =
    let b = !best in
    if t.round = round then
      run t b (Election.Round_ended { epoch = b.Proto.ri_epoch; master = b.Proto.ri_master })
  in
  if peers = [] then finish ()
  else
    List.iter
      (fun p ->
        Session.rpc_rank t.b ~idempotent:true ~timeout:1.0 ~dst:p
          ~topic:(t.routing.rt_service ^ ".getroot")
          Json.null
          ~reply:(fun r ->
            (match r with
            | Ok payload ->
              let ri = Proto.commit_reply_decode payload and b = !best in
              let c = compare ri.Proto.ri_epoch b.Proto.ri_epoch in
              let master = if c >= 0 && ri.Proto.ri_master = p then p else if c > 0 then -1 else b.Proto.ri_master in
              let newer = c > 0 || (c = 0 && ri.Proto.ri_version > b.Proto.ri_version) in
              best := { (if newer then ri else b) with Proto.ri_master = master }
            | Error _ -> ());
            decr remaining;
            if !remaining = 0 then finish ()))
      peers

(* Adopt an epoch-stamped root announcement: the election ignores one
   from a stale epoch (the split-brain guard) and demotes a master that
   learns of a newer epoch led by someone else. *)
let apply_root t (ri : Proto.root_info) =
  if Election.settled t.el ~epoch:ri.Proto.ri_epoch ~master:ri.Proto.ri_master then adopt t ri
  else run t ri (Election.Adopted { epoch = ri.Proto.ri_epoch; master = ri.Proto.ri_master })

(* --- Master: applying batches --------------------------------------------- *)

let master_store t v =
  let sha = Sha1.digest_json v in
  cache_put t sha v;
  sha

let master_apply t ?trace_ctx ?fence ?(settle = ignore) ~tuples ~objects ~respond_to () =
  List.iter (fun (o : Proto.obj) -> cache_put t o.Proto.osha o.Proto.value) objects;
  let ntuples = List.length tuples in
  metric_incr t "kvs.commits";
  metric_observe t "kvs.commit.tuples" (float_of_int ntuples);
  (* Small values are folded into the directory entry itself, so a
     reader of one small object must fault in the entire directory
     containing it (Figure 4a); larger values stay by-reference. *)
  let dirent_of (tp : Proto.tuple) =
    match lookup_obj t tp.Proto.sha with
    | Some v when Json.serialized_size v <= inline_threshold -> Tree.dirent_val v
    | Some _ | None -> Tree.dirent_file tp.Proto.sha
  in
  let nresp = List.length respond_to in
  t.apply_backlog <- t.apply_backlog + nresp;
  let delta = ref [] in
  let apply () =
    delta := [];
    if ntuples = 0 then t.root
    else
      Tree.apply_tuples
        ~fetch:(fun sha -> lookup_obj t sha)
        ~store:(fun v ->
          let sha = master_store t v in
          (* Record the interior objects this apply created so the
             setroot event can replicate them to every live slave:
             value objects already ride the flush path, and with the
             interior nodes mirrored too a takeover finds everything it
             needs in surviving caches. *)
          if t.cfg.setroot_interiors then delta := { Proto.osha = sha; value = v } :: !delta;
          sha)
        ~root:t.root
        (List.map (fun (tp : Proto.tuple) -> (tp.Proto.key, dirent_of tp)) tuples)
  in
  let rec finish () =
    if t.held <> None then
      (* A cross-shard fence has frozen this master's root: applying now
         would invalidate the frozen proposal. Park behind the hold and
         re-run at release, against the post-fence root. *)
      t.held_applies <- finish :: t.held_applies
    else
      match apply () with
      | exception Tree.Missing_dir sha ->
        (* A master elected from a slave cache may lack a directory of
           its own root. Fault it in from the peers and apply again; the
           requests stay in the backlog meanwhile. *)
        let fail e =
          t.apply_backlog <- t.apply_backlog - nresp;
          List.iter (fun req -> respond_result t req (Error e)) respond_to;
          settle (Error e)
        in
        fault_in t ?trace_ctx sha (function
          | Ok () -> if is_master t then finish () else fail "kvs: master deposed"
          | Error e -> fail e)
      | new_root -> commit_root new_root
  and commit_root new_root =
    t.apply_backlog <- t.apply_backlog - nresp;
    trace t ~name:"apply" ?ctx:trace_ctx ~fields:[ ("tuples", Json.int ntuples) ] ();
    let proposed =
      {
        Proto.ri_epoch = epoch t;
        ri_master = Session.rank t.b;
        ri_version = (if ntuples = 0 then t.version else t.version + 1);
        ri_root = new_root;
      }
    in
    let commit () =
      (* Adopting through [apply_root] bumps the version and wakes
         local wait_version callers in one place. *)
      if ntuples > 0 then apply_root t proposed;
      let ri = current_ri t in
      let payload = Proto.commit_reply ri in
      List.iter (fun req -> respond_result t req (Ok payload)) respond_to;
      settle (Ok payload);
      if ntuples > 0 then begin
        (* The broadcast is its own span under the commit, so the
           descent shows up as a distinct segment of the fence
           critical path. *)
        let pub_ctx = child_span t trace_ctx in
        trace t ~name:"setroot.publish" ?ctx:pub_ctx
          ~fields:[ ("version", Json.int t.version) ]
          ();
        Session.publish t.b ?trace_ctx:pub_ctx
          ~topic:(t.routing.rt_service ^ ".setroot")
          (Proto.setroot_to_json ri ~objects:(List.rev !delta))
      end
    in
    match (t.fence_hold, fence) with
    | Some hook, Some name ->
      (* Phase 1 of the cross-shard fence: freeze the proposed root
         and hand it to the coordinator. Responses, adoption and the
         setroot all wait for phase 2 (the coordinator's release),
         so no participant — and no slave — can observe this shard's
         epoch-E data before every shard reached epoch E. *)
      t.held <- Some (name, nresp);
      trace t ~name:"fence.hold" ?ctx:trace_ctx
        ~fields:[ ("name", Json.string name); ("version", Json.int proposed.Proto.ri_version) ]
        ();
      hook ~name ~ri:proposed ~release:(fun () ->
          match t.held with
          | Some (n, _) when String.equal n name && is_master t ->
            t.held <- None;
            trace t ~name:"fence.release" ~fields:[ ("name", Json.string name) ] ();
            commit ();
            let parked = List.rev t.held_applies in
            t.held_applies <- [];
            List.iter (fun k -> k ()) parked
          | _ -> ())
    | _ -> commit ()
  in
  (* Charge the master CPU for tuple application, serialized across
     concurrent batches: this is the linear term that keeps the
     redundant-value fence short of logarithmic — and the queue that a
     distributed master (Volumes) divides. *)
  let cost = float_of_int ntuples *. t.cfg.apply_cpu_per_tuple in
  if cost > 0.0 then begin
    let start = Float.max (Engine.now t.eng) t.cpu_free_at in
    t.cpu_free_at <- start +. cost;
    ignore (Engine.schedule_at t.eng ~time:(start +. cost) (fun () -> finish ()) : Engine.handle)
  end
  else finish ()

(* --- Fence handling -------------------------------------------------------- *)

(* Resolve a client transaction's tuples to the pinned value objects,
   unpinning them (they remain in the ordinary cache). *)
let resolve_objects t tuples =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (tp : Proto.tuple) ->
      let h = hex tp.Proto.sha in
      if Hashtbl.mem seen h then None
      else begin
        Hashtbl.replace seen h ();
        match Hashtbl.find_opt t.dirty_objs h with
        | Some v ->
          Hashtbl.remove t.dirty_objs h;
          cache_put t tp.Proto.sha v;
          Some { Proto.osha = tp.Proto.sha; value = v }
        | None -> (
          (* Another transaction already unpinned it; the cache (or the
             master store) still holds it. *)
          match lookup_obj t tp.Proto.sha with
          | Some v -> Some { Proto.osha = tp.Proto.sha; value = v }
          | None -> None)
      end)
    tuples

(* A fence abort is terminal for the collective: the error must not be
   refolded into a retry loop (that would resurrect exactly the stale
   aggregation state the abort exists to clear), so every abort reply
   embeds this marker and the collective treats it as final. *)
let abort_marker = "fence aborted: "
let fence_abort_error name = abort_marker ^ name

let is_abort_error e =
  let n = String.length abort_marker and m = String.length e in
  let rec at i = i + n <= m && (String.equal (String.sub e i n) abort_marker || at (i + 1)) in
  at 0

let absorb (fc : fence) tuples (objects : Proto.obj list) =
  fc.tuples <- List.rev_append tuples fc.tuples;
  List.iter
    (fun (o : Proto.obj) ->
      let h = hex o.Proto.osha in
      if not (Hashtbl.mem fc.objects h) then Hashtbl.replace fc.objects h o.Proto.value)
    objects

let fence_objects (fc : fence) =
  Hashtbl.fold (fun h v acc -> { Proto.osha = Sha1.of_hex h; value = v } :: acc) fc.objects []

(* The content of a batch's items, folded oldest first. *)
let fence_content items =
  let fc = { tuples = []; objects = Hashtbl.create 64 } in
  List.iter
    (fun (it : _ Collective.item) ->
      let tuples, objects = it.Collective.content in
      absorb fc tuples objects)
    (List.rev items);
  fc

let fence_send t (batch : fence_part Collective.batch) k =
  let name = batch.Collective.name and count = Flux_cmb.Tally.weight batch.Collective.leaves in
  let ctx = child_span t batch.Collective.ctx in
  let fc = fence_content batch.Collective.items in
  let payload =
    Proto.flush_to_json
      {
        Proto.fence = Some (name, batch.Collective.nprocs);
        leaves = batch.Collective.leaves;
        wid = None;
        tuples = List.rev fc.tuples;
        objects = fence_objects fc;
      }
  in
  trace t ~name:"flush.forward" ?ctx
    ~fields:[ ("name", Json.string name); ("count", Json.int count) ]
    ();
  (* The reply blocks until the whole fence completes, so the deadline
     must cover a slow collective; a retransmit carries the same leaves,
     which the master counts once. *)
  send_up t ~timeout:30.0 ~idempotent:true ?trace_ctx:ctx ~method_:"flush" payload
    ~reply:(fun r ->
      (match r with Ok reply -> apply_root t (Proto.commit_reply_decode reply) | Error _ -> ());
      k r)

(* The master has heard every contribution: apply each distinct tuple
   once, since a retransmitted contribution may carry its tuples twice.
   The last copy is kept, so the later tuple for a key still wins. *)
let fence_complete t (batch : fence_part Collective.batch) ~settle =
  let fc = fence_content batch.Collective.items and ctx = batch.Collective.ctx in
  let seen = Hashtbl.create 64 in
  let tuples =
    List.rev
      (List.filter
         (fun (tp : Proto.tuple) ->
           let k = (tp.Proto.key, (tp.Proto.sha :> string)) in
           (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
         fc.tuples)
  in
  trace t ~name:"commit.begin" ?ctx
    ~fields:[ ("name", Json.string batch.Collective.name); ("tuples", Json.int (List.length tuples)) ]
    ();
  master_apply t ?trace_ctx:ctx ~fence:batch.Collective.name ~settle ~tuples
    ~objects:(fence_objects fc)
    ~respond_to:(List.map (fun (it : _ Collective.item) -> it.Collective.req) batch.Collective.items)
    ()

(* Write-through caching: objects passing by a slave stay in its cache. *)
let cache_through t objects =
  if not (is_master t) then
    List.iter (fun (o : Proto.obj) -> cache_put t o.Proto.osha o.Proto.value) objects

(* --- Request handlers -------------------------------------------------------- *)

(* Keys are checked where a request enters the store (get, put, mput,
   and the tuples of commit and fence), so a malformed key from any
   client is an error reply, never an exception out of the master's
   tree walk. *)
let invalid_key key = Printf.sprintf "invalid key %S" key

(* A commit's or fence's tuples, or the reason to refuse them. *)
let request_tuples (req : Message.t) =
  match Json.member_opt "tuples" req.Message.payload with
  | None -> Ok []
  | Some tj -> (
    match Proto.tuples_of_json tj with
    | exception (Json.Type_error _ | Invalid_argument _) -> Error "malformed tuples"
    | tuples -> (
      match List.find_opt (fun (tp : Proto.tuple) -> not (Tree.valid_key tp.Proto.key)) tuples with
      | Some tp -> Error (invalid_key tp.Proto.key)
      | None -> Ok tuples))

let handle_put t (req : Message.t) =
  let key = Json.to_string_v (Json.member "key" req.Message.payload) in
  if not (Tree.valid_key key) then Session.respond_error t.b req (invalid_key key)
  else
    let value = Json.member "v" req.Message.payload in
    let vsize = Json.serialized_size value in
    let now = Engine.now t.eng in
    let start = Float.max now t.cpu_free_at in
    let cost = put_cpu +. (float_of_int vsize *. hash_cpu_per_byte) in
    t.cpu_free_at <- start +. cost;
    let finish_at = start +. cost in
    ignore
      (Engine.schedule_at t.eng ~time:finish_at (fun () ->
           let sha = Sha1.digest_json value in
           if not (Hashtbl.mem t.dirty_objs (hex sha)) then
             Hashtbl.replace t.dirty_objs (hex sha) value;
           cache_put t sha value;
           Session.respond t.b req (Proto.put_reply sha))
        : Engine.handle)

let handle_get t (req : Message.t) =
  let key = Json.to_string_v (Json.member "key" req.Message.payload) in
  if not (Tree.valid_key key) then Session.respond_error t.b req (invalid_key key)
  else
    let pinned_root = t.root in
    let rec walk () =
      match
        Tree.lookup ~fetch:(fun sha -> lookup_obj t sha) ~root:pinned_root ~key ()
      with
      | Tree.Found v -> Session.respond t.b req (Proto.load_reply v)
      | Tree.No_key -> Session.respond_error t.b req (Printf.sprintf "key not found: %s" key)
      | Tree.Need sha ->
        fault_in t ?trace_ctx:req.Message.trace sha (function
          | Ok () -> walk ()
          | Error e -> Session.respond_error t.b req e)
    in
    walk ()

let handle_load t (req : Message.t) =
  let sha = Proto.load_request_sha req.Message.payload in
  match lookup_obj t sha with
  | Some v -> Session.respond t.b req (Proto.load_reply v)
  | None ->
    (* A slave faults upstream; the master faults sideways into the
       surviving slave caches (see [fault_in]). *)
    fault_in t ?trace_ctx:req.Message.trace sha (function
      | Ok () -> (
        match lookup_obj t sha with
        | Some v -> Session.respond t.b req (Proto.load_reply v)
        | None ->
          (* Evicted between fault-in and reply: extremely unlikely;
             treat as a miss the client may retry. *)
          Session.respond_error t.b req "object evicted during load")
      | Error e -> Session.respond_error t.b req e)

(* Strictly local object lookup — the peer-fetch used by a newly elected
   master to reconstruct its store. Never recurses into [fault_in], so a
   fetch can never ping-pong between two incomplete replicas. *)
let handle_fetch t (req : Message.t) =
  let sha = Proto.load_request_sha req.Message.payload in
  match lookup_obj t sha with
  | Some v -> Session.respond t.b req (Proto.load_reply v)
  | None ->
    Session.respond_error t.b req
      (Printf.sprintf "object %s not cached" (Sha1.short sha))

(* The one write path of commit, mput and plain flush: apply at the
   master once per identity, or forward upstream as a plain flush under
   the write's identity (minted here at its first hop), adopt the reply's
   root and answer. Through [send_up], so a routed family's flush follows
   its own service topic and volume tree. *)
let write t (req : Message.t) ~tuples ~objects =
  if is_master t then begin
    if not (duplicate t req) then
      master_apply t ?trace_ctx:req.Message.trace ~tuples ~objects ~respond_to:[ req ] ()
  end
  else
    let wid = match wid_of req with Some w -> w | None -> (Session.rank t.b, fresh_fid t) in
    let payload =
      Proto.flush_to_json { Proto.fence = None; leaves = []; wid = Some wid; tuples; objects }
    in
    send_up t ~idempotent:true ?trace_ctx:(child_span t req.Message.trace) ~method_:"flush"
      payload ~reply:(fun r ->
        (match r with Ok reply -> apply_root t (Proto.commit_reply_decode reply) | Error _ -> ());
        respond_result t req r)

let handle_commit t (req : Message.t) =
  match request_tuples req with
  | Error e -> Session.respond_error t.b req e
  | Ok tuples -> write t req ~tuples ~objects:(resolve_objects t tuples)

let handle_fence t (req : Message.t) =
  match request_tuples req with
  | Error e -> Session.respond_error t.b req e
  | Ok tuples ->
    if not (duplicate t req) then begin
      let name = Json.to_string_v (Json.member "name" req.Message.payload) in
      let nprocs = Json.to_int (Json.member "nprocs" req.Message.payload) in
      let objects = resolve_objects t tuples in
      trace t ~name:"fence.enter" ?ctx:req.Message.trace
        ~fields:[ ("name", Json.string name) ]
        ();
      cache_through t objects;
      Collective.enter t.fences ~name ~nprocs ~count:1 req (tuples, objects)
    end

(* A participant abandoned the fence (its client-side deadline fired):
   clear the name's aggregation state at every hop so a retried fence
   with the same name cannot collide with the aborted instance's parked
   contributions, and fail the peers still parked on it — the fence is
   all-or-nothing, so once one participant is gone it can never
   complete. Best effort: if the fence in fact completed before the
   abort arrived, the name is no longer registered and this is a no-op
   (the abort can therefore never tear a committed fence). A fence
   frozen for the cross-shard merge is left alone — it has already
   aggregated completely and the coordinator will release it. *)
let handle_fenceabort t (req : Message.t) =
  let name = Json.to_string_v (Json.member "name" req.Message.payload) in
  let held_here = match t.held with Some (n, _) -> String.equal n name | None -> false in
  if not held_here then begin
    trace t ~name:"fence.abort" ?ctx:req.Message.trace ~fields:[ ("name", Json.string name) ] ();
    metric_incr t "kvs.fence.abort";
    Collective.withdraw t.fences name (Error (fence_abort_error name))
  end;
  if is_master t || held_here then Session.respond t.b req Json.null
  else
    (* Propagate toward the master so interior aggregates and the
       master's pending map clear too; answer once the upstream hop
       resolves either way. *)
    send_up t ~idempotent:true ~timeout:5.0 ~method_:"fenceabort"
      (Json.obj [ ("name", Json.string name) ])
      ~reply:(fun _ -> Session.respond t.b req Json.null)

(* Atomic put-and-commit of a binding list: used by services (mon,
   resvc) that have no client-side transaction state. *)
let handle_mput t (req : Message.t) =
  let bindings =
    List.map
      (fun b -> (Json.to_string_v (Json.member "key" b), Json.member "v" b))
      (Json.to_list (Json.member "bindings" req.Message.payload))
  in
  match List.find_opt (fun (key, _) -> not (Tree.valid_key key)) bindings with
  | Some (key, _) -> Session.respond_error t.b req (invalid_key key)
  | None ->
    let tuples, objects =
      List.fold_left
        (fun (ts, os) (key, v) ->
          let sha = Sha1.digest_json v in
          cache_put t sha v;
          ({ Proto.key; sha } :: ts, { Proto.osha = sha; value = v } :: os))
        ([], []) bindings
    in
    write t req ~tuples:(List.rev tuples) ~objects:(List.rev objects)

let handle_flush t (req : Message.t) =
  let f = Proto.flush_of_json req.Message.payload in
  match f.Proto.fence with
  | Some (name, nprocs) ->
    (* [origin] is the rank of the child kvs instance that forwarded. *)
    cache_through t f.Proto.objects;
    Collective.aggregate t.fences ~name ~nprocs ~leaves:f.Proto.leaves ~from_child:req.Message.origin
      req (f.Proto.tuples, f.Proto.objects)
  | None ->
    (* Plain commit: objects write through this cache (or the store). *)
    List.iter (fun (o : Proto.obj) -> cache_put t o.Proto.osha o.Proto.value) f.Proto.objects;
    write t req ~tuples:f.Proto.tuples ~objects:f.Proto.objects

let handle_getversion t (req : Message.t) =
  Session.respond t.b req (Json.obj [ ("version", Json.int t.version) ])

let handle_waitversion t (req : Message.t) =
  let v = Json.to_int (Json.member "version" req.Message.payload) in
  if t.version >= v then Session.respond t.b req Json.null
  else t.version_waiters <- (v, req) :: t.version_waiters

let handle_getroot t (req : Message.t) =
  Session.respond t.b req (Proto.commit_reply (current_ri t))

(* --- Snapshot / restore ---------------------------------------------------------- *)

(* Serialize the object store reachable from this instance's current
   root. A master holds every reachable object by construction; a slave
   may not (its cache is lossy), in which case the walk reports the
   first unavailable object instead of fabricating a partial store. *)
let snapshot t =
  let seen = Hashtbl.create 256 in
  let objects = ref [] in
  let missing = ref None in
  let rec walk ~dir sha =
    let h = hex sha in
    if not (Hashtbl.mem seen h) then begin
      match lookup_obj t sha with
      | None -> if !missing = None then missing := Some h
      | Some v ->
        Hashtbl.replace seen h ();
        objects := (h, v) :: !objects;
        if dir then
          List.iter
            (fun (_, ent) ->
              match Tree.dirent_ref ent with
              | `Dir s -> walk ~dir:true s
              | `File s -> walk ~dir:false s
              | `Val _ -> ())
            (Tree.dir_entries v)
    end
  in
  match walk ~dir:true t.root with
  | exception Json.Type_error m ->
    Error (Printf.sprintf "%s: snapshot: malformed directory object: %s" t.routing.rt_service m)
  | () -> (
    match !missing with
    | Some h ->
      Error
        (Printf.sprintf "%s: snapshot: object %s not held at rank %d" t.routing.rt_service h
           (Session.rank t.b))
    | None ->
      let snap =
        {
          Snapshot.s_service = t.routing.rt_service;
          s_root = t.root;
          s_version = t.version;
          s_epoch = epoch t;
          s_composite = None;
          s_objects = List.rev !objects;
        }
      in
      metric_incr t "ckpt.snapshot";
      metric_add t "ckpt.bytes" (Snapshot.objects_bytes snap);
      Ok snap)

(* Rebuild this instance's store from a verified snapshot and announce
   the restored root to every slave. Only the acting master may restore
   (the authoritative store is what is being rebuilt), and only forward:
   a snapshot older than (or divergent from) the store's current version
   is refused rather than silently losing acked writes. *)
let restore t (snap : Snapshot.t) =
  if not (is_master t) then
    Error (t.routing.rt_service ^ ": restore requires the acting master")
  else
    match Snapshot.verify snap with
    | Error e -> Error (Snapshot.error_to_string e)
    | Ok () ->
      if
        snap.Snapshot.s_version < t.version
        || (snap.Snapshot.s_version = t.version
            && t.version > 0
            && not (Sha1.equal snap.Snapshot.s_root t.root))
      then
        Error
          (Printf.sprintf "%s: refusing restore: snapshot v%d is behind or divergent from store v%d"
             t.routing.rt_service snap.Snapshot.s_version t.version)
      else begin
        List.iter (fun (h, v) -> cache_put t (Sha1.of_hex h) v) snap.Snapshot.s_objects;
        apply_root t
          {
            Proto.ri_epoch = Int.max (epoch t) snap.Snapshot.s_epoch;
            ri_master = Session.rank t.b;
            ri_version = snap.Snapshot.s_version;
            ri_root = snap.Snapshot.s_root;
          };
        publish_root t;
        trace t ~name:"restore"
          ~fields:
            [
              ("version", Json.int t.version);
              ("objects", Json.int (List.length snap.Snapshot.s_objects));
            ]
          ();
        metric_incr t "ckpt.restore";
        metric_add t "ckpt.bytes" (Snapshot.objects_bytes snap);
        Ok ()
      end

(* --- Freeze / dispatch ---------------------------------------------------------- *)

(* Methods safe to serve while frozen: pure local reads that can never
   recurse into a self-addressed RPC. ("get"/"load" are excluded — they
   may fault in through [send_up], which can loop back to this very
   instance mid-takeover.) *)
let pure_while_frozen = function
  | "getversion" | "getroot" | "fetch" | "waitversion" -> true
  | _ -> false

(* --- Master admission control ----------------------------------------------------

   The intake depth is the number of write-side requests the master has
   accepted but not yet answered: fence contributions parked on open
   aggregates plus batches queued behind the serial apply CPU. Past the
   configured threshold the master sheds new write traffic with a
   structured busy error carrying a [retry_after] hint sized to the
   apply backlog, so clients back off for roughly as long as the queue
   needs to drain instead of blind exponential guessing. *)

let intake_depth t =
  (* Participants parked behind a cross-shard hold, and applies deferred
     behind it, are accepted-but-unanswered work too: without counting
     them the gate would re-open while the coordinator is still merging
     and the hold queue could grow without bound. *)
  let held =
    (match t.held with Some (_, n) -> n | None -> 0) + List.length t.held_applies
  in
  Collective.parked_at_root t.fences + t.apply_backlog + held

let write_method = function
  | "commit" | "fence" | "mput" | "flush" -> true
  | _ -> false

let admission_shed t (req : Message.t) =
  t.admission_sheds <- t.admission_sheds + 1;
  let retry_after =
    Float.max admission_retry_after (t.cpu_free_at -. Engine.now t.eng)
  in
  metric_incr t "kvs.admission.shed";
  trace t ~name:"admission.shed" ?ctx:req.Message.trace
    ~fields:[ ("retry_after", Json.float retry_after) ]
    ();
  Session.respond_error t.b req (Session.busy_error ~retry_after)

(* Overloaded iff admission is enabled, we are the master, and the
   request is write-side. Also tracks the intake high-water mark (and a
   gauge when metrics are on) — sampling at the gate is enough because
   every accepted write passed through it. *)
let admission_overloaded t m =
  t.cfg.admission_max_intake > 0 && is_master t && write_method m
  && begin
       let depth = intake_depth t in
       if depth > t.intake_hwm then t.intake_hwm <- depth;
       (match t.metrics with
       | Some mx ->
         let rank = Session.rank t.b in
         Metrics.set_gauge mx ~name:"kvs.intake" ~rank (float_of_int depth);
         Metrics.set_gauge mx ~name:"kvs.intake_hwm" ~rank (float_of_int t.intake_hwm)
       | None -> ());
       depth >= t.cfg.admission_max_intake
     end

(* A contribution to a fence this master has already opened is never
   shed: the parked peer contributions are what is pinning the intake
   count, and admitting the remaining participants is the only way that
   intake can drain — shedding a completer would wedge the fence at the
   admission limit. *)
let joins_open_fence t m (req : Message.t) =
  is_master t
  &&
  match m with
  | "fence" -> (
    match Json.member_opt "name" req.Message.payload with
    | Some n -> Collective.open_at_root t.fences (Json.to_string_v n)
    | None -> false)
  | "flush" -> (
    match Json.member_opt "fence" req.Message.payload with
    | None | Some Json.Null -> false
    | Some fj -> (
      match Json.member_opt "name" fj with
      | Some n -> Collective.open_at_root t.fences (Json.to_string_v n)
      | None -> false))
  | _ -> false

let handle_request t (req : Message.t) =
  let m = Topic.method_ req.Message.topic in
  match t.el.Election.phase with
  | Taking_over | Rejoining when not (pure_while_frozen m) -> t.parked <- req :: t.parked
  | _ when admission_overloaded t m && not (joins_open_fence t m req) ->
    admission_shed t req
  | _ -> (
    match m with
    | "put" -> handle_put t req
    | "get" -> handle_get t req
    | "load" -> handle_load t req
    | "fetch" -> handle_fetch t req
    | "commit" -> handle_commit t req
    | "fence" -> handle_fence t req
    | "mput" -> handle_mput t req
    | "flush" -> handle_flush t req
    | "getversion" -> handle_getversion t req
    | "waitversion" -> handle_waitversion t req
    | "getroot" -> handle_getroot t req
    | "fenceabort" -> handle_fenceabort t req
    | m ->
      Session.respond_error t.b req
        (Printf.sprintf "%s: unknown method %S" t.routing.rt_service m))

let () = serve := handle_request

(* --- Module wiring -------------------------------------------------------------- *)

let default_routing b =
  {
    rt_service = "kvs";
    rt_master = 0;
    (* The session tree re-roots itself on failover (heal), so the
       default routing ignores the believed master. *)
    rt_parent = (fun ~master:_ -> Session.tree_parent b);
    rt_children = (fun ~master:_ -> Session.tree_children b);
    rt_direct = false;
  }

let create_instance cfg ?routing b =
  let routing = match routing with Some r -> r | None -> default_routing b in
  let rec t =
    lazy
    {
      b;
      cfg;
      eng = Session.b_engine b;
      routing;
      el = Election.init ~self:(Session.rank b) ~master:routing.rt_master;
      service_ranks = [ routing.rt_master ];
      live = (let sess = Session.session_of b in fun r -> not (Session.is_down sess r));
      parked = [];
      round = 0;
      cache = Lru.create ~capacity:cfg.cache_capacity;
      store = Hashtbl.create 1024;
      root = Tree.empty_dir_sha;
      version = 0;
      dirty_objs = Hashtbl.create 64;
      pending_loads = Hashtbl.create 64;
      fences =
        Collective.create b ~final:is_abort_error
          ~is_root:(fun () -> is_master (Lazy.force t))
          ~parent:(fun () ->
            let t = Lazy.force t in
            if is_master t then None else t.routing.rt_parent ~master:(master_rank t))
          ~children:(fun () ->
            let t = Lazy.force t in
            t.routing.rt_children ~master:(master_rank t))
          ~send:(fun batch k -> fence_send (Lazy.force t) batch k)
          ~answer:(fun req r -> respond_result (Lazy.force t) req r)
          ~complete:(fun batch ~last:_ ~settle -> fence_complete (Lazy.force t) batch ~settle);
      version_waiters = [];
      cpu_free_at = 0.0;
      fence_hold = None;
      held = None;
      held_applies = [];
      seen = Hashtbl.create 16;
      next_fid = 0;
      bytes_held = 0;
      n_loads_issued = 0;
      apply_backlog = 0;
      intake_hwm = 0;
      admission_sheds = 0;
      tracer = None;
      metrics = None;
    }
  in
  let t = Lazy.force t in
  (* Evicted cache entries must release their accounted bytes, or
     [bytes_held] creeps upward forever on a busy slave. *)
  Lru.set_on_evict t.cache (fun _h v ->
      t.bytes_held <- t.bytes_held - Json.serialized_size v);
  (* Seed the empty root directory everywhere. *)
  cache_put t Tree.empty_dir_sha Tree.empty_dir;
  t

let module_of t =
  {
    Session.mod_name = t.routing.rt_service;
    on_request =
      (fun (req : Message.t) ->
        trace t ~name:(Topic.method_ req.Message.topic) ?ctx:req.Message.trace ();
        handle_request t req;
        Session.Consumed);
  }

let on_setroot t (ev : Message.t) =
  let ri, objects = Proto.setroot_of_json ev.Message.payload in
  trace t ~name:"setroot.deliver" ?ctx:ev.Message.trace
    ~fields:[ ("version", Json.int ri.Proto.ri_version) ]
    ();
  (* Replicate the commit's interior objects before adopting the root,
     so this cache can serve them to a future takeover. *)
  List.iter (fun (o : Proto.obj) -> cache_put t o.Proto.osha o.Proto.value) objects;
  apply_root t ri

let subscribe_events t =
  Session.subscribe t.b ~prefix:(t.routing.rt_service ^ ".setroot") (on_setroot t);
  Session.subscribe t.b ~prefix:(t.routing.rt_service ^ ".hello") (fun (ev : Message.t) ->
      run t (current_ri t) (Election.Hello (Json.to_int (Json.member "rank" ev.Message.payload))))

(* Failover and rejoin are driven off the session's liveness transitions;
   each instance steps its own election, so all compute the same
   lowest-live successor. An instance whose route to the master changed
   re-forwards its open fence batches at once. *)
let install sess instances =
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iter subscribe_events instances;
  Session.add_liveness_watch sess (fun r up ->
      Array.iter
        (fun t ->
          if not up then run t (current_ri t) (Election.Died r)
          else if r = Session.rank t.b then run t (current_ri t) Election.Revived
          else Collective.reroute t.fences)
        instances);
  instances

let load sess ?(config = default_config) () =
  let n = Session.size sess in
  let instances = Array.init n (fun r -> create_instance config (Session.broker sess r)) in
  let service_ranks = List.init n Fun.id in
  Array.iter (fun t -> t.service_ranks <- service_ranks) instances;
  install sess instances

(* Routed families (Volumes) fail over like the session store, but their
   election order follows the volume's *virtual ring*: successors are
   preferred in relabeled-tree order starting at the static master, so a
   dead master's role moves to the next rank of its own volume instead
   of piling every volume's mastership onto rank 0. The election takes
   the first live rank of [service_ranks], which encodes that order. *)

let load_routed sess ?(config = default_config) ~routing () =
  let n = Session.size sess in
  let instances =
    Array.init n (fun r -> create_instance config ~routing:(routing r) (Session.broker sess r))
  in
  let m0 = instances.(0).routing.rt_master in
  let ring_order = List.init n (fun i -> (m0 + i) mod n) in
  Array.iter (fun t -> t.service_ranks <- ring_order) instances;
  install sess instances
