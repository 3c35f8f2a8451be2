module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Net = Flux_sim.Net
module Treemath = Flux_util.Treemath
module Ring_buffer = Flux_util.Ring_buffer
module Idgen = Flux_util.Idgen
module Rng = Flux_util.Rng
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics

type rank_topology = Ring | Direct

type reply = (Json.t, string) result

(* --- RPC retry policy ------------------------------------------------ *)

let rpc_timeout = 2.0 (* per-attempt deadline, seconds *)
let rpc_attempts = 4 (* transmissions for idempotent requests *)
let rpc_backoff_base = 0.05 (* delay before the first retransmit *)
let rpc_backoff_cap = 1.0
let rpc_jitter = 0.1 (* fraction of the backoff randomized away *)

(* --- Credit-based flow control ------------------------------------- *)

type flow_config = { flow_credits : int; flow_stash : int }

(* Seconds before an unanswered credit is considered leaked and
   reclaimed (responses lost to drops or dead parents). *)
let flow_timeout = 4.0

(* Structured overload rejection: servers shed with
   [Error "busy retry_after=<seconds>"] and the RPC retry machinery
   honors the hint instead of surfacing the failure. *)

let busy_error ~retry_after = Printf.sprintf "busy retry_after=%.6f" retry_after

let busy_retry_after e =
  let n = String.length e in
  if n >= 4 && String.sub e 0 4 = "busy" && (n = 4 || e.[4] = ' ') then
    match String.index_opt e '=' with
    | Some i -> (
      try Some (float_of_string (String.sub e (i + 1) (n - i - 1))) with _ -> Some 0.0)
    | None -> Some 0.0
  else None

type handled = Consumed | Pass

type module_instance = { mod_name : string; on_request : Message.t -> handled }

type t = {
  eng : Engine.t;
  n : int;
  k : int; (* RPC tree fan-out *)
  rank_topo : rank_topology;
  rpc_net : Message.t Net.t;
  event_net : Message.t Net.t;
  ring_net : Message.t Net.t;
  mutable brokers : broker array;
  down : bool array;
  parent_of : int option array; (* effective topology, recomputed by heal *)
  mutable root : int; (* the overlay root, -1 before the first heal *)
  children_of : int list array;
  mutable next_seq : int; (* event sequence, assigned at the root *)
  mutable tracer : Tracer.t option;
  mutable metrics : Metrics.t option;
  (* (overall, per-depth) RPC latency histogram families, resolved once
     when a registry attaches — [instrument_reply] runs per RPC. *)
  mutable lat_fams : (Metrics.hist_family * Metrics.hist_family array) option;
  mutable parent : t option;
  mutable children : t list; (* creation order, live only *)
  mutable destroyed : bool;
  flow : flow_config option;
  mutable rpc_timeouts : int;
  mutable rpc_retries : int;
  mutable rpc_busy_retries : int;
  mutable flow_stash_hwm : int;
  mutable on_liveness : (int -> bool -> unit) list; (* rank, is_up *)
  static_parent : int option array; (* k-ary tree parents, fixed at create *)
}

and broker = {
  b_rank : int;
  b_session : t;
  mod_index : (string, module_instance) Hashtbl.t; (* name -> instance *)
  pending : (int, pending_rpc) Hashtbl.t;
  mutable subs : subscription list; (* modules' and clients', in subscription order *)
  mutable last_seq : int;
  event_log : Message.t Ring_buffer.t;
  stashed : (int, Message.t) Hashtbl.t; (* out-of-order events by seq *)
  mutable resync_in_flight : bool;
  nonces : Idgen.t;
  (* Credit-based flow control toward the parent, active only when the
     session carries a [flow_config]. [fc_charges] holds the send time
     of each in-flight upstream request (its length is the spent
     credit); [fc_stash] holds requests deferred by an exhausted
     window. *)
  fc_charges : float Queue.t;
  fc_stash : Message.t Queue.t;
  mutable fc_timer : bool;
}

(* One in-flight RPC at its origin broker. The deadline timer is re-armed
   on every retransmit; completing the RPC (response, timeout, or final
   failure) cancels it and removes the table entry, so nothing dangles. *)
and pending_rpc = {
  pr_reply : reply -> unit;
  mutable pr_timer : Engine.handle option;
  mutable pr_sends : int;
  pr_timeout : float;
  pr_attempts : int; (* max total transmissions; 1 = no retry *)
  pr_resend : (unit -> unit) option; (* re-route via the current topology *)
  pr_ctx : Tracer.ctx option; (* causal span, shared by all transmissions *)
}

and subscription =
  | Prefix of string * (Message.t -> unit) (* permanent, component-wise prefix *)
  | Once of string * (Message.t -> unit) (* exact topic; leaves [subs] when it fires *)

and module_factory = broker -> module_instance

let set_tracer t tr =
  t.tracer <- tr;
  (* Net folds its drop accounting into the same counter table. *)
  Net.set_tracer t.rpc_net tr;
  Net.set_tracer t.event_net tr;
  Net.set_tracer t.ring_net tr

let depth_latency_names = Array.init 64 (Printf.sprintf "cmb.rpc.latency.depth%d")

let set_metrics t m =
  t.metrics <- m;
  t.lat_fams <-
    Option.map
      (fun m ->
        ( Metrics.hist_family m ~name:"cmb.rpc.latency",
          Array.map (fun n -> Metrics.hist_family m ~name:n) depth_latency_names ))
      m;
  Net.set_metrics t.rpc_net ~label:"net.rpc" m;
  Net.set_metrics t.event_net ~label:"net.event" m;
  Net.set_metrics t.ring_net ~label:"net.ring" m

let trace t ~name ?rank ?ctx ?fields () =
  match t.tracer with
  | Some tr -> Tracer.emit tr ~cat:"cmb" ~name ?rank ?ctx ?fields ()
  | None -> ()

(* A request entering the CMB starts a fresh root span unless the caller
   (a module forwarding work it received) supplies the causal parent.
   Without a tracer this is [None] end to end: no ids are allocated and
   messages carry no context. *)
let request_ctx t supplied =
  match t.tracer with
  | None -> None
  | Some tr ->
    Some (match supplied with Some c -> c | None -> Tracer.root_ctx tr)

let engine t = t.eng
let size t = t.n
let fanout t = t.k
let broker t r = t.brokers.(r)
let rank b = b.b_rank
let session_of b = b.b_session
let b_engine b = b.b_session.eng
let b_size b = b.b_session.n

let tree_parent b = b.b_session.parent_of.(b.b_rank)
let tree_children b = b.b_session.children_of.(b.b_rank)

let find_module b name = Hashtbl.find_opt b.mod_index name

let is_down t r = t.down.(r)

let add_liveness_watch t f = t.on_liveness <- t.on_liveness @ [ f ]

(* Effective topology: the overlay root stays put while it lives, so a
   revived rank does not take it back (the KVS master is elected the
   same non-preemptive way), and otherwise moves to the lowest live
   rank. Each other live rank's parent is its nearest live ancestor in
   the static k-ary tree. A live rank with no live static ancestor (the
   static root once the overlay root has moved, or an orphan of its
   death) attaches directly to the overlay root, keeping the session a
   single connected tree. In heap numbering ancestors are always
   lower-ranked, so every chain descends to the overlay root, which has
   no parent: attachment stays acyclic. *)
let heal t =
  Array.fill t.children_of 0 t.n [];
  if t.root < 0 || t.down.(t.root) then begin
    t.root <- -1;
    try
      for r = 0 to t.n - 1 do
        if not t.down.(r) then begin
          t.root <- r;
          raise Exit
        end
      done
    with Exit -> ()
  end;
  let root = t.root in
  for r = 0 to t.n - 1 do
    if t.down.(r) || r = root then t.parent_of.(r) <- None
    else begin
      let rec find_live_ancestor rank =
        match t.static_parent.(rank) with
        | None -> None
        | Some p -> if t.down.(p) then find_live_ancestor p else Some p
      in
      t.parent_of.(r) <-
        (match find_live_ancestor r with
        | Some p -> Some p
        | None -> Some root)
    end
  done;
  for r = t.n - 1 downto 0 do
    if not t.down.(r) then
      match t.parent_of.(r) with
      | Some p -> t.children_of.(p) <- r :: t.children_of.(p)
      | None -> ()
  done

(* --- Sending primitives ------------------------------------------- *)

let send_on net ~src ~dst msg = Net.send net ~src ~dst ~size:(Message.size msg) msg

(* --- Event serialization (for resync payloads) --------------------- *)

let event_to_json (m : Message.t) =
  Json.obj
    [
      ("topic", Json.string m.Message.topic);
      ("origin", Json.int m.Message.origin);
      ("seq", Json.int m.Message.seq);
      ("payload", m.Message.payload);
    ]

let event_of_json j =
  let open Message in
  {
    kind = Event;
    topic = Json.to_string_v (Json.member "topic" j);
    nonce = 0;
    origin = Json.to_int (Json.member "origin" j);
    dst = None;
    seq = Json.to_int (Json.member "seq" j);
    route = [];
    error = None;
    payload = Json.member "payload" j;
    trace = None;
  }

(* --- Ring hop selection ---------------------------------------------- *)

let ring_next_live t from =
  let rec go r steps =
    if steps > t.n then None
    else
      let nxt = Treemath.ring_next ~size:t.n r in
      if t.down.(nxt) then go nxt (steps + 1) else Some nxt
  in
  go from 0

(* --- RPC deadlines and retransmission --------------------------------- *)

let fresh_nonce b =
  (* Nonces are unique per originating broker; responses are matched in
     the origin broker's pending table only. Retransmits reuse the nonce
     of the original send, so a late response to any attempt completes
     the RPC and later duplicates are ignored. *)
  Idgen.next_int b.nonces + 1

let cancel_deadline pr =
  match pr.pr_timer with
  | Some h ->
    Engine.cancel h;
    pr.pr_timer <- None
  | None -> ()

(* Deterministic, seeded retransmit jitter: a pure hash of
   (rank, nonce, attempt) spreads simultaneous retries over
   [backoff * (1 - jitter), backoff] without a shared RNG, so the draw
   cannot depend on event ordering and runs stay bit-for-bit
   reproducible. Pure exponential backoff would retransmit a
   simultaneous-entry fence in lockstep — the classic synchronized-retry
   stampede. *)
let jitter_factor ~rank ~nonce ~sends =
  let seed =
    0x6a746a72 lxor (rank * 0x9e3779b1) lxor (nonce * 0x85ebca77) lxor (sends * 0xc2b2ae3d)
  in
  1.0 -. (rpc_jitter *. Rng.float (Rng.create seed) 1.0)

let backoff_delay ~rank ~nonce ~sends ~floor =
  let backoff =
    Float.min rpc_backoff_cap
      (Float.max floor (rpc_backoff_base *. (2.0 ** float_of_int (sends - 1))))
  in
  backoff *. jitter_factor ~rank ~nonce ~sends

let rec arm_deadline b nonce pr =
  if pr.pr_timeout < infinity then
    pr.pr_timer <-
      Some
        (Engine.schedule b.b_session.eng ~delay:pr.pr_timeout (fun () ->
             expire_pending b nonce pr))

and retry_pending b nonce pr ~delay =
  pr.pr_timer <-
    Some
      (Engine.schedule b.b_session.eng ~delay (fun () ->
           if Hashtbl.mem b.pending nonce then begin
             let t = b.b_session in
             pr.pr_sends <- pr.pr_sends + 1;
             t.rpc_retries <- t.rpc_retries + 1;
             trace t ~name:"rpc.retry" ~rank:b.b_rank ?ctx:pr.pr_ctx
               ~fields:[ ("attempt", Json.int pr.pr_sends) ]
               ();
             arm_deadline b nonce pr;
             match pr.pr_resend with Some resend -> resend () | None -> ()
           end))

and expire_pending b nonce pr =
  if Hashtbl.mem b.pending nonce then begin
    pr.pr_timer <- None;
    let t = b.b_session in
    match pr.pr_resend with
    | Some _ when pr.pr_sends < pr.pr_attempts ->
      (* Exponential backoff, then retransmit through whatever topology
         is in effect by then (a healed overlay routes via the new
         parent). *)
      retry_pending b nonce pr
        ~delay:(backoff_delay ~rank:b.b_rank ~nonce ~sends:pr.pr_sends ~floor:0.0)
    | _ ->
      Hashtbl.remove b.pending nonce;
      t.rpc_timeouts <- t.rpc_timeouts + 1;
      trace t ~name:"rpc.timeout" ~rank:b.b_rank ?ctx:pr.pr_ctx ();
      pr.pr_reply (Error "timeout")
  end

let complete_pending b nonce r =
  match Hashtbl.find_opt b.pending nonce with
  | None -> ()
  | Some pr -> (
    let t = b.b_session in
    let busy = match r with Error e -> busy_retry_after e | Ok _ -> None in
    match busy with
    | Some after when pr.pr_resend <> None && pr.pr_sends < pr.pr_attempts ->
      (* The server shed us under load: honor the retry_after hint
         (floored into the exponential-backoff schedule, capped and
         jittered) instead of failing — clients degrade to higher
         latency, not errors. *)
      cancel_deadline pr;
      t.rpc_busy_retries <- t.rpc_busy_retries + 1;
      trace t ~name:"rpc.busy" ~rank:b.b_rank ?ctx:pr.pr_ctx
        ~fields:[ ("retry_after", Json.float after) ]
        ();
      retry_pending b nonce pr
        ~delay:(backoff_delay ~rank:b.b_rank ~nonce ~sends:pr.pr_sends ~floor:after)
    | _ ->
      Hashtbl.remove b.pending nonce;
      cancel_deadline pr;
      pr.pr_reply r)

let register_pending b ~nonce ~timeout ~attempts ?resend ?ctx reply =
  let pr =
    {
      pr_reply = reply;
      pr_timer = None;
      pr_sends = 1;
      pr_timeout = timeout;
      pr_attempts = attempts;
      pr_resend = resend;
      pr_ctx = ctx;
    }
  in
  Hashtbl.replace b.pending nonce pr;
  arm_deadline b nonce pr

let rpc_opts ?timeout ?attempts ~idempotent () =
  let timeout = match timeout with Some x -> x | None -> rpc_timeout in
  let attempts =
    match attempts with
    | Some a when a < 1 -> invalid_arg "Session: rpc attempts must be >= 1"
    | Some a -> a
    | None -> if idempotent then rpc_attempts else 1
  in
  (timeout, attempts)

(* --- Request routing ------------------------------------------------ *)

let rec route_request b (msg : Message.t) =
  match find_module b (Topic.service msg.Message.topic) with
  | Some m -> (
    match m.on_request msg with Consumed -> () | Pass -> forward_up b msg)
  | None -> forward_up b msg

and forward_up b msg =
  match tree_parent b with
  | Some p -> (
    let t = b.b_session in
    match t.flow with
    | None -> send_parent b p msg
    | Some fc ->
      (* Credit window toward the parent: each in-flight upstream
         request spends one credit, replenished when its response
         passes back down through this broker (see {!flow_release}).
         Exhausted credit defers into a bounded stash; a full stash
         sheds with a structured busy error that propagates pressure
         down the TBON instead of accumulating bytes at the root. *)
      expire_charges b;
      if Queue.length b.fc_charges < fc.flow_credits then begin
        Queue.add (Engine.now t.eng) b.fc_charges;
        send_parent b p msg
      end
      else if Queue.length b.fc_stash < fc.flow_stash then begin
        Queue.add msg b.fc_stash;
        let depth = Queue.length b.fc_stash in
        if depth > t.flow_stash_hwm then t.flow_stash_hwm <- depth;
        (match t.metrics with
        | None -> ()
        | Some m ->
          Metrics.incr m ~name:"cmb.flow.defer" ~rank:b.b_rank;
          Metrics.set_gauge m ~name:"cmb.flow.stash" ~rank:b.b_rank (float_of_int depth);
          Metrics.set_gauge m ~name:"cmb.flow.stash_hwm" ~rank:b.b_rank
            (float_of_int t.flow_stash_hwm));
        trace t ~name:"flow.defer" ~rank:b.b_rank ?ctx:msg.Message.trace
          ~fields:[ ("depth", Json.int depth) ]
          ();
        arm_flow_timer b fc
      end
      else begin
        (match t.metrics with
        | None -> ()
        | Some m -> Metrics.incr m ~name:"cmb.flow.shed" ~rank:b.b_rank);
        trace t ~name:"flow.shed" ~rank:b.b_rank ?ctx:msg.Message.trace ();
        deliver_response b
          (Message.error_response ~of_:msg (busy_error ~retry_after:flow_timeout))
      end)
  | None when b.b_rank <> 0 && (not b.b_session.down.(0)) && not (List.mem 0 msg.Message.route) ->
    (* The overlay root moved off rank 0, which lives again as its
       child: the services mastered at rank 0 (wexec, resvc, log, mon,
       telem) are still there, so a request no module here consumed goes
       on to it. A route through rank 0 means rank 0 passed it too. *)
    send_parent b 0 msg
  | None ->
    (* At the root with no matching module: fail the RPC. *)
    deliver_response b
      (Message.error_response ~of_:msg
         (Printf.sprintf "unknown service %S" (Topic.service msg.Message.topic)))

and send_parent b p msg =
  trace b.b_session ~name:"hop.up" ~rank:b.b_rank ?ctx:msg.Message.trace
    ~fields:[ ("dst", Json.int p) ] ();
  send_on b.b_session.rpc_net ~src:b.b_rank ~dst:p (Message.push_hop msg b.b_rank)

(* Credits older than [flow_timeout] belong to requests whose response
   was lost (drops, failed parents): expire them so the window cannot
   leak shut. *)
and expire_charges b =
  let now = Engine.now b.b_session.eng in
  let rec go () =
    match Queue.peek_opt b.fc_charges with
    | Some t0 when now -. t0 > flow_timeout ->
      ignore (Queue.take b.fc_charges : float);
      go ()
    | _ -> ()
  in
  go ()

and flow_drain b fc =
  expire_charges b;
  let rec go () =
    if Queue.length b.fc_charges < fc.flow_credits then
      match Queue.take_opt b.fc_stash with
      | None -> ()
      | Some msg ->
        (match tree_parent b with
        | Some p ->
          Queue.add (Engine.now b.b_session.eng) b.fc_charges;
          send_parent b p msg
        | None ->
          (* Healed into the root while stashed: dispatch locally. *)
          route_request b msg);
        go ()
  in
  go ();
  match b.b_session.metrics with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m ~name:"cmb.flow.stash" ~rank:b.b_rank
      (float_of_int (Queue.length b.fc_stash))

(* A stash with no response traffic to drain it (everything upstream
   lost) still empties: a timer re-runs the drain after charge expiry. *)
and arm_flow_timer b fc =
  if not b.fc_timer then begin
    b.fc_timer <- true;
    ignore
      (Engine.schedule b.b_session.eng ~delay:(flow_timeout /. 2.0) (fun () ->
           b.fc_timer <- false;
           flow_drain b fc;
           if not (Queue.is_empty b.fc_stash) then arm_flow_timer b fc)
        : Engine.handle)
  end

(* A response arriving over the rpc plane answers a request this broker
   previously forwarded up: replenish one credit and release any
   deferred sends. *)
and flow_release b =
  match b.b_session.flow with
  | None -> ()
  | Some fc ->
    ignore (Queue.take_opt b.fc_charges : float option);
    if not (Queue.is_empty b.fc_stash) then flow_drain b fc

and deliver_response b (resp : Message.t) =
  match Message.pop_hop resp with
  | Some (hop, resp') ->
    trace b.b_session ~name:"hop.down" ~rank:b.b_rank ?ctx:resp.Message.trace
      ~fields:[ ("dst", Json.int hop) ] ();
    send_on b.b_session.rpc_net ~src:b.b_rank ~dst:hop resp'
  | None ->
    if resp.Message.origin <> b.b_rank then
      (* No route back yet the origin is remote: the request arrived
         over the ring plane, so the response circulates forward around
         the ring to its origin. *)
      ring_forward b { resp with Message.dst = Some resp.Message.origin }
    else
      (* Route exhausted at the origin: complete the local RPC. A
         duplicate response (from a retransmitted request) finds no
         pending entry and is dropped here. *)
      complete_pending b resp.Message.nonce
        (match resp.Message.error with
        | Some e -> Error e
        | None -> Ok resp.Message.payload)

and ring_forward b msg =
  (* A ring message is only consumable at its destination: if that rank
     is down (it may have died while the message was mid-circulation),
     drop the message here — hop-by-hop forwarding skips dead ranks, so
     it would otherwise circle the live ring forever. The originator's
     RPC deadline recovers. *)
  match msg.Message.dst with
  | None -> ()
  | Some d when b.b_session.down.(d) -> ()
  | Some d -> (
    match b.b_session.rank_topo with
    | Direct ->
      (* One hop straight to the destination. *)
      send_on b.b_session.ring_net ~src:b.b_rank ~dst:d msg
    | Ring -> (
      match ring_next_live b.b_session b.b_rank with
      | Some nxt ->
        trace b.b_session ~name:"hop.ring" ~rank:b.b_rank ?ctx:msg.Message.trace
          ~fields:[ ("dst", Json.int nxt) ] ();
        send_on b.b_session.ring_net ~src:b.b_rank ~dst:nxt msg
      | None -> ()))

let respond b req payload = deliver_response b (Message.response ~of_:req payload)
let respond_error b req err = deliver_response b (Message.error_response ~of_:req err)

(* Wrap [reply] to record the RPC completion: an [rpc.done] event in
   the request's span and a latency histogram keyed by the origin's
   depth in the RPC tree (the paper's per-level latency view). The
   histogram families were resolved at [set_metrics]: this runs once
   per RPC, where a name lookup (let alone a sprintf) would rival the
   histogram update it labels. *)
let instrument_reply b ~topic ~ctx reply =
  let t = b.b_session in
  match (t.tracer, t.metrics) with
  | None, None -> reply
  | _ ->
    let t0 = Engine.now t.eng in
    fun r ->
      let dur = Engine.now t.eng -. t0 in
      (match t.lat_fams with
      | None -> ()
      | Some (overall, by_depth) ->
        Metrics.family_observe overall ~rank:b.b_rank dur;
        let d = Treemath.depth ~k:t.k b.b_rank in
        if d < Array.length by_depth then
          Metrics.family_observe by_depth.(d) ~rank:b.b_rank dur);
      trace t ~name:"rpc.done" ~rank:b.b_rank ?ctx
        ~fields:
          [
            ("topic", Json.string topic);
            ("dur", Json.float dur);
            ("ok", Json.bool (match r with Ok _ -> true | Error _ -> false));
          ]
        ();
      reply r

let request_up b ?timeout ?attempts ?(idempotent = false) ?trace_ctx ~topic payload ~reply =
  let t = b.b_session in
  let timeout, attempts = rpc_opts ?timeout ?attempts ~idempotent () in
  let ctx = request_ctx t trace_ctx in
  let reply = instrument_reply b ~topic ~ctx reply in
  let nonce = fresh_nonce b in
  let msg = Message.request ~topic ~origin:b.b_rank ~nonce payload in
  let msg = match ctx with Some c -> Message.with_trace msg c | None -> msg in
  trace t ~name:"rpc.send" ~rank:b.b_rank ?ctx ~fields:[ ("topic", Json.string topic) ] ();
  let resend = if attempts > 1 then Some (fun () -> route_request b msg) else None in
  register_pending b ~nonce ~timeout ~attempts ?resend ?ctx reply;
  route_request b msg

let request_from_module b ?timeout ?attempts ?(idempotent = false) ?trace_ctx ~topic payload
    ~reply =
  let t = b.b_session in
  let timeout, attempts = rpc_opts ?timeout ?attempts ~idempotent () in
  let ctx = request_ctx t trace_ctx in
  let reply = instrument_reply b ~topic ~ctx reply in
  let nonce = fresh_nonce b in
  let msg = Message.request ~topic ~origin:b.b_rank ~nonce payload in
  let msg = match ctx with Some c -> Message.with_trace msg c | None -> msg in
  trace t ~name:"rpc.send" ~rank:b.b_rank ?ctx ~fields:[ ("topic", Json.string topic) ] ();
  let resend = if attempts > 1 then Some (fun () -> forward_up b msg) else None in
  register_pending b ~nonce ~timeout ~attempts ?resend ?ctx reply;
  forward_up b msg

(* --- Ring plane ------------------------------------------------------ *)

let rec rpc_rank b ?timeout ?(idempotent = false) ?trace_ctx ?route ~dst ~topic payload
    ~reply =
  let t = b.b_session in
  let timeout, attempts = rpc_opts ?timeout ~idempotent () in
  let ctx = request_ctx t trace_ctx in
  let reply = instrument_reply b ~topic ~ctx reply in
  let nonce = fresh_nonce b in
  trace t ~name:"rpc.send" ~rank:b.b_rank ?ctx ~fields:[ ("topic", Json.string topic) ] ();
  (* Each (re)transmission resolves its destination afresh: with [route]
     a retransmit follows the *current* topology (e.g. a volume tree
     healed around a dead parent, or a freshly elected master) instead
     of hammering the original, possibly dead, rank. *)
  let transmit () =
    let dst = match route with Some f -> f () | None -> dst in
    let msg = Message.request ~dst ~topic ~origin:b.b_rank ~nonce payload in
    let msg = match ctx with Some c -> Message.with_trace msg c | None -> msg in
    if dst = b.b_rank then
      (* Loop-back: deliver to the local module directly. *)
      ignore
        (Engine.schedule b.b_session.eng
           ~delay:(Net.config b.b_session.ring_net).Net.local_delivery (fun () ->
             handle_ring_arrival b msg)
          : Engine.handle)
    else ring_forward b msg
  in
  let resend = if attempts > 1 then Some transmit else None in
  register_pending b ~nonce ~timeout ~attempts ?resend ?ctx reply;
  transmit ()

and handle_ring_arrival b (msg : Message.t) =
  match msg.Message.kind with
  | Message.Request ->
    if msg.Message.dst = Some b.b_rank then begin
      match find_module b (Topic.service msg.Message.topic) with
      | Some m -> (
        match m.on_request msg with
        | Consumed -> ()
        | Pass -> deliver_response b (Message.error_response ~of_:msg "not handled"))
      | None ->
        deliver_response b
          (Message.error_response ~of_:msg
             (Printf.sprintf "no module %S at rank %d"
                (Topic.service msg.Message.topic)
                b.b_rank))
    end
    else ring_forward b msg
  | Message.Response ->
    if msg.Message.dst = Some b.b_rank then
      deliver_response b { msg with Message.route = [] }
    else ring_forward b msg
  | Message.Event -> ()

(* --- Event plane ----------------------------------------------------- *)

(* Walks the list current at arrival, so a subscription added by a
   handler sees only later events. A one-shot missing from [b.subs]
   already fired, in a re-entrant publish by an earlier handler. *)
let rec dispatch_subs b (ev : Message.t) = function
  | [] -> ()
  | s :: rest ->
    (match s with
    | Prefix (prefix, cb) -> if Topic.prefixed ~prefix ev.Message.topic then cb ev
    | Once (topic, cb) ->
      if String.equal topic ev.Message.topic && List.memq s b.subs then begin
        b.subs <- List.filter (fun x -> x != s) b.subs;
        cb ev
      end);
    dispatch_subs b ev rest

let rec deliver_event b (ev : Message.t) =
  let seq = ev.Message.seq in
  if seq > b.last_seq then begin
    if seq = b.last_seq + 1 then begin
      b.last_seq <- seq;
      Ring_buffer.push b.event_log ev;
      trace b.b_session ~name:"event.deliver" ~rank:b.b_rank ?ctx:ev.Message.trace
        ~fields:[ ("topic", Json.string ev.Message.topic); ("seq", Json.int seq) ]
        ();
      dispatch_subs b ev b.subs;
      List.iter
        (fun c -> send_on b.b_session.event_net ~src:b.b_rank ~dst:c ev)
        (tree_children b);
      drain_stash b
    end
    else begin
      Hashtbl.replace b.stashed seq ev;
      request_resync b
    end
  end

and drain_stash b =
  match Hashtbl.find_opt b.stashed (b.last_seq + 1) with
  | Some ev ->
    Hashtbl.remove b.stashed (b.last_seq + 1);
    deliver_event b ev
  | None -> ()

and request_resync b =
  if not b.resync_in_flight then begin
    b.resync_in_flight <- true;
    (* Resync is a pure read of the provider's event log: safe to
       retransmit, and a timeout clears [resync_in_flight] so a later
       gap can trigger a fresh attempt. *)
    let before = b.last_seq in
    let on_reply r =
      b.resync_in_flight <- false;
      match r with
      | Ok payload ->
        let evs = List.map event_of_json (Json.to_list (Json.member "events" payload)) in
        List.iter (deliver_event b) evs;
        drain_stash b;
        if Hashtbl.length b.stashed > 0 then
          if b.last_seq > before then
            (* Progress was made; keep asking for the remaining gap. *)
            request_resync b
          else begin
            (* The provider's log has been trimmed past our cursor, so
               the gap can never be filled. Accept the loss and
               fast-forward to the oldest stashed event; modules
               tolerate gaps (version/epoch-guarded state). *)
            let oldest = Hashtbl.fold (fun s _ acc -> min s acc) b.stashed max_int in
            trace b.b_session ~name:"event.gap" ~rank:b.b_rank
              ~fields:[ ("from", Json.int (b.last_seq + 1)); ("upto", Json.int oldest) ]
              ();
            b.last_seq <- oldest - 1;
            drain_stash b
          end
      | Error _ -> ()
    in
    let payload = Json.obj [ ("from", Json.int (b.last_seq + 1)) ] in
    match tree_parent b with
    | Some _ -> request_from_module b ~idempotent:true ~topic:"cmb.resync" payload ~reply:on_reply
    | None -> (
      (* The session root itself can be behind: a revived broker
         re-rooted here missed events its children kept delivering while
         it was dark. Pull the backlog from the first live child over
         the rank plane. *)
      match tree_children b with
      | c :: _ -> rpc_rank b ~idempotent:true ~dst:c ~topic:"cmb.resync" payload ~reply:on_reply
      | [] -> b.resync_in_flight <- false)
  end

let publish_msg b (ev : Message.t) =
  match tree_parent b with
  | Some p -> send_on b.b_session.event_net ~src:b.b_rank ~dst:p ev
  | None ->
    (* This broker is the session root: stamp and multicast. *)
    let t = b.b_session in
    t.next_seq <- t.next_seq + 1;
    deliver_event b { ev with Message.seq = t.next_seq }

let publish b ?trace_ctx ~topic payload =
  trace b.b_session ~name:"event.publish" ~rank:b.b_rank ?ctx:trace_ctx
    ~fields:[ ("topic", Json.string topic) ]
    ();
  let ev = Message.event ~topic ~origin:b.b_rank payload in
  let ev = match trace_ctx with Some c -> Message.with_trace ev c | None -> ev in
  publish_msg b ev

let subscribe b ~prefix cb = b.subs <- b.subs @ [ Prefix (prefix, cb) ]
let subscribe_once b ~topic cb = b.subs <- b.subs @ [ Once (topic, cb) ]

(* --- Plane dispatch --------------------------------------------------- *)

let on_rpc_plane b ~src:_ (msg : Message.t) =
  match msg.Message.kind with
  | Message.Request -> route_request b msg
  | Message.Response ->
    flow_release b;
    deliver_response b msg
  | Message.Event -> ()

let on_event_plane b ~src:_ (msg : Message.t) =
  match msg.Message.kind with
  | Message.Event ->
    if msg.Message.seq = 0 then publish_msg b msg (* still ascending *)
    else deliver_event b msg
  | Message.Request | Message.Response -> ()

let on_ring_plane b ~src:_ msg = handle_ring_arrival b msg

(* --- Built-in cmb module ---------------------------------------------- *)

let cmb_module b =
  let handle (msg : Message.t) =
    match Topic.method_ msg.Message.topic with
    | "ping" ->
      respond b msg (Json.obj [ ("rank", Json.int b.b_rank) ]);
      Consumed
    | "resync" ->
      (* Serve from our event log. Requests for our own resync must come
         from children, never loop locally (they use request_from_module). *)
      let from = Json.to_int (Json.member "from" msg.Message.payload) in
      let evs =
        List.filter
          (fun (e : Message.t) -> e.Message.seq >= from)
          (Ring_buffer.to_list b.event_log)
      in
      respond b msg (Json.obj [ ("events", Json.list (List.map event_to_json evs)) ]);
      Consumed
    | "topo" ->
      respond b msg
        (Json.obj
           [
             ("rank", Json.int b.b_rank);
             ("size", Json.int b.b_session.n);
             ("fanout", Json.int b.b_session.k);
             ( "parent",
               match tree_parent b with Some p -> Json.int p | None -> Json.null );
             ("children", Json.list (List.map Json.int (tree_children b)));
           ]);
      Consumed
    | _ -> Pass
  in
  { mod_name = "cmb"; on_request = handle }

(* --- Session construction --------------------------------------------- *)

let create eng ?(fanout = 2) ?(rank_topology = Ring) ?flow ~size () =
  (match flow with
  | Some fc when fc.flow_credits < 1 || fc.flow_stash < 1 ->
    invalid_arg "Session.create: flow_config bounds must be positive"
  | _ -> ());
  if size <= 0 then invalid_arg "Session.create: size must be positive";
  if fanout < 2 then invalid_arg "Session.create: fanout must be >= 2";
  let mk_net () = Net.create eng ~nodes:size () in
  let t =
    {
      eng;
      n = size;
      k = fanout;
      rank_topo = rank_topology;
      rpc_net = mk_net ();
      event_net = mk_net ();
      ring_net = mk_net ();
      brokers = [||];
      down = Array.make size false;
      parent_of = Array.make size None;
      root = -1;
      children_of = Array.make size [];
      next_seq = 0;
      tracer = None;
      metrics = None;
      lat_fams = None;
      parent = None;
      children = [];
      destroyed = false;
      flow;
      rpc_timeouts = 0;
      rpc_retries = 0;
      rpc_busy_retries = 0;
      flow_stash_hwm = 0;
      on_liveness = [];
      static_parent = Array.init size (fun r -> Treemath.parent ~k:fanout r);
    }
  in
  t.brokers <-
    Array.init size (fun r ->
        {
          b_rank = r;
          b_session = t;
          mod_index = Hashtbl.create 8;
          pending = Hashtbl.create 16;
          subs = [];
          last_seq = 0;
          event_log = Ring_buffer.create ~capacity:4096;
          stashed = Hashtbl.create 8;
          resync_in_flight = false;
          nonces = Idgen.create ();
          fc_charges = Queue.create ();
          fc_stash = Queue.create ();
          fc_timer = false;
        });
  heal t;
  Array.iteri
    (fun r b ->
      Net.set_handler t.rpc_net r (on_rpc_plane b);
      Net.set_handler t.event_net r (on_event_plane b);
      Net.set_handler t.ring_net r (on_ring_plane b);
      Hashtbl.replace b.mod_index "cmb" (cmb_module b))
    t.brokers;
  t

let load_module t ?ranks factory =
  let targets = match ranks with Some rs -> rs | None -> List.init t.n Fun.id in
  List.iter
    (fun r ->
      let b = t.brokers.(r) in
      let m = factory b in
      if find_module b m.mod_name <> None then
        invalid_arg (Printf.sprintf "Session.load_module: %S already loaded at rank %d" m.mod_name r);
      Hashtbl.replace b.mod_index m.mod_name m)
    targets

(* --- Session hierarchy --------------------------------------------------- *)

let child_sessions t = List.rev t.children

let create_child parent ~nodes () =
  if parent.destroyed then invalid_arg "Session.create_child: parent destroyed";
  if nodes = [] then invalid_arg "Session.create_child: empty node list";
  if List.length (List.sort_uniq compare nodes) <> List.length nodes then
    invalid_arg "Session.create_child: duplicate ranks";
  List.iter
    (fun r ->
      if r < 0 || r >= parent.n then
        invalid_arg (Printf.sprintf "Session.create_child: rank %d out of range" r);
      if parent.down.(r) then
        invalid_arg (Printf.sprintf "Session.create_child: parent rank %d is down" r))
    nodes;
  let child = create parent.eng ?flow:parent.flow ~size:(List.length nodes) () in
  child.parent <- Some parent;
  parent.children <- child :: parent.children;
  child

let rec destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    List.iter destroy t.children;
    t.children <- [];
    for r = 0 to t.n - 1 do
      crash_rank t r
    done;
    match t.parent with
    | Some p ->
      p.children <- List.filter (fun c -> c != t) p.children;
      t.parent <- None
    | None -> ()
  end

and crash_rank t r =
  Net.fail_node t.rpc_net r;
  Net.fail_node t.event_net r;
  Net.fail_node t.ring_net r

let is_destroyed t = t.destroyed

(* --- Failure injection ------------------------------------------------- *)

let crash t r = crash_rank t r

let mark_down t r =
  if not t.down.(r) then begin
    trace t ~name:"mark_down" ~rank:r ();
    crash t r;
    t.down.(r) <- true;
    let old_parents = Array.copy t.parent_of in
    heal t;
    (* Brokers adopted by a new parent may have missed events; resync. *)
    Array.iteri
      (fun rr b ->
        if (not t.down.(rr)) && old_parents.(rr) <> t.parent_of.(rr) && t.parent_of.(rr) <> None
        then request_resync b)
      t.brokers;
    List.iter (fun f -> f r false) t.on_liveness
  end

let mark_up t r =
  if t.down.(r) && not t.destroyed then begin
    trace t ~name:"mark_up" ~rank:r ();
    Net.revive_node t.rpc_net r;
    Net.revive_node t.event_net r;
    Net.revive_node t.ring_net r;
    t.down.(r) <- false;
    let old_parents = Array.copy t.parent_of in
    heal t;
    (* The revived broker rejoins with a stale event cursor: drop any
       resync latched before it went dark and pull the backlog through
       the healed topology (the overlay root pulls from a child). *)
    let b = t.brokers.(r) in
    b.resync_in_flight <- false;
    request_resync b;
    Array.iteri
      (fun rr br ->
        if rr <> r
           && (not t.down.(rr))
           && old_parents.(rr) <> t.parent_of.(rr)
           && t.parent_of.(rr) <> None
        then request_resync br)
      t.brokers;
    List.iter (fun f -> f r true) t.on_liveness
  end

(* --- Accounting --------------------------------------------------------- *)

let rpc_timeouts t = t.rpc_timeouts
let rpc_retries t = t.rpc_retries
let rpc_busy_retries t = t.rpc_busy_retries
let pending_rpc_count t r = Hashtbl.length t.brokers.(r).pending
let flow_stash_hwm t = t.flow_stash_hwm
let flow_stash_depth t r = Queue.length t.brokers.(r).fc_stash

let rpc_net t = t.rpc_net
let ring_net t = t.ring_net

let rpc_net_stats t = Net.stats t.rpc_net
let event_net_stats t = Net.stats t.event_net
let ring_net_stats t = Net.stats t.ring_net

let root_rpc_ingress_bytes t =
  let total = ref 0 in
  for src = 1 to t.n - 1 do
    total := !total + Net.link_bytes t.rpc_net ~src ~dst:0
  done;
  !total
