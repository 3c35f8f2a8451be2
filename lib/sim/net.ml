module Rng = Flux_util.Rng
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics

type config = {
  link_latency : float;
  bandwidth : float;
  per_msg_overhead : int;
  host_cpu_per_msg : float;
  host_cpu_per_byte : float;
  local_delivery : float;
}

let default_config =
  {
    link_latency = 20e-6;
    bandwidth = 3.2e9;
    per_msg_overhead = 64;
    host_cpu_per_msg = 2e-6;
    host_cpu_per_byte = 0.35e-9;
    local_delivery = 0.5e-6;
  }

type overflow = Mailbox.overflow = Block | Drop_newest | Drop_oldest

type queue_limits = { max_msgs : int; max_bytes : int; policy : overflow }

(* One message in flight on a link, tracked only when limits are set:
   [Drop_oldest] needs a cancellation handle for the head of line and
   [Block] needs arrival times to compute when occupancy drains. *)
type inflight = {
  if_wire : int;
  if_arrive : float;
  mutable if_handle : Engine.handle option;
  mutable if_live : bool;
}

type link = {
  mutable free_at : float;
  mutable bytes : int; (* cumulative wire bytes delivered *)
  mutable msgs : int; (* cumulative messages delivered *)
  mutable q_msgs : int; (* messages currently in flight (occupancy) *)
  mutable q_bytes : int; (* wire bytes currently in flight *)
  mutable q_hwm : int; (* high-water mark of [q_msgs] *)
  inflight : inflight Queue.t; (* populated only when limits are set *)
}

type 'msg host = {
  mutable alive : bool;
  mutable cpu_free_at : float;
  mutable handler : (src:int -> 'msg -> unit) option;
}

type 'msg t = {
  eng : Engine.t;
  cfg : config;
  n : int;
  hosts : 'msg host array;
  links : (int, link) Hashtbl.t; (* key: src * n + dst *)
  cuts : (int, float) Hashtbl.t; (* key: src * n + dst -> blackout end *)
  rng : Rng.t;
  mutable loss_prob : float;
  mutable limits : queue_limits option;
  mutable messages : int;
  mutable total_bytes : int;
  mutable dropped : int;
  mutable dropped_bytes : int;
  mutable dead_letters : int;
  mutable overload_drops : int;
  mutable overload_defers : int;
  (* Observability hooks; [None] (the default) costs one branch per
     drop/send and allocates nothing. *)
  mutable tracer : Tracer.t option;
  mutable metrics : metric_families option;
  mutable label : string;
}

(* Per-plane metric families, resolved once at [set_metrics]: the send
   path fires several metric updates per message, and rebuilding
   [label ^ ".queue_wait"]-style names there (or hashing them) would
   dominate the cost of the updates themselves. *)
and metric_families = {
  mf_overload_drop : Metrics.counter_family;
  mf_link_defer : Metrics.counter_family;
  mf_queue_wait : Metrics.hist_family;
  mf_transit : Metrics.hist_family;
  mf_link_bytes : Metrics.counter_family;
  mf_link_backlog : Metrics.gauge_family;
  mf_link_depth : Metrics.gauge_family;
  mf_link_depth_hwm : Metrics.gauge_family;
}

let resolve_families label m =
  {
    mf_overload_drop = Metrics.counter_family m ~name:(label ^ ".overload_drop");
    mf_link_defer = Metrics.counter_family m ~name:(label ^ ".link_defer");
    mf_queue_wait = Metrics.hist_family m ~name:(label ^ ".queue_wait");
    mf_transit = Metrics.hist_family m ~name:(label ^ ".transit");
    mf_link_bytes = Metrics.counter_family m ~name:(label ^ ".link_bytes");
    mf_link_backlog = Metrics.gauge_family m ~name:(label ^ ".link_backlog");
    mf_link_depth = Metrics.gauge_family m ~name:(label ^ ".link_depth");
    mf_link_depth_hwm = Metrics.gauge_family m ~name:(label ^ ".link_depth_hwm");
  }

let create eng ?(config = default_config) ~nodes () =
  if nodes <= 0 then invalid_arg "Net.create: need at least one node";
  {
    eng;
    cfg = config;
    n = nodes;
    hosts = Array.init nodes (fun _ -> { alive = true; cpu_free_at = 0.0; handler = None });
    links = Hashtbl.create 64;
    cuts = Hashtbl.create 8;
    rng = Rng.create 0x464c5558;
    loss_prob = 0.0;
    limits = None;
    messages = 0;
    total_bytes = 0;
    dropped = 0;
    dropped_bytes = 0;
    dead_letters = 0;
    overload_drops = 0;
    overload_defers = 0;
    tracer = None;
    metrics = None;
    label = "net";
  }

let set_tracer t tr = t.tracer <- tr

let set_metrics t ?label m =
  (match label with Some l -> t.label <- l | None -> ());
  t.metrics <- Option.map (resolve_families t.label) m

let config t = t.cfg

let set_link_limits t lim =
  (match lim with
  | Some l when l.max_msgs < 1 || l.max_bytes < 1 ->
    invalid_arg "Net.set_link_limits: bounds must be >= 1"
  | _ -> ());
  t.limits <- lim

let check_rank t r name =
  if r < 0 || r >= t.n then invalid_arg (Printf.sprintf "Net.%s: rank %d out of range" name r)

let set_handler t rank f =
  check_rank t rank "set_handler";
  t.hosts.(rank).handler <- Some f

let link_of t src dst =
  let key = (src * t.n) + dst in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l =
      {
        free_at = 0.0;
        bytes = 0;
        msgs = 0;
        q_msgs = 0;
        q_bytes = 0;
        q_hwm = 0;
        inflight = Queue.create ();
      }
    in
    Hashtbl.replace t.links key l;
    l

(* --- Fault injection --------------------------------------------------- *)

let set_loss t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_loss: probability out of [0,1]";
  t.loss_prob <- p

let cut_key t ~src ~dst = (src * t.n) + dst

let cut_link t ~src ~dst =
  check_rank t src "cut_link";
  check_rank t dst "cut_link";
  Hashtbl.replace t.cuts (cut_key t ~src ~dst) infinity

let blackout t ~src ~dst ~duration =
  check_rank t src "blackout";
  check_rank t dst "blackout";
  if duration < 0.0 then invalid_arg "Net.blackout: negative duration";
  Hashtbl.replace t.cuts (cut_key t ~src ~dst) (Engine.now t.eng +. duration)

let link_cut t ~src ~dst =
  match Hashtbl.find_opt t.cuts (cut_key t ~src ~dst) with
  | Some until -> Engine.now t.eng < until
  | None -> false

(* --- Delivery ----------------------------------------------------------- *)

let drop t ~wire ~fault =
  t.dropped <- t.dropped + 1;
  t.dropped_bytes <- t.dropped_bytes + wire;
  if fault then t.dead_letters <- t.dead_letters + 1;
  match t.tracer with
  | None -> ()
  | Some tr ->
    Tracer.add_count tr ~cat:"net" ~name:"drop" 1;
    if fault then Tracer.add_count tr ~cat:"net" ~name:"dead_letter" 1

(* A policy (not fault) loss: the queue was full and the message was
   shed to bound memory. Counted separately from wire faults so shed
   rate is distinguishable from lossy-network drops. *)
let overload_drop t ~wire ~src =
  t.overload_drops <- t.overload_drops + 1;
  t.dropped <- t.dropped + 1;
  t.dropped_bytes <- t.dropped_bytes + wire;
  (match t.tracer with
  | None -> ()
  | Some tr -> Tracer.add_count tr ~cat:"net" ~name:"overload_drop" 1);
  match t.metrics with
  | None -> ()
  | Some mf -> Metrics.family_incr mf.mf_overload_drop ~rank:src

(* Occupancy released when the message leaves the wire (arrival, loss
   point, or eviction). *)
let occupy link ~wire =
  link.q_msgs <- link.q_msgs + 1;
  link.q_bytes <- link.q_bytes + wire;
  if link.q_msgs > link.q_hwm then link.q_hwm <- link.q_msgs

let release link ~wire =
  link.q_msgs <- link.q_msgs - 1;
  link.q_bytes <- link.q_bytes - wire

let retire_inflight link e =
  if e.if_live then begin
    e.if_live <- false;
    release link ~wire:e.if_wire
  end;
  (* Shed already-dead heads so the queue stays O(occupancy). *)
  let rec trim () =
    match Queue.peek_opt link.inflight with
    | Some h when not h.if_live ->
      ignore (Queue.take link.inflight : inflight);
      trim ()
    | _ -> ()
  in
  trim ()

(* Runs at arrival time, when the message reaches the receiving host.
   Dead hosts drop without any CPU charge; live hosts serialize through
   the receive core and may still lose the message if they die before
   processing completes. *)
let deliver_via_cpu t dst ~wire ~size ~src ?link payload =
  let host = t.hosts.(dst) in
  if not host.alive then drop t ~wire ~fault:false
  else begin
    let cpu_start = Float.max (Engine.now t.eng) host.cpu_free_at in
    let work = t.cfg.host_cpu_per_msg +. (float_of_int size *. t.cfg.host_cpu_per_byte) in
    host.cpu_free_at <- cpu_start +. work;
    ignore
      (Engine.schedule_at t.eng ~time:(cpu_start +. work) (fun () ->
           if host.alive then begin
             t.messages <- t.messages + 1;
             t.total_bytes <- t.total_bytes + wire;
             (match link with
             | Some l ->
               l.bytes <- l.bytes + wire;
               l.msgs <- l.msgs + 1
             | None -> ());
             match host.handler with
             | Some f -> f ~src payload
             | None -> ()
           end
           else drop t ~wire ~fault:false)
        : Engine.handle)
  end

(* Admission decision against the per-link occupancy caps. *)
type admission = Admitted | Shed | Deferred_until of float

let admit t link ~wire ~src =
  match t.limits with
  | None -> Admitted
  | Some lim ->
    let fits () = link.q_msgs < lim.max_msgs && link.q_bytes + wire <= lim.max_bytes in
    if fits () then Admitted
    else begin
      match lim.policy with
      | Drop_newest -> Shed
      | Drop_oldest ->
        let rec evict () =
          if not (fits ()) then begin
            match Queue.take_opt link.inflight with
            | None -> ()
            | Some e when not e.if_live -> evict ()
            | Some e ->
              (match e.if_handle with Some h -> Engine.cancel h | None -> ());
              e.if_live <- false;
              release link ~wire:e.if_wire;
              overload_drop t ~wire:e.if_wire ~src;
              evict ()
          end
        in
        evict ();
        if fits () then Admitted else Shed
      | Block ->
        (* Earliest instant enough in-flight messages will have drained
           for this one to fit: walk live entries in send order, which
           is arrival order. *)
        let need_msgs = link.q_msgs - lim.max_msgs + 1 in
        let need_bytes = link.q_bytes + wire - lim.max_bytes in
        let freed_msgs = ref 0 and freed_bytes = ref 0 and at = ref (Engine.now t.eng) in
        let found = ref false in
        Queue.iter
          (fun e ->
            if e.if_live && not !found then begin
              incr freed_msgs;
              freed_bytes := !freed_bytes + e.if_wire;
              if e.if_arrive > !at then at := e.if_arrive;
              if !freed_msgs >= need_msgs && !freed_bytes >= need_bytes then found := true
            end)
          link.inflight;
        if !found then Deferred_until !at
        else Shed (* can never fit, e.g. wire > max_bytes *)
    end

(* Remote transmission path, re-entered by [Block]-policy deferrals so
   cuts and caps are re-evaluated at the actual transmit attempt. *)
let rec send_remote t ~src ~dst ~size m =
  let wire = size + t.cfg.per_msg_overhead in
  if not t.hosts.(src).alive then drop t ~wire:size ~fault:false
  else if link_cut t ~src ~dst then drop t ~wire ~fault:true
  else begin
    let link = link_of t src dst in
    match admit t link ~wire ~src with
    | Shed -> overload_drop t ~wire ~src
    | Deferred_until at ->
      t.overload_defers <- t.overload_defers + 1;
      (match t.metrics with
      | None -> ()
      | Some mf -> Metrics.family_incr mf.mf_link_defer ~rank:src);
      ignore
        (Engine.schedule_at t.eng ~time:at (fun () -> send_remote t ~src ~dst ~size m)
          : Engine.handle)
    | Admitted ->
      let lost = t.loss_prob > 0.0 && Rng.float t.rng 1.0 < t.loss_prob in
      let now = Engine.now t.eng in
      let xfer = float_of_int wire /. t.cfg.bandwidth in
      let start = Float.max now link.free_at in
      (* Lost messages still occupy the pipe: the sender transmitted
         them, the fault eats them en route. *)
      link.free_at <- start +. xfer;
      let arrive = start +. xfer +. t.cfg.link_latency in
      occupy link ~wire;
      (match t.metrics with
      | None -> ()
      | Some mf ->
        (* Send-side per-link accounting: how long the message waited
           for the FIFO pipe, its full transit time, wire bytes pushed,
           the backlog the pipe now holds, and queue occupancy. *)
        Metrics.family_observe mf.mf_queue_wait ~rank:src (start -. now);
        Metrics.family_observe mf.mf_transit ~rank:src (arrive -. now);
        Metrics.family_add mf.mf_link_bytes ~rank:src wire;
        Metrics.family_set_gauge mf.mf_link_backlog ~rank:src (link.free_at -. now);
        Metrics.family_set_gauge mf.mf_link_depth ~rank:src
          (float_of_int link.q_msgs);
        let hwm = float_of_int link.q_hwm in
        let prev =
          match Metrics.family_gauge mf.mf_link_depth_hwm ~rank:src with
          | Some g -> g
          | None -> 0.0
        in
        if hwm > prev then
          Metrics.family_set_gauge mf.mf_link_depth_hwm ~rank:src hwm);
      if t.limits = None then begin
        (* Unbounded fast path: occupancy tracked with plain counters,
           no per-message record. *)
        if lost then
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 release link ~wire;
                 drop t ~wire ~fault:true)
              : Engine.handle)
        else
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 release link ~wire;
                 deliver_via_cpu t dst ~wire ~size ~src ~link m)
              : Engine.handle)
      end
      else begin
        let e = { if_wire = wire; if_arrive = arrive; if_handle = None; if_live = true } in
        Queue.add e link.inflight;
        let h =
          if lost then
            Engine.schedule_at t.eng ~time:arrive (fun () ->
                retire_inflight link e;
                drop t ~wire ~fault:true)
          else
            Engine.schedule_at t.eng ~time:arrive (fun () ->
                retire_inflight link e;
                deliver_via_cpu t dst ~wire ~size ~src ~link m)
        in
        e.if_handle <- Some h
      end
  end

let send t ~src ~dst ~size m =
  check_rank t src "send";
  check_rank t dst "send";
  if size < 0 then invalid_arg "Net.send: negative size";
  if not t.hosts.(src).alive then drop t ~wire:size ~fault:false
  else if src = dst then begin
    (* Loop-back: no framing, no link, just the local delivery cost. *)
    let arrive = Engine.now t.eng +. t.cfg.local_delivery in
    ignore
      (Engine.schedule_at t.eng ~time:arrive (fun () ->
           deliver_via_cpu t dst ~wire:size ~size ~src m)
        : Engine.handle)
  end
  else send_remote t ~src ~dst ~size m

let fail_node t r =
  check_rank t r "fail_node";
  t.hosts.(r).alive <- false

let revive_node t r =
  check_rank t r "revive_node";
  t.hosts.(r).alive <- true

type stats = {
  messages : int;
  bytes : int;
  dropped : int;
  dropped_bytes : int;
  dead_letters : int;
  overload_drops : int;
  overload_defers : int;
}

let stats (t : _ t) =
  {
    messages = t.messages;
    bytes = t.total_bytes;
    dropped = t.dropped;
    dropped_bytes = t.dropped_bytes;
    dead_letters = t.dead_letters;
    overload_drops = t.overload_drops;
    overload_defers = t.overload_defers;
  }

let link_bytes t ~src ~dst =
  match Hashtbl.find_opt t.links ((src * t.n) + dst) with
  | Some l -> l.bytes
  | None -> 0

let max_link_depth_hwm t = Hashtbl.fold (fun _ l acc -> max acc l.q_hwm) t.links 0
