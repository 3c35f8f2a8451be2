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

type link = {
  mutable free_at : float;
  mutable bytes : int; (* cumulative wire bytes delivered *)
  mutable msgs : int; (* cumulative messages delivered *)
  mutable q_msgs : int; (* messages currently in flight (occupancy) *)
  mutable q_hwm : int; (* high-water mark of [q_msgs] *)
  inflight : float Queue.t;
      (* arrival times of the messages sent while a cap was set, in send
         order, which on a FIFO pipe is arrival order *)
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
  mutable cap : int option; (* in-flight messages per link *)
  mutable messages : int;
  mutable total_bytes : int;
  mutable dropped : int;
  mutable dropped_bytes : int;
  mutable dead_letters : int;
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
    cap = None;
    messages = 0;
    total_bytes = 0;
    dropped = 0;
    dropped_bytes = 0;
    dead_letters = 0;
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

let set_link_limits t cap =
  (match cap with
  | Some c when c < 1 -> invalid_arg "Net.set_link_limits: bound must be >= 1"
  | _ -> ());
  t.cap <- cap

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

(* Occupancy released when the message leaves the wire (arrival or
   loss point). *)
let occupy link =
  link.q_msgs <- link.q_msgs + 1;
  if link.q_msgs > link.q_hwm then link.q_hwm <- link.q_msgs

let release link = link.q_msgs <- link.q_msgs - 1

(* A tracked message arrives: it is the oldest one on the link. *)
let retire link =
  release link;
  ignore (Queue.take link.inflight : float)

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

(* With a cap set, a send that would overfill the link waits until
   enough in-flight messages have arrived for it to fit. Messages sent
   before the cap was set are not tracked; all of them have arrived
   once the pipe has drained. *)
let deferral t link =
  match t.cap with
  | Some cap when link.q_msgs >= cap ->
    let drained =
      match Seq.uncons (Seq.drop (link.q_msgs - cap) (Queue.to_seq link.inflight)) with
      | Some (arrive, _) -> arrive
      | None -> link.free_at +. t.cfg.link_latency
    in
    Some (Float.max (Engine.now t.eng) drained)
  | _ -> None

(* Remote transmission path, re-entered by deferrals so cuts and the
   cap are re-evaluated at the actual transmit attempt. *)
let rec send_remote t ~src ~dst ~size m =
  let wire = size + t.cfg.per_msg_overhead in
  if not t.hosts.(src).alive then drop t ~wire:size ~fault:false
  else if link_cut t ~src ~dst then drop t ~wire ~fault:true
  else begin
    let link = link_of t src dst in
    match deferral t link with
    | Some at ->
      t.overload_defers <- t.overload_defers + 1;
      (match t.metrics with
      | None -> ()
      | Some mf -> Metrics.family_incr mf.mf_link_defer ~rank:src);
      ignore
        (Engine.schedule_at t.eng ~time:at (fun () -> send_remote t ~src ~dst ~size m)
          : Engine.handle)
    | None ->
      let lost = t.loss_prob > 0.0 && Rng.float t.rng 1.0 < t.loss_prob in
      let now = Engine.now t.eng in
      let xfer = float_of_int wire /. t.cfg.bandwidth in
      let start = Float.max now link.free_at in
      (* Lost messages still occupy the pipe: the sender transmitted
         them, the fault eats them en route. *)
      link.free_at <- start +. xfer;
      let arrive = start +. xfer +. t.cfg.link_latency in
      occupy link;
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
      if t.cap = None then begin
        (* Unbounded fast path: occupancy tracked with a plain counter,
           no per-message record. *)
        if lost then
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 release link;
                 drop t ~wire ~fault:true)
              : Engine.handle)
        else
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 release link;
                 deliver_via_cpu t dst ~wire ~size ~src ~link m)
              : Engine.handle)
      end
      else begin
        Queue.add arrive link.inflight;
        if lost then
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 retire link;
                 drop t ~wire ~fault:true)
              : Engine.handle)
        else
          ignore
            (Engine.schedule_at t.eng ~time:arrive (fun () ->
                 retire link;
                 deliver_via_cpu t dst ~wire ~size ~src ~link m)
              : Engine.handle)
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
  overload_defers : int;
}

let stats (t : _ t) =
  {
    messages = t.messages;
    bytes = t.total_bytes;
    dropped = t.dropped;
    dropped_bytes = t.dropped_bytes;
    dead_letters = t.dead_letters;
    overload_defers = t.overload_defers;
  }

let link_bytes t ~src ~dst =
  match Hashtbl.find_opt t.links ((src * t.n) + dst) with
  | Some l -> l.bytes
  | None -> 0

let max_link_depth_hwm t = Hashtbl.fold (fun _ l acc -> max acc l.q_hwm) t.links 0
