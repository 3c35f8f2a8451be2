module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic

(* A child is declared dead after this many heartbeats without a hello. *)
let max_missed = 3

type t = {
  b : Session.broker;
  period : float; (* heartbeat period, for replay-burst detection *)
  last_hello : (int, int) Hashtbl.t; (* child rank -> epoch of last hello *)
  mutable last_epoch : int; (* last heartbeat processed here *)
  mutable last_pulse_at : float;
  mutable down : int list;
}

let declared_down t = t.down

let send_hello t epoch =
  match Session.tree_parent t.b with
  | None -> ()
  | Some _ ->
    (* A hello unanswered for two heartbeat periods is stale — the next
       pulse carries a fresh epoch anyway, so bound the deadline rather
       than retransmit and let the pending entry be reclaimed. *)
    Session.request_from_module t.b ~timeout:(2.0 *. t.period) ~attempts:1
      ~topic:"live.hello"
      (Json.obj [ ("rank", Json.int (Session.rank t.b)); ("epoch", Json.int epoch) ])
      ~reply:(fun _ -> ())

let check_children t epoch =
  let sess = Session.session_of t.b in
  (* Grace after a gap: if we ourselves missed heartbeats (our parent
     died and the backlog is being replayed after healing — recognizable
     because replayed pulses arrive much faster than the period), or a
     child was newly adopted, restart its liveness clock at the current
     epoch rather than declaring it on stale history. *)
  let now = Flux_sim.Engine.now (Session.b_engine t.b) in
  let gap =
    epoch > t.last_epoch + 1 || now -. t.last_pulse_at < 0.5 *. t.period
  in
  t.last_epoch <- epoch;
  t.last_pulse_at <- now;
  List.iter
    (fun child ->
      match Hashtbl.find_opt t.last_hello child with
      | None -> Hashtbl.replace t.last_hello child epoch
      | Some last ->
        if gap then Hashtbl.replace t.last_hello child epoch
        else if
          epoch - last > max_missed
          && (not (Session.is_down sess child))
          && not (List.mem child t.down)
        then begin
          t.down <- child :: t.down;
          Session.publish t.b ~topic:"live.down" (Json.obj [ ("rank", Json.int child) ]);
          Session.mark_down sess child
        end)
    (Session.tree_children t.b)

(* Keep hello history bounded to the current children: adoption and
   rejoin both change the child set, and a stale entry would otherwise
   let an old epoch count against a rank we no longer parent (or leak
   entries forever). *)
let prune_hello_history t =
  let children = Session.tree_children t.b in
  let stale =
    Hashtbl.fold
      (fun c _ acc -> if List.mem c children then acc else c :: acc)
      t.last_hello []
  in
  List.iter (Hashtbl.remove t.last_hello) stale

let module_of t =
  {
    Session.mod_name = "live";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "hello" ->
          let rank = Json.to_int (Json.member "rank" req.Message.payload) in
          let epoch = Json.to_int (Json.member "epoch" req.Message.payload) in
          Hashtbl.replace t.last_hello rank epoch;
          Session.respond t.b req Json.null
        | m -> Session.respond_error t.b req (Printf.sprintf "live: unknown method %S" m));
        Session.Consumed);
  }

let load sess ~(hb : Hb.t array) () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          period = Hb.period hb.(r);
          last_hello = Hashtbl.create 8;
          last_epoch = 0;
          last_pulse_at = neg_infinity;
          down = [];
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iteri
    (fun r t ->
      Hb.on_pulse hb.(r) (fun epoch ->
          (* Grace period: treat load time as epoch 0 for every child. *)
          send_hello t epoch;
          check_children t epoch))
    instances;
  (* Rejoin handling: a revived rank gets a fresh liveness clock — it
     drops off every declared-down list and its hello history is erased,
     so its first post-rejoin pulse re-registers it at the then-current
     epoch instead of being judged on pre-blackout history. *)
  Session.add_liveness_watch sess (fun r up ->
      Array.iter
        (fun t ->
          Hashtbl.remove t.last_hello r;
          if up then t.down <- List.filter (fun x -> x <> r) t.down;
          prune_hello_history t)
        instances;
      if up then
        Session.publish instances.(r).b ~topic:"live.up"
          (Json.obj [ ("rank", Json.int r) ]));
  instances
