module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Net = Flux_sim.Net
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client

type config = { seed : int; clients : int list; rounds : int; duration : float }

let default = { seed = 1; clients = [ 9; 11; 13 ]; rounds = 24; duration = 25.0 }

(* The schedule's fixed shape (see the .mli). *)
let size = 15
let fence_every = 6
let value_bytes = 400
let fault_mean = 0.8
let max_dead = 3
let master_kill_bias = 0.4
let op_timeout = 8.0

type report = {
  commits_ok : int;
  commits_indeterminate : int;
  fences_ok : int;
  fences_indeterminate : int;
  gets_ok : int;
  gets_failed : int;
  kills : int;
  revives : int;
  master_kills : int;
  takeovers : int;
  final_version : int;
  final_master : int;
  keys_checked : int;
  violations : string list;
  rpc_timeouts : int;
  rpc_retries : int;
  dead_letters : int;
  dropped : int;
  final_clock : float;
  sim_events : int;
}

(* Shared mutable state of one schedule run. *)
type state = {
  cfg : config;
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  rng : Rng.t;
  (* Keys are namespaced per writer, so clients never race on an
     entry. *)
  h : History.t;
  mutable in_flight_commits : int;
  mutable commits_ok : int;
  mutable commits_indeterminate : int;
  mutable fences_ok : int;
  mutable fences_indeterminate : int;
  mutable gets_ok : int;
  mutable gets_failed : int;
  mutable master_kills : int;
}

let kill st r =
  if Kvs.acting_master st.kvs = Some r then st.master_kills <- st.master_kills + 1;
  History.kill st.h r

let revive_oldest st =
  match History.dead st.h with [] -> () | r :: _ -> History.revive st.h r

(* --- Fault injection ----------------------------------------------------- *)

(* Ranks that may be killed right now. *)
let victims st =
  List.filter
    (fun r -> (not (List.mem r st.cfg.clients)) && not (Session.is_down st.sess r))
    (List.init size Fun.id)

(* Every schedule is guaranteed one master kill while a commit is in
   flight: the assassin waits for the first concurrent commit and
   strikes. Randomized injection covers the rest of the space. *)
let assassin st =
  Proc.sleep 0.01;
  let deadline = st.cfg.duration in
  while
    (st.in_flight_commits = 0 || Kvs.acting_master st.kvs = None)
    && Engine.now st.eng < deadline
  do
    Proc.sleep 0.0005
  done;
  match Kvs.acting_master st.kvs with
  | Some m when not (List.mem m st.cfg.clients) -> kill st m
  | _ -> ()

let injector st =
  let rng = Rng.split st.rng in
  let continue = ref true in
  while !continue do
    Proc.sleep (Rng.exponential rng fault_mean);
    if Engine.now st.eng >= st.cfg.duration then continue := false
    else if List.length (History.dead st.h) >= max_dead then revive_oldest st
    else begin
      let want_master = Rng.float rng 1.0 < master_kill_bias in
      match Kvs.acting_master st.kvs with
      | Some m when want_master && not (List.mem m st.cfg.clients) -> kill st m
      | _ -> (
        if History.dead st.h <> [] && Rng.bool rng then revive_oldest st
        else
          match victims st with
          | [] -> ()
          | vs -> kill st (List.nth vs (Rng.int rng (List.length vs))))
    end
  done

(* --- Client workload ----------------------------------------------------- *)

let value_for ~rank ~round =
  if round mod 3 = 0 then Json.string (String.make value_bytes (Char.chr (97 + (rank mod 26))))
  else Json.obj [ ("r", Json.int rank); ("n", Json.int round) ]

let fence_key ~round ~rank = Printf.sprintf "f%d.c%d" round rank
let commit_key ~rank ~round = Printf.sprintf "c%d.k%d" rank round

(* One client process: puts, commits, fences, and checks the guarantees
   after every op through the history. A read that errors (the fault
   window) counts in [gets_failed]; only a returned value is checked. *)
let client_proc st ~rank =
  let c = Client.connect st.sess ~rank in
  let rng = Rng.split st.rng in
  let who = Printf.sprintf "rank %d" rank in
  let own_committed = ref [] in
  let nprocs = List.length st.cfg.clients in
  let read ~label ~key ~expect =
    match Client.get c ~key with
    | Ok _ as got ->
      st.gets_ok <- st.gets_ok + 1;
      History.check st.h ~label ~key ~expect got
    | Error _ -> st.gets_failed <- st.gets_failed + 1
  in
  let check_version () =
    match Client.get_version c with
    | Ok v -> History.observe st.h ~who ~label:"get_version" v
    | Error _ -> st.gets_failed <- st.gets_failed + 1
  in
  (* Pace rounds across the injector's window so ops genuinely overlap
     the kill/revive churn instead of finishing before the first fault. *)
  let round_gap = st.cfg.duration /. float_of_int (st.cfg.rounds + 1) in
  for round = 1 to st.cfg.rounds do
    Proc.sleep (Rng.exponential rng round_gap);
    if round mod fence_every = 0 then begin
      let key = fence_key ~round ~rank in
      let v = value_for ~rank ~round in
      match Client.put c ~key v with
      | Error _ ->
        (* The local broker never dies in a schedule; treat a failed put
           as an indeterminate round anyway. *)
        History.unknown st.h key;
        st.fences_indeterminate <- st.fences_indeterminate + 1;
        Client.abort c
      | Ok () -> (
        st.in_flight_commits <- st.in_flight_commits + 1;
        let r =
          Client.fence ~timeout:op_timeout c
            ~name:(Printf.sprintf "chaos.%d" round)
            ~nprocs
        in
        st.in_flight_commits <- st.in_flight_commits - 1;
        match r with
        | Ok fv ->
          st.fences_ok <- st.fences_ok + 1;
          History.observe st.h ~who ~label:"fence" fv;
          History.ack st.h key v;
          (* Atomicity: the fence completed, so every participant's
             contribution must be visible — all or nothing. *)
          List.iter
            (fun peer ->
              read
                ~label:(Printf.sprintf "%s fence %d" who round)
                ~key:(fence_key ~round ~rank:peer)
                ~expect:(value_for ~rank:peer ~round))
            st.cfg.clients
        | Error _ ->
          st.fences_indeterminate <- st.fences_indeterminate + 1;
          History.unknown st.h key;
          Client.abort c)
    end
    else begin
      let key = commit_key ~rank ~round in
      let v = value_for ~rank ~round in
      (match Client.put c ~key v with
      | Error _ ->
        History.unknown st.h key;
        st.commits_indeterminate <- st.commits_indeterminate + 1;
        Client.abort c
      | Ok () -> (
        st.in_flight_commits <- st.in_flight_commits + 1;
        let r = Client.commit c in
        st.in_flight_commits <- st.in_flight_commits - 1;
        match r with
        | Ok cv ->
          st.commits_ok <- st.commits_ok + 1;
          History.committed st.h ~who cv;
          History.ack st.h key v;
          own_committed := key :: !own_committed;
          read ~label:(who ^ " read-your-writes") ~key ~expect:v
        | Error _ ->
          st.commits_indeterminate <- st.commits_indeterminate + 1;
          History.unknown st.h key;
          Client.abort c));
      (* Lost-write check on a random earlier own key. *)
      match !own_committed with
      | [] -> ()
      | keys ->
        let k = List.nth keys (Rng.int rng (List.length keys)) in
        read ~label:(who ^ " lost-write") ~key:k ~expect:(History.expected st.h k)
    end;
    check_version ()
  done

(* --- Final convergence and verification ---------------------------------- *)

let finalize st =
  (* Revive everything and let the rejoin handshakes settle. *)
  let was_dead = History.dead st.h in
  List.iter (History.revive st.h) was_dead;
  Engine.run st.eng;
  let masters =
    Array.to_list st.kvs
    |> List.mapi (fun r t -> (r, Kvs.is_master t))
    |> List.filter snd |> List.map fst
  in
  (match masters with
  | [ _ ] -> ()
  | ms -> History.violate st.h "expected exactly one master, got [%s]"
            (String.concat ";" (List.map string_of_int ms)));
  let final_master = Option.value (Kvs.acting_master st.kvs) ~default:(-1) in
  let vmax = Array.fold_left (fun acc t -> max acc (Kvs.version t)) 0 st.kvs in
  let emax = Array.fold_left (fun acc t -> max acc (Kvs.epoch t)) 0 st.kvs in
  Array.iteri
    (fun r t ->
      if Kvs.version t <> vmax then
        History.violate st.h "rank %d stuck at version %d (cluster at %d)" r (Kvs.version t) vmax;
      if Kvs.epoch t <> emax then
        History.violate st.h "rank %d stuck at epoch %d (cluster at %d)" r (Kvs.epoch t) emax)
    st.kvs;
  (* Verify every acked key from a rank that died and rejoined (falling
     back to any non-client rank): it must serve every key. *)
  let verify_rank =
    match List.filter (fun r -> not (List.mem r st.cfg.clients)) was_dead with
    | r :: _ -> r
    | [] -> ( match victims st with r :: _ -> r | [] -> List.hd st.cfg.clients)
  in
  let checked = ref 0 in
  ignore
    (Proc.spawn st.eng (fun () ->
         let c = Client.connect st.sess ~rank:verify_rank in
         checked :=
           History.verify st.h ~label:(Printf.sprintf "verify@%d" verify_rank) (fun key ->
               Client.get c ~key))
      : Proc.pid);
  Engine.run st.eng;
  (final_master, vmax, emax, !checked)

let validate cfg =
  Harness.require
    [
      (cfg.clients <> [], "no client ranks");
      (List.for_all (fun r -> r >= 0 && r < size) cfg.clients, "client rank out of range");
      (cfg.rounds >= 1, "rounds must be >= 1");
    ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Chaos.run: " ^ e)) (validate cfg);
  let eng = Engine.create () in
  let sess = Session.create eng ~size () in
  let kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let st =
    {
      cfg;
      eng;
      sess;
      kvs;
      rng = Rng.create cfg.seed;
      h = History.create sess;
      in_flight_commits = 0;
      commits_ok = 0;
      commits_indeterminate = 0;
      fences_ok = 0;
      fences_indeterminate = 0;
      gets_ok = 0;
      gets_failed = 0;
      master_kills = 0;
    }
  in
  ignore (Proc.spawn eng (fun () -> assassin st) : Proc.pid);
  ignore (Proc.spawn eng (fun () -> injector st) : Proc.pid);
  List.iter
    (fun r -> ignore (Proc.spawn eng (fun () -> client_proc st ~rank:r) : Proc.pid))
    cfg.clients;
  Engine.run eng;
  let final_master, final_version, takeovers, keys_checked = finalize st in
  let rpc = Session.rpc_net_stats sess in
  let ev = Session.event_net_stats sess in
  let ring = Session.ring_net_stats sess in
  {
    commits_ok = st.commits_ok;
    commits_indeterminate = st.commits_indeterminate;
    fences_ok = st.fences_ok;
    fences_indeterminate = st.fences_indeterminate;
    gets_ok = st.gets_ok;
    gets_failed = st.gets_failed;
    kills = History.kills st.h;
    revives = History.revives st.h;
    master_kills = st.master_kills;
    takeovers;
    final_version;
    final_master;
    keys_checked;
    violations = History.violations st.h;
    rpc_timeouts = Session.rpc_timeouts sess;
    rpc_retries = Session.rpc_retries sess;
    dead_letters = rpc.Net.dead_letters + ev.Net.dead_letters + ring.Net.dead_letters;
    dropped = rpc.Net.dropped + ev.Net.dropped + ring.Net.dropped;
    final_clock = Engine.now eng;
    sim_events = Engine.events_executed eng;
  }

let row (r : report) =
  [
    ("commits_ok", Json.int r.commits_ok);
    ("commits_indeterminate", Json.int r.commits_indeterminate);
    ("fences_ok", Json.int r.fences_ok);
    ("fences_indeterminate", Json.int r.fences_indeterminate);
    ("kills", Json.int r.kills);
    ("master_kills", Json.int r.master_kills);
    ("takeovers", Json.int r.takeovers);
    ("final_version", Json.int r.final_version);
    ("rpc_timeouts", Json.int r.rpc_timeouts);
    ("rpc_retries", Json.int r.rpc_retries);
    ("dead_letters", Json.int r.dead_letters);
    ("dropped", Json.int r.dropped);
    ("keys_checked", Json.int r.keys_checked);
    ("violations", Json.int (List.length r.violations));
  ]

let harness =
  let sweep ~fast =
    let seeds = if fast then [ 1; 2; 3 ] else List.init 10 (fun i -> 1 + i) in
    let runs = List.map (fun seed -> (seed, run { default with seed })) seeds in
    let rows = List.map (fun (seed, r) -> ("seed", Json.int seed) :: row r) runs in
    Harness.print_table rows;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "chaos");
            ("tier", Harness.tier ~fast);
            ("rows", Json.list (List.map Json.obj rows));
          ];
      violations =
        List.concat_map
          (fun (seed, (r : report)) ->
            Harness.labelled (Printf.sprintf "seed %d" seed) r.violations)
          runs;
      host = [];
    }
  in
  {
    Harness.name = "chaos";
    title = "seeded fault schedules over a live workload (consistency proved per run)";
    sweep;
    cli = Harness.once (fun () -> run default) row (fun r -> r.violations);
  }
