(* Sharded-KVS harnesses: the goodput-vs-shards soak (does distributing
   the master actually buy capacity under admission control?) and the
   cross-shard fence chaos schedule (does the two-phase epoch-merge keep
   its guarantees when a shard master dies mid-fence?). *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Stats = Flux_util.Stats
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Volumes = Flux_kvs.Volumes
module Proto = Flux_kvs.Proto

(* First path components that route to each volume, found by search so
   harness keys land on the shard we intend. *)
let comps_for vt ~shards =
  Array.init shards (fun vol ->
      let rec find i =
        let c = Printf.sprintf "s%d" i in
        match Volumes.volume_for_key vt c with
        | Ok v when v = vol -> c
        | _ -> find (i + 1)
      in
      find 0)

(* --- Goodput-vs-shards soak ------------------------------------------------ *)

type soak_config = {
  seed : int;
  size : int;
  fanout : int;
  shards : int;
  producers : int list;
  rate : float;  (** aggregate offered ops/s; set to 2x one master's capacity *)
  duration : float;
  value_bytes : int;
  op_timeout : float;
  op_attempts : int;
  kvs : Kvs.config;
}

let soak_default =
  {
    seed = 1;
    size = 32;
    fanout = 2;
    shards = 1;
    producers = List.init 8 (fun i -> 24 + i);
    (* One master applies at 1/apply_cpu_per_tuple = 10k ops/s; offer
       twice that, so shards=1 saturates and shards>=2 has headroom. *)
    rate = 20_000.0;
    duration = 0.4;
    value_bytes = 256;
    op_timeout = 1.0;
    op_attempts = 6;
    kvs =
      {
        Kvs.default_config with
        Kvs.apply_cpu_per_tuple = 100e-6;
        admission_max_intake = 256;
      };
  }

let soak_capacity cfg =
  if cfg.kvs.Kvs.apply_cpu_per_tuple <= 0.0 then infinity
  else 1.0 /. cfg.kvs.Kvs.apply_cpu_per_tuple

type soak_report = {
  shards : int;
  offered : int;
  acked : int;
  shed : int;
  failed : int;
  goodput : float;
  ack_p50 : float;
  ack_p99 : float;
  admission_sheds : int;
  intake_hwm : int;  (** max over shard masters *)
  rpc_busy_retries : int;
  lost_acks : int;
  drained : bool;
  violations : string list;
  final_clock : float;
  sim_events : int;
}

type soak_state = {
  scfg : soak_config;
  eng : Engine.t;
  sess : Session.t;
  vt : Volumes.t;
  model : (int * string, Json.t) Hashtbl.t; (* (volume, key) -> acked value *)
  lat : Stats.t;
  mutable offered : int;
  mutable acked : int;
  mutable shed : int;
  mutable failed : int;
  mutable last_ack : float;
  mutable violations : string list; (* reversed *)
}

let soak_violate st fmt =
  Printf.ksprintf
    (fun s ->
      st.violations <-
        Printf.sprintf "t=%.3f %s" (Engine.now st.eng) s :: st.violations)
    fmt

(* Producers are assigned to volumes round-robin and address their
   volume by topic ("kvs-<v>.mput"), so the offered load spreads across
   the shard masters exactly — the scaling the sweep measures — rather
   than by the luck of key hashing. *)
let soak_inject st ~api ~vol ~rank ~seq =
  let key = Printf.sprintf "sh%d.%d.%d.%d" vol rank (seq land 63) seq in
  let v =
    Json.obj
      [
        ("r", Json.int rank);
        ("n", Json.int seq);
        ("pad", Json.string (String.make st.scfg.value_bytes 'x'));
      ]
  in
  let sent = Engine.now st.eng in
  st.offered <- st.offered + 1;
  Api.rpc_async api ~timeout:st.scfg.op_timeout ~attempts:st.scfg.op_attempts
    ~idempotent:true
    ~topic:(Printf.sprintf "kvs-%d.mput" vol)
    (Json.obj
       [ ("bindings", Json.list [ Json.obj [ ("key", Json.string key); ("v", v) ] ]) ])
    ~reply:(fun r ->
      match r with
      | Ok _ ->
        st.acked <- st.acked + 1;
        st.last_ack <- Engine.now st.eng;
        Stats.add st.lat (Engine.now st.eng -. sent);
        Hashtbl.replace st.model (vol, key) v
      | Error e ->
        if Session.busy_retry_after e <> None then st.shed <- st.shed + 1
        else st.failed <- st.failed + 1)

let soak_producer st ~idx ~rank =
  let api = Api.connect st.sess ~rank in
  let vol = idx mod st.scfg.shards in
  let rng = Rng.create (st.scfg.seed lxor (rank * 0x9e3779b1)) in
  let per = st.scfg.rate /. float_of_int (List.length st.scfg.producers) in
  let seq = ref 0 in
  let rec arm () =
    if Engine.now st.eng < st.scfg.duration then begin
      let gap = Rng.exponential rng (1.0 /. per) in
      ignore
        (Engine.schedule st.eng ~delay:gap (fun () ->
             if Engine.now st.eng < st.scfg.duration then begin
               incr seq;
               soak_inject st ~api ~vol ~rank ~seq:!seq;
               arm ()
             end)
          : Engine.handle)
    end
  in
  arm ()

(* Acked writes must read back through the owning volume. *)
let soak_verify st =
  let rank = List.hd st.scfg.producers in
  let lost = ref 0 in
  ignore
    (Proc.spawn st.eng (fun () ->
         let api = Api.connect st.sess ~rank in
         Hashtbl.iter
           (fun (vol, key) v ->
             match
               Api.rpc api
                 ~topic:(Printf.sprintf "kvs-%d.get" vol)
                 (Json.obj [ ("key", Json.string key) ])
             with
             | Ok payload ->
               if not (Json.equal (Proto.load_reply_value payload) v) then begin
                 incr lost;
                 soak_violate st "acked write %s diverged" key
               end
             | Error e ->
               incr lost;
               soak_violate st "acked write %s unreadable: %s" key e)
           st.model)
      : Proc.pid);
  Engine.run st.eng;
  !lost

let soak cfg =
  if cfg.producers = [] then invalid_arg "Shard.soak: no producers";
  if cfg.rate <= 0.0 || cfg.duration <= 0.0 then
    invalid_arg "Shard.soak: rate and duration must be positive";
  let eng = Engine.create () in
  let sess =
    Session.create eng ~fanout:cfg.fanout ~rank_topology:Session.Direct
      ~size:cfg.size ()
  in
  let vt = Volumes.load sess ~config:cfg.kvs ~shards:cfg.shards () in
  let st =
    {
      scfg = cfg;
      eng;
      sess;
      vt;
      model = Hashtbl.create 4096;
      lat = Stats.create ();
      offered = 0;
      acked = 0;
      shed = 0;
      failed = 0;
      last_ack = 0.0;
      violations = [];
    }
  in
  List.iteri (fun idx rank -> soak_producer st ~idx ~rank) cfg.producers;
  Engine.run eng;
  let drain_clock = Float.max cfg.duration st.last_ack in
  let lost_acks = soak_verify st in
  let masters = List.init cfg.shards (Volumes.master_rank vt) in
  let inst vol = Volumes.instance vt ~volume:vol ~rank:(List.nth masters vol) in
  let hwm = ref 0 and sheds = ref 0 and intake_left = ref 0 in
  for vol = 0 to cfg.shards - 1 do
    hwm := max !hwm (Kvs.intake_hwm (inst vol));
    sheds := !sheds + Kvs.admission_sheds (inst vol);
    intake_left := !intake_left + Kvs.intake_depth (inst vol);
    if
      cfg.kvs.Kvs.admission_max_intake > 0
      && Kvs.intake_hwm (inst vol) > cfg.kvs.Kvs.admission_max_intake
    then
      soak_violate st "volume %d intake hwm %d exceeds bound %d" vol
        (Kvs.intake_hwm (inst vol))
        cfg.kvs.Kvs.admission_max_intake
  done;
  let unresolved = st.offered - st.acked - st.shed - st.failed in
  if unresolved <> 0 then soak_violate st "%d offered ops never resolved" unresolved;
  let drained = !intake_left = 0 in
  if not drained then soak_violate st "undrained: intake=%d" !intake_left;
  {
    shards = cfg.shards;
    offered = st.offered;
    acked = st.acked;
    shed = st.shed;
    failed = st.failed;
    goodput = float_of_int st.acked /. drain_clock;
    ack_p50 = (if Stats.count st.lat = 0 then 0.0 else Stats.percentile st.lat 0.50);
    ack_p99 = (if Stats.count st.lat = 0 then 0.0 else Stats.percentile st.lat 0.99);
    admission_sheds = !sheds;
    intake_hwm = !hwm;
    rpc_busy_retries = Session.rpc_busy_retries sess;
    lost_acks;
    drained;
    violations = List.rev st.violations;
    final_clock = Engine.now eng;
    sim_events = Engine.events_executed eng;
  }

(* --- Cross-shard fence chaos ---------------------------------------------- *)

type chaos_config = {
  cseed : int;
  csize : int;
  cfanout : int;
  cshards : int;
  cclients : int list;
  crounds : int;
  cvalue_bytes : int;
  round_gap : float;  (** mean inter-round gap per client *)
  revive_after : float;  (** kill-to-revive delay *)
  ckvs : Kvs.config;
}

let chaos_default =
  {
    cseed = 1;
    csize = 12;
    cfanout = 2;
    cshards = 2;
    cclients = [ 9; 10; 11 ];
    crounds = 6;
    cvalue_bytes = 64;
    round_gap = 0.25;
    revive_after = 0.6;
    (* Acked cross-shard fences must survive a shard-master loss:
       replicate fresh interior objects with each setroot so a successor
       can rebuild the authoritative store from survivors. *)
    ckvs = { Kvs.default_config with Kvs.setroot_delta_max = max_int };
  }

type chaos_report = {
  fences_ok : int;
  fences_failed : int;
  kills : int;
  revives : int;
  takeovers : int;  (** sum over volumes of max mastership epoch *)
  xepoch : int;  (** cross-shard fence epoch at rank 0 after quiescence *)
  keys_checked : int;
  cviolations : string list;
  (* Determinism fingerprint material. *)
  final_versions : int list;  (** per volume *)
  final_roots : string list;  (** per volume, hex *)
  cfinal_clock : float;
  csim_events : int;
}

type chaos_state = {
  ccfg : chaos_config;
  ceng : Engine.t;
  csess : Session.t;
  cvt : Volumes.t;
  comps : string array;
  crng : Rng.t;
  cmodel : (string, Json.t) Hashtbl.t; (* key -> value acked by a fence *)
  seen : (string, unit) Hashtbl.t; (* keys a client has observed *)
  mutable in_flight_fences : int;
  mutable ckills : int;
  mutable crevives : int;
  mutable cfences_ok : int;
  mutable cfences_failed : int;
  mutable checked : int;
  mutable cviolations : string list; (* reversed *)
}

let chaos_violate st fmt =
  Printf.ksprintf
    (fun s ->
      st.cviolations <-
        Printf.sprintf "t=%.3f %s" (Engine.now st.ceng) s :: st.cviolations)
    fmt

let chaos_key st ~vol ~rank ~round =
  Printf.sprintf "%s.c%d.r%d" st.comps.(vol) rank round

let chaos_value cfg ~vol ~rank ~round =
  Json.obj
    [
      ("v", Json.int vol);
      ("r", Json.int rank);
      ("n", Json.int round);
      ("pad", Json.string (String.make cfg.cvalue_bytes 'y'));
    ]

(* The rank currently acting as master for a volume (skipping dead ranks,
   whose instances still believe in their old role). *)
let acting_master st ~vol =
  let m = ref (-1) in
  for r = 0 to st.ccfg.csize - 1 do
    if
      Kvs.is_master (Volumes.instance st.cvt ~volume:vol ~rank:r)
      && not (Session.is_down st.csess r)
    then m := r
  done;
  !m

(* Kill the seeded target volume's acting master the moment a cross-shard
   fence is in flight — the window where one shard may have prepared
   while another has not — then revive it later. *)
let assassin st =
  let rng = Rng.split st.crng in
  let target_vol = st.ccfg.cseed mod st.ccfg.cshards in
  Proc.sleep 0.01;
  while st.in_flight_fences = 0 && Engine.now st.ceng < 60.0 do
    Proc.sleep 0.0005
  done;
  (* A seeded extra beat varies which phase of the fence the kill hits. *)
  Proc.sleep (Rng.float rng 0.01);
  let m = acting_master st ~vol:target_vol in
  if m >= 0 && not (List.mem m st.ccfg.cclients) then begin
    Session.mark_down st.csess m;
    st.ckills <- st.ckills + 1;
    Proc.sleep st.ccfg.revive_after;
    Session.mark_up st.csess m;
    st.crevives <- st.crevives + 1
  end

(* Odd seeds also fell an interior slave of the other volume's tree
   mid-run, exercising the healed-tree forwarding under the same fence
   traffic. *)
let slave_killer st =
  if st.ccfg.cseed land 1 = 1 then begin
    Proc.sleep (st.ccfg.round_gap *. 2.5);
    let masters = List.init st.ccfg.cshards (Volumes.master_rank st.cvt) in
    match
      List.filter
        (fun r ->
          (not (List.mem r masters))
          && (not (List.mem r st.ccfg.cclients))
          && (not (Session.is_down st.csess r))
          && r <> 0)
        (List.init st.ccfg.csize Fun.id)
    with
    | [] -> ()
    | v :: _ ->
      Session.mark_down st.csess v;
      st.ckills <- st.ckills + 1;
      Proc.sleep st.ccfg.revive_after;
      Session.mark_up st.csess v;
      st.crevives <- st.crevives + 1
  end

(* Poll a key until visible: fence completion guarantees every shard
   adopts, but the setroot events take (bounded, simulated) time to
   reach a reader's local slave. A key that never appears is a real
   atomicity/durability violation, not propagation lag. *)
let await_key st c ~label ~key ~expect =
  let tries = ref 0 in
  let rec go () =
    match Volumes.get c ~key with
    | Ok got ->
      st.checked <- st.checked + 1;
      Hashtbl.replace st.seen key ();
      if not (Json.equal got expect) then
        chaos_violate st "%s: key %s has wrong value" label key
    | Error e ->
      incr tries;
      if !tries >= 100 then
        chaos_violate st "%s: key %s never became visible: %s" label key e
      else begin
        Proc.sleep 0.005;
        go ()
      end
  in
  go ()

let chaos_client st ~rank =
  let c = Volumes.client st.cvt ~rank in
  let rng = Rng.split st.crng in
  let nprocs = List.length st.ccfg.cclients in
  (* Per-volume version horizon, read from this rank's local instances:
     monotonic reads must hold on every shard independently. *)
  let horizon = Array.make st.ccfg.cshards 0 in
  let check_monotonic label =
    for vol = 0 to st.ccfg.cshards - 1 do
      let v = Kvs.version (Volumes.instance st.cvt ~volume:vol ~rank) in
      if v < horizon.(vol) then
        chaos_violate st "rank %d: %s volume %d version regressed %d -> %d" rank
          label vol horizon.(vol) v
      else horizon.(vol) <- v
    done
  in
  for round = 1 to st.ccfg.crounds do
    Proc.sleep (Rng.exponential rng st.ccfg.round_gap);
    (* One write per volume, so every cross-shard fence really spans
       every shard. *)
    let wrote = ref [] in
    for vol = 0 to st.ccfg.cshards - 1 do
      let key = chaos_key st ~vol ~rank ~round in
      let v = chaos_value st.ccfg ~vol ~rank ~round in
      match Volumes.put c ~key v with
      | Ok () -> wrote := (key, v) :: !wrote
      | Error e -> chaos_violate st "rank %d: put %s failed: %s" rank key e
    done;
    st.in_flight_fences <- st.in_flight_fences + 1;
    let r = Volumes.fence c ~name:(Printf.sprintf "r%d" round) ~nprocs in
    st.in_flight_fences <- st.in_flight_fences - 1;
    (match r with
    | Ok () ->
      st.cfences_ok <- st.cfences_ok + 1;
      List.iter (fun (k, v) -> Hashtbl.replace st.cmodel k v) !wrote;
      (* Read-your-writes per shard, then fence atomicity: the fence
         returned, so every participant's contribution on every shard
         must (become) readable — all or nothing. *)
      List.iter
        (fun (k, v) -> await_key st c ~label:"ryw" ~key:k ~expect:v)
        !wrote;
      List.iter
        (fun peer ->
          for vol = 0 to st.ccfg.cshards - 1 do
            let pk = chaos_key st ~vol ~rank:peer ~round in
            Hashtbl.replace st.cmodel pk
              (chaos_value st.ccfg ~vol ~rank:peer ~round);
            await_key st c ~label:"atomicity" ~key:pk
              ~expect:(chaos_value st.ccfg ~vol ~rank:peer ~round)
          done)
        (List.filter (fun p -> p <> rank) st.ccfg.cclients);
      (* Monotonic reads over keys: anything this client has already
         observed must still be there. *)
      Hashtbl.iter
        (fun k () ->
          match Volumes.get c ~key:k with
          | Ok got ->
            st.checked <- st.checked + 1;
            if not (Json.equal got (Hashtbl.find st.cmodel k)) then
              chaos_violate st "rank %d: seen key %s diverged" rank k
          | Error e -> chaos_violate st "rank %d: seen key %s vanished: %s" rank k e)
        st.seen
    | Error e ->
      st.cfences_failed <- st.cfences_failed + 1;
      chaos_violate st "rank %d: fence r%d failed: %s" rank round e);
    check_monotonic "post-fence"
  done

let chaos_finalize st =
  Engine.run st.ceng;
  let n = st.ccfg.csize in
  let shards = st.ccfg.cshards in
  (* Exactly one acting master per volume. *)
  for vol = 0 to shards - 1 do
    let ms =
      List.filter
        (fun r ->
          Kvs.is_master (Volumes.instance st.cvt ~volume:vol ~rank:r)
          && not (Session.is_down st.csess r))
        (List.init n Fun.id)
    in
    if List.length ms <> 1 then
      chaos_violate st "volume %d: expected one master, got [%s]" vol
        (String.concat ";" (List.map string_of_int ms))
  done;
  (* Every rank converged to the same per-volume (version, root) and
     derived the same cross-shard epoch and composite — the sequenced
     event plane makes the merge a deterministic function every rank
     computes identically. *)
  let versions = ref [] and roots = ref [] in
  for vol = shards - 1 downto 0 do
    let v0 = Kvs.version (Volumes.instance st.cvt ~volume:vol ~rank:0) in
    let r0 = Kvs.root_ref (Volumes.instance st.cvt ~volume:vol ~rank:0) in
    for r = 1 to n - 1 do
      let t = Volumes.instance st.cvt ~volume:vol ~rank:r in
      if Kvs.version t <> v0 then
        chaos_violate st "volume %d rank %d stuck at version %d (cluster at %d)"
          vol r (Kvs.version t) v0;
      if not (Flux_sha1.Sha1.equal (Kvs.root_ref t) r0) then
        chaos_violate st "volume %d rank %d root diverged" vol r
    done;
    versions := v0 :: !versions;
    roots := Flux_sha1.Sha1.to_hex r0 :: !roots
  done;
  let xe0 = Volumes.xfence_epoch st.cvt ~rank:0 in
  let cx0 = Volumes.last_composite st.cvt ~rank:0 in
  for r = 1 to n - 1 do
    if Volumes.xfence_epoch st.cvt ~rank:r <> xe0 then
      chaos_violate st "rank %d xfence epoch %d <> rank 0's %d" r
        (Volumes.xfence_epoch st.cvt ~rank:r)
        xe0;
    match (cx0, Volumes.last_composite st.cvt ~rank:r) with
    | None, None -> ()
    | Some a, Some b ->
      if
        not
          (String.equal a.Proto.cx_name b.Proto.cx_name
          && a.Proto.cx_epoch = b.Proto.cx_epoch
          && Array.length a.Proto.cx_roots = Array.length b.Proto.cx_roots
          && Array.for_all2
               (fun (x : Proto.root_info) (y : Proto.root_info) ->
                 Flux_sha1.Sha1.equal x.Proto.ri_root y.Proto.ri_root
                 && x.Proto.ri_version = y.Proto.ri_version)
               a.Proto.cx_roots b.Proto.cx_roots)
      then chaos_violate st "rank %d composite diverged from rank 0" r
    | _ -> chaos_violate st "rank %d composite presence diverged from rank 0" r
  done;
  (* Zero lost acked writes: the whole fence-acked model must be
     readable from a rank that is not a client (including the revived
     ex-master's). *)
  let verify_rank =
    match
      List.filter (fun r -> not (List.mem r st.ccfg.cclients)) (List.init n Fun.id)
    with
    | r :: _ -> r
    | [] -> 0
  in
  ignore
    (Proc.spawn st.ceng (fun () ->
         let c = Volumes.client st.cvt ~rank:verify_rank in
         Hashtbl.iter
           (fun key v ->
             st.checked <- st.checked + 1;
             match Volumes.get c ~key with
             | Ok got ->
               if not (Json.equal got v) then
                 chaos_violate st "verify@%d: key %s diverged" verify_rank key
             | Error e ->
               chaos_violate st "verify@%d: acked key %s lost: %s" verify_rank key e)
           st.cmodel)
      : Proc.pid);
  Engine.run st.ceng;
  (!versions, !roots, xe0)

let chaos cfg =
  if cfg.cshards < 2 then invalid_arg "Shard.chaos: needs at least two shards";
  List.iter
    (fun r ->
      if r < 0 || r >= cfg.csize then
        invalid_arg "Shard.chaos: client rank out of range")
    cfg.cclients;
  let eng = Engine.create () in
  let sess =
    Session.create eng ~fanout:cfg.cfanout ~rank_topology:Session.Direct
      ~size:cfg.csize ()
  in
  let vt = Volumes.load sess ~config:cfg.ckvs ~shards:cfg.cshards () in
  let st =
    {
      ccfg = cfg;
      ceng = eng;
      csess = sess;
      cvt = vt;
      comps = comps_for vt ~shards:cfg.cshards;
      crng = Rng.create cfg.cseed;
      cmodel = Hashtbl.create 256;
      seen = Hashtbl.create 256;
      in_flight_fences = 0;
      ckills = 0;
      crevives = 0;
      cfences_ok = 0;
      cfences_failed = 0;
      checked = 0;
      cviolations = [];
    }
  in
  ignore (Proc.spawn eng (fun () -> assassin st) : Proc.pid);
  ignore (Proc.spawn eng (fun () -> slave_killer st) : Proc.pid);
  List.iter
    (fun r -> ignore (Proc.spawn eng (fun () -> chaos_client st ~rank:r) : Proc.pid))
    cfg.cclients;
  Engine.run eng;
  let versions, roots, xepoch = chaos_finalize st in
  let takeovers =
    List.init cfg.cshards (fun vol ->
        List.fold_left
          (fun acc r -> max acc (Kvs.epoch (Volumes.instance vt ~volume:vol ~rank:r)))
          0
          (List.init cfg.csize Fun.id))
    |> List.fold_left ( + ) 0
  in
  {
    fences_ok = st.cfences_ok;
    fences_failed = st.cfences_failed;
    kills = st.ckills;
    revives = st.crevives;
    takeovers;
    xepoch;
    keys_checked = st.checked;
    cviolations = List.rev st.cviolations;
    final_versions = versions;
    final_roots = roots;
    cfinal_clock = Engine.now eng;
    csim_events = Engine.events_executed eng;
  }

(* --- Bench sweep ------------------------------------------------------------ *)

let soak_row (r : soak_report) =
  [
    ("shards", Json.int r.shards);
    ("offered", Json.int r.offered);
    ("acked", Json.int r.acked);
    ("shed", Json.int r.shed);
    ("failed", Json.int r.failed);
    ("goodput", Json.float r.goodput);
    ("ack_p50", Json.float r.ack_p50);
    ("ack_p99", Json.float r.ack_p99);
    ("admission_sheds", Json.int r.admission_sheds);
    ("intake_hwm", Json.int r.intake_hwm);
    ("lost_acks", Json.int r.lost_acks);
    ("drained", Json.bool r.drained);
    ("sim_events", Json.int r.sim_events);
    ("violations", Json.int (List.length r.violations));
  ]

let harness =
  let sweep ~fast =
    let duration = if fast then 0.25 else 0.4 in
    let base = { soak_default with duration } in
    let cap = soak_capacity base in
    Printf.printf
      "(%d nodes, %d producers, %.2fs window, per-master capacity %.0f ops/s, offered %.0f)\n%!"
      base.size (List.length base.producers) duration cap base.rate;
    let runs = List.map (fun shards -> soak { base with shards }) [ 1; 2; 4 ] in
    let rows = List.map soak_row runs in
    Harness.print_table rows;
    let goodput_of n =
      List.find_map (fun (r : soak_report) -> if r.shards = n then Some r.goodput else None) runs
      |> Option.value ~default:0.0
    in
    let g1 = goodput_of 1 and g4 = goodput_of 4 in
    let ratio = if g1 > 0.0 then g4 /. g1 else 0.0 in
    Printf.printf "  goodput scales %.2fx from 1 to 4 shards\n%!" ratio;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "shard");
            ("nodes", Json.int base.size);
            ("producers", Json.int (List.length base.producers));
            ("duration", Json.float duration);
            ("per_master_capacity", Json.float cap);
            ("offered_rate", Json.float base.rate);
            ("scaling_1_to_4", Json.float ratio);
            ("tier", Harness.tier ~fast);
            ("rows", Json.list (List.map Json.obj rows));
          ];
      violations =
        List.concat_map
          (fun (r : soak_report) ->
            Harness.labelled (Printf.sprintf "%d shards" r.shards) r.violations)
          runs
        @ Harness.check (ratio >= 1.8)
            (Printf.sprintf "goodput scales only %.2fx from 1 to 4 shards (bar: 1.8x)" ratio);
      host = [];
    }
  in
  {
    Harness.name = "shard";
    title = "sharded KVS soak at 2x one master's capacity (goodput vs shards)";
    sweep;
    cli = Harness.once (fun () -> soak soak_default) soak_row (fun r -> r.violations);
  }
