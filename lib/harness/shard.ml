(* Sharded-KVS harnesses: the goodput-vs-shards soak (does distributing
   the master actually buy capacity under admission control?) and the
   cross-shard fence chaos schedule (does the two-phase epoch-merge keep
   its guarantees when a shard master dies mid-fence?). *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
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

type soak_config = { shards : int; producers : int list; duration : float }

let soak_default = { shards = 1; producers = List.init 8 (fun i -> 24 + i); duration = 0.4 }

let soak_seed = 1
let soak_size = 32
let soak_value_bytes = 256

let soak_kvs =
  { Kvs.default_config with Kvs.apply_cpu_per_tuple = 100e-6; admission_max_intake = 256 }

(* One master applies at 1/apply_cpu_per_tuple = 10k ops/s; offer twice
   that, so shards=1 saturates and shards>=2 has headroom. *)
let soak_capacity = 1.0 /. soak_kvs.Kvs.apply_cpu_per_tuple
let soak_rate = 20_000.0

type soak_report = {
  shards : int;
  load : Open_loop.summary;
  admission_sheds : int;
  intake_hwm : int;  (** max over shard masters *)
  rpc_busy_retries : int;
  drained : bool;
  violations : string list;
  final_clock : float;
  sim_events : int;
}

(* Producers are assigned to volumes round-robin and address their
   volume by topic ("kvs-<v>.mput"), so the offered load spreads across
   the shard masters exactly — the scaling the sweep measures — rather
   than by the luck of key hashing. A key names the volume it was
   written to. *)
let soak_volume key = Scanf.sscanf key "sh%d." Fun.id

let soak_producer (cfg : soak_config) load ~idx ~rank =
  let vol = idx mod cfg.shards in
  let per = soak_rate /. float_of_int (List.length cfg.producers) in
  Open_loop.producer load ~rank ~seed:soak_seed ~rate:(fun _ -> per) (fun seq ->
      ( Printf.sprintf "kvs-%d.mput" vol,
        Printf.sprintf "sh%d.%d.%d.%d" vol rank (seq land 63) seq,
        Json.obj
          [
            ("r", Json.int rank);
            ("n", Json.int seq);
            ("pad", Json.string (String.make soak_value_bytes 'x'));
          ] ))

let soak_validate (cfg : soak_config) =
  Harness.require
    [
      (cfg.shards >= 1, "shards must be >= 1");
      (cfg.producers <> [], "no producers");
      ( List.for_all (fun r -> r >= 0 && r < soak_size) cfg.producers,
        "producer rank out of range (must be 0..size-1)" );
      (cfg.duration > 0.0, "duration must be positive");
    ]

let soak cfg =
  Result.iter_error (fun e -> invalid_arg ("Shard.soak: " ^ e)) (soak_validate cfg);
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:soak_size () in
  let vt = Volumes.load sess ~config:soak_kvs ~shards:cfg.shards () in
  let h = History.create sess in
  let load = Open_loop.create sess h ~duration:cfg.duration in
  List.iteri (fun idx rank -> soak_producer cfg load ~idx ~rank) cfg.producers;
  (* Acked writes must read back through the owning volume. *)
  let rank = List.hd cfg.producers in
  let api = Api.connect sess ~rank in
  let load =
    Open_loop.drain load ~rank (fun key ->
        Api.rpc api
          ~topic:(Printf.sprintf "kvs-%d.get" (soak_volume key))
          (Json.obj [ ("key", Json.string key) ])
        |> Result.map Proto.load_reply_value)
  in
  let masters = List.init cfg.shards (Volumes.master_rank vt) in
  let inst vol = Volumes.instance vt ~volume:vol ~rank:(List.nth masters vol) in
  let hwm = ref 0 and sheds = ref 0 and intake_left = ref 0 in
  for vol = 0 to cfg.shards - 1 do
    hwm := max !hwm (Kvs.intake_hwm (inst vol));
    sheds := !sheds + Kvs.admission_sheds (inst vol);
    intake_left := !intake_left + Kvs.intake_depth (inst vol);
    if Kvs.intake_hwm (inst vol) > soak_kvs.Kvs.admission_max_intake then
      History.violate h "volume %d intake hwm %d exceeds bound %d" vol
        (Kvs.intake_hwm (inst vol))
        soak_kvs.Kvs.admission_max_intake
  done;
  let drained = !intake_left = 0 in
  if not drained then History.violate h "undrained: intake=%d" !intake_left;
  {
    shards = cfg.shards;
    load;
    admission_sheds = !sheds;
    intake_hwm = !hwm;
    rpc_busy_retries = Session.rpc_busy_retries sess;
    drained;
    violations = History.violations h;
    final_clock = Engine.now eng;
    sim_events = Engine.events_executed eng;
  }

(* --- Cross-shard fence chaos ---------------------------------------------- *)

let chaos_size = 12
let chaos_shards = 2
let chaos_clients = [ 9; 10; 11 ]
let chaos_rounds = 6
let chaos_value_bytes = 64
let round_gap = 0.25 (* mean inter-round gap per client *)
let revive_after = 0.6 (* kill-to-revive delay *)

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
  cseed : int;
  ceng : Engine.t;
  csess : Session.t;
  cvt : Volumes.t;
  comps : string array;
  crng : Rng.t;
  ch : History.t; (* every key a completed fence covers is acked *)
  seen : (string, unit) Hashtbl.t; (* keys a client has observed *)
  mutable in_flight_fences : int;
  mutable cfences_ok : int;
  mutable cfences_failed : int;
  mutable checked : int;
}

let chaos_key st ~vol ~rank ~round =
  Printf.sprintf "%s.c%d.r%d" st.comps.(vol) rank round

let chaos_value ~vol ~rank ~round =
  Json.obj
    [
      ("v", Json.int vol);
      ("r", Json.int rank);
      ("n", Json.int round);
      ("pad", Json.string (String.make chaos_value_bytes 'y'));
    ]

(* The rank currently acting as master for a volume (skipping dead ranks,
   whose instances still believe in their old role). *)
let acting_master st ~vol =
  let m = ref (-1) in
  for r = 0 to chaos_size - 1 do
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
  let target_vol = st.cseed mod chaos_shards in
  Proc.sleep 0.01;
  while st.in_flight_fences = 0 && Engine.now st.ceng < 60.0 do
    Proc.sleep 0.0005
  done;
  (* A seeded extra beat varies which phase of the fence the kill hits. *)
  Proc.sleep (Rng.float rng 0.01);
  let m = acting_master st ~vol:target_vol in
  if m >= 0 && not (List.mem m chaos_clients) then History.outage st.ch m ~for_:revive_after

(* Odd seeds also fell an interior slave of the other volume's tree
   mid-run, exercising the healed-tree forwarding under the same fence
   traffic. *)
let slave_killer st =
  if st.cseed land 1 = 1 then begin
    Proc.sleep (round_gap *. 2.5);
    let masters = List.init chaos_shards (Volumes.master_rank st.cvt) in
    match
      List.filter
        (fun r ->
          (not (List.mem r masters))
          && (not (List.mem r chaos_clients))
          && (not (Session.is_down st.csess r))
          && r <> 0)
        (List.init chaos_size Fun.id)
    with
    | [] -> ()
    | v :: _ -> History.outage st.ch v ~for_:revive_after
  end

(* Poll a key until visible: fence completion guarantees every shard
   adopts, but the setroot events take (bounded, simulated) time to
   reach a reader's local slave. A key that never appears is a real
   atomicity/durability violation, not propagation lag. *)
let await_key st c ~label ~key ~expect =
  let rec go tries =
    match Volumes.get c ~key with
    | Error _ when tries < 99 ->
      Proc.sleep 0.005;
      go (tries + 1)
    | r ->
      if Result.is_ok r then begin
        st.checked <- st.checked + 1;
        Hashtbl.replace st.seen key ()
      end;
      History.check st.ch ~label ~key ~expect r
  in
  go 0

let chaos_client st ~rank =
  let c = Volumes.client st.cvt ~rank in
  let rng = Rng.split st.crng in
  let nprocs = List.length chaos_clients in
  (* One version horizon per volume: monotonic reads must hold on every
     shard independently. *)
  let who = Array.init chaos_shards (Printf.sprintf "rank %d volume %d" rank) in
  for round = 1 to chaos_rounds do
    Proc.sleep (Rng.exponential rng round_gap);
    (* One write per volume, so every cross-shard fence really spans
       every shard. *)
    let wrote = ref [] in
    for vol = 0 to chaos_shards - 1 do
      let key = chaos_key st ~vol ~rank ~round in
      let v = chaos_value ~vol ~rank ~round in
      match Volumes.put c ~key v with
      | Ok () -> wrote := (key, v) :: !wrote
      | Error e -> History.violate st.ch "rank %d: put %s failed: %s" rank key e
    done;
    st.in_flight_fences <- st.in_flight_fences + 1;
    let r = Volumes.fence c ~name:(Printf.sprintf "r%d" round) ~nprocs in
    st.in_flight_fences <- st.in_flight_fences - 1;
    (match r with
    | Ok () ->
      st.cfences_ok <- st.cfences_ok + 1;
      List.iter (fun (k, v) -> History.ack st.ch k v) !wrote;
      (* Read-your-writes per shard, then fence atomicity: the fence
         returned, so every participant's contribution on every shard
         must (become) readable — all or nothing. *)
      List.iter
        (fun (k, v) -> await_key st c ~label:"ryw" ~key:k ~expect:v)
        !wrote;
      List.iter
        (fun peer ->
          for vol = 0 to chaos_shards - 1 do
            let pk = chaos_key st ~vol ~rank:peer ~round in
            let pv = chaos_value ~vol ~rank:peer ~round in
            History.ack st.ch pk pv;
            await_key st c ~label:"atomicity" ~key:pk ~expect:pv
          done)
        (List.filter (fun p -> p <> rank) chaos_clients);
      (* Monotonic reads over keys: anything this client has already
         observed must still be there. *)
      Hashtbl.iter
        (fun k () ->
          let r = Volumes.get c ~key:k in
          if Result.is_ok r then st.checked <- st.checked + 1;
          History.check st.ch ~label:(Printf.sprintf "rank %d seen" rank) ~key:k
            ~expect:(History.expected st.ch k) r)
        st.seen
    | Error e ->
      st.cfences_failed <- st.cfences_failed + 1;
      History.violate st.ch "rank %d: fence r%d failed: %s" rank round e);
    for vol = 0 to chaos_shards - 1 do
      History.observe st.ch ~who:who.(vol) ~label:"post-fence"
        (Kvs.version (Volumes.instance st.cvt ~volume:vol ~rank))
    done
  done

let chaos_finalize st =
  Engine.run st.ceng;
  let n = chaos_size in
  let shards = chaos_shards in
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
      History.violate st.ch "volume %d: expected one master, got [%s]" vol
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
        History.violate st.ch "volume %d rank %d stuck at version %d (cluster at %d)"
          vol r (Kvs.version t) v0;
      if not (Flux_sha1.Sha1.equal (Kvs.root_ref t) r0) then
        History.violate st.ch "volume %d rank %d root diverged" vol r
    done;
    versions := v0 :: !versions;
    roots := Flux_sha1.Sha1.to_hex r0 :: !roots
  done;
  let xe0 = Volumes.xfence_epoch st.cvt ~rank:0 in
  let cx0 = Volumes.last_composite st.cvt ~rank:0 in
  for r = 1 to n - 1 do
    if Volumes.xfence_epoch st.cvt ~rank:r <> xe0 then
      History.violate st.ch "rank %d xfence epoch %d <> rank 0's %d" r
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
      then History.violate st.ch "rank %d composite diverged from rank 0" r
    | _ -> History.violate st.ch "rank %d composite presence diverged from rank 0" r
  done;
  (* Zero lost acked writes: every fence-acked key must be readable from
     a rank that is not a client (including the revived ex-master's). *)
  let verify_rank =
    match
      List.filter (fun r -> not (List.mem r chaos_clients)) (List.init n Fun.id)
    with
    | r :: _ -> r
    | [] -> 0
  in
  ignore
    (Proc.spawn st.ceng (fun () ->
         let c = Volumes.client st.cvt ~rank:verify_rank in
         st.checked <-
           st.checked
           + History.verify st.ch ~label:(Printf.sprintf "verify@%d" verify_rank) (fun key ->
                 Volumes.get c ~key))
      : Proc.pid);
  Engine.run st.ceng;
  (!versions, !roots, xe0)

let chaos seed =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:chaos_size () in
  let vt = Volumes.load sess ~config:Kvs.replicated_config ~shards:chaos_shards () in
  let st =
    {
      cseed = seed;
      ceng = eng;
      csess = sess;
      cvt = vt;
      comps = comps_for vt ~shards:chaos_shards;
      crng = Rng.create seed;
      ch = History.create sess;
      seen = Hashtbl.create 256;
      in_flight_fences = 0;
      cfences_ok = 0;
      cfences_failed = 0;
      checked = 0;
    }
  in
  ignore (Proc.spawn eng (fun () -> assassin st) : Proc.pid);
  ignore (Proc.spawn eng (fun () -> slave_killer st) : Proc.pid);
  List.iter
    (fun r -> ignore (Proc.spawn eng (fun () -> chaos_client st ~rank:r) : Proc.pid))
    chaos_clients;
  Engine.run eng;
  let versions, roots, xepoch = chaos_finalize st in
  let takeovers =
    List.init chaos_shards (fun vol ->
        List.fold_left
          (fun acc r -> max acc (Kvs.epoch (Volumes.instance vt ~volume:vol ~rank:r)))
          0
          (List.init chaos_size Fun.id))
    |> List.fold_left ( + ) 0
  in
  {
    fences_ok = st.cfences_ok;
    fences_failed = st.cfences_failed;
    kills = History.kills st.ch;
    revives = History.revives st.ch;
    takeovers;
    xepoch;
    keys_checked = st.checked;
    cviolations = History.violations st.ch;
    final_versions = versions;
    final_roots = roots;
    cfinal_clock = Engine.now eng;
    csim_events = Engine.events_executed eng;
  }

(* --- Bench sweep ------------------------------------------------------------ *)

let soak_row (r : soak_report) =
  let l = r.load in
  [
    ("shards", Json.int r.shards);
    ("offered", Json.int l.offered);
    ("acked", Json.int l.acked);
    ("shed", Json.int l.shed);
    ("failed", Json.int l.failed);
    ("goodput", Json.float l.goodput);
    ("ack_p50", Json.float l.ack_p50);
    ("ack_p99", Json.float l.ack_p99);
    ("admission_sheds", Json.int r.admission_sheds);
    ("intake_hwm", Json.int r.intake_hwm);
    ("lost_acks", Json.int l.lost_acks);
    ("drained", Json.bool r.drained);
    ("sim_events", Json.int r.sim_events);
    ("violations", Json.int (List.length r.violations));
  ]

let harness =
  let sweep ~fast =
    let duration = if fast then 0.25 else 0.4 in
    let base = { soak_default with duration } in
    Printf.printf
      "(%d nodes, %d producers, %.2fs window, per-master capacity %.0f ops/s, offered %.0f)\n%!"
      soak_size (List.length base.producers) duration soak_capacity soak_rate;
    let runs = List.map (fun shards -> soak { base with shards }) [ 1; 2; 4 ] in
    let rows = List.map soak_row runs in
    Harness.print_table rows;
    let goodput_of n =
      List.find_map (fun (r : soak_report) -> if r.shards = n then Some r.load.goodput else None) runs
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
            ("nodes", Json.int soak_size);
            ("producers", Json.int (List.length base.producers));
            ("duration", Json.float duration);
            ("per_master_capacity", Json.float soak_capacity);
            ("offered_rate", Json.float soak_rate);
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
