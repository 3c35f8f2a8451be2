(* Focused tests for the mon comms module's distributed machinery: the
   KVS-watch activation path, exact root aggregation across epochs, and
   partial-forward liveness when a sampler dies mid-epoch. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Hb = Flux_modules.Hb
module Mon = Flux_modules.Mon
module Tracer = Flux_trace.Tracer

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

let run_clients eng bodies =
  let remaining = ref (List.length bodies) in
  List.iter (fun body -> ignore (Proc.spawn eng (fun () -> body (); decr remaining))) bodies;
  Engine.run eng;
  if !remaining <> 0 then Alcotest.failf "%d clients did not complete" !remaining

(* Activation is a KVS write, not an RPC to the module: any client
   writing conf.mon.script directly must start sampling on every rank
   via the setroot watch — the script-install path the prototype used
   for its Linux snippets. *)
let test_script_install_via_kvs_watch () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "watch-probe" (fun ~rank:_ ~epoch:_ -> 1.0);
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:4 in
        (* A few idle heartbeats first: nothing samples before install. *)
        Proc.sleep 0.2;
        check bool "no samples before install" true
          (Array.for_all (fun t -> Mon.samples_taken t = 0) mon);
        expect_ok "raw kvs put"
          (Client.put c ~key:"conf.mon.script" (Json.string "watch-probe"));
        ignore (expect_ok "commit" (Client.commit c) : int);
        Proc.sleep 0.5;
        Hb.stop hb);
    ];
  check bool "every rank picked the script up off the watch" true
    (Array.for_all (fun t -> Mon.samples_taken t > 0) mon);
  check bool "root aggregated" true (Mon.latest_aggregate mon.(0) <> None)

(* The root's aggregate is the exact tree reduction: with sampler value
   = rank, count/sum/min/max are closed-form, and successive epochs keep
   re-proving it (state from epoch e must not leak into e+1). *)
let test_root_aggregation_exact_across_epochs () =
  let eng = Engine.create () in
  let size = 9 in
  let sess = Session.create eng ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "rankval" (fun ~rank ~epoch:_ -> float_of_int rank);
  let seen = ref [] in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:2 in
        expect_ok "activate" (Mon.activate api ~script:"rankval");
        (* Sample the root's aggregate after each settled epoch. *)
        for _ = 1 to 6 do
          Proc.sleep 0.05;
          match Mon.latest_aggregate mon.(0) with
          | Some (e, s) when not (List.mem_assoc e !seen) -> seen := (e, s) :: !seen
          | _ -> ()
        done;
        Hb.stop hb);
    ];
  let complete = List.filter (fun (_, s) -> s.Mon.s_count = size) !seen in
  check bool "at least two complete epochs observed" true (List.length complete >= 2);
  List.iter
    (fun (e, s) ->
      check (Alcotest.float 1e-9) (Printf.sprintf "epoch %d min" e) 0.0 s.Mon.s_min;
      check (Alcotest.float 1e-9) (Printf.sprintf "epoch %d max" e) 8.0 s.Mon.s_max;
      check (Alcotest.float 1e-9) (Printf.sprintf "epoch %d sum" e) 36.0 s.Mon.s_sum)
    complete;
  (* Distinct epochs produced distinct aggregates (no stale reuse). *)
  let epochs = List.map fst complete in
  check int "epochs are distinct" (List.length epochs) (List.length (List.sort_uniq compare epochs))

(* A rank dying between its sample and the epoch's completion must not
   wedge the reduction: the window timer forwards the partial, the root
   still aggregates the survivors, and the engine drains (the test
   finishing at all is the no-hang proof). *)
let test_sampler_dying_mid_epoch_no_hang () =
  let eng = Engine.create () in
  let size = 7 in
  let sess = Session.create eng ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "steady" (fun ~rank:_ ~epoch:_ -> 1.0);
  let victim = 1 in
  (* An interior rank: its own sample is lost and its children's
     contributions dead-end, the hardest partial-forward case. *)
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:3 in
        expect_ok "activate" (Mon.activate api ~script:"steady");
        Proc.sleep 0.3;
        Session.mark_down sess victim;
        Proc.sleep 0.4;
        Hb.stop hb);
    ];
  (* Reaching here is the point: Engine.run returned with a mid-epoch
     death in the tree. The root must still have aggregated afterwards,
     with fewer contributions than a full epoch. *)
  match Mon.latest_aggregate mon.(0) with
  | None -> Alcotest.fail "no aggregate at root after the death"
  | Some (_, s) ->
    check int "the 6 live samples" (size - 1) s.Mon.s_count;
    check (Alcotest.float 1e-9) "survivor samples intact" (float_of_int s.Mon.s_count) s.Mon.s_sum

(* Every aggregate rank 0 stores, as (epoch, count) in store order: rank
   0 sets its latest aggregate, then sends the kvs.mput that stores it. *)
let record_stores sess mon =
  let eng = Session.engine sess in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  Session.set_tracer sess (Some tr);
  let stores = ref [] in
  Tracer.subscribe tr (fun ev ->
      if ev.Tracer.ev_name = "rpc.send" && ev.Tracer.ev_rank = 0
         && List.assoc_opt "topic" ev.Tracer.ev_fields = Some (Json.string "kvs.mput")
      then
        match Mon.latest_aggregate mon.(0) with
        | Some (e, s) -> stores := (e, s.Mon.s_count) :: !stores
        | None -> ());
  stores

(* From epoch [from] on, each epoch is stored exactly once, with [count]
   samples, and at least [min_epochs] epochs are. *)
let check_stored_once ~from ~count ~min_epochs stores =
  let later = List.rev (List.filter (fun (e, _) -> e >= from) stores) in
  let epochs = List.sort_uniq compare (List.map fst later) in
  check bool (Printf.sprintf "at least %d epochs from %d" min_epochs from) true
    (List.length epochs >= min_epochs);
  List.iter
    (fun e ->
      check (Alcotest.list int) (Printf.sprintf "epoch %d stored once" e) [ count ]
        (List.filter_map (fun (e', c) -> if e' = e then Some c else None) later))
    epochs

(* A leaf that crashes without being marked down never reports again.
   Its parent's window runs out before the ones above it, so each epoch
   still reaches rank 0 whole but for the leaf, and a partial that would
   arrive after its epoch left is dropped, not stored over it. *)
let test_crashed_leaf_stored_once () =
  let eng = Engine.create () in
  let size = 15 in
  let sess = Session.create eng ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "steady" (fun ~rank:_ ~epoch:_ -> 1.0);
  let stores = record_stores sess mon in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:3 in
        expect_ok "activate" (Mon.activate api ~script:"steady");
        Proc.sleep (0.2 -. Engine.now eng);
        Session.crash sess 9;
        Proc.sleep 0.8;
        Hb.stop hb);
    ];
  (* Epoch k pulses at k * 0.05 s: 5 is the first after the crash. *)
  check_stored_once ~from:5 ~count:(size - 1) ~min_epochs:12 !stores

(* Rank 0 revives as a child of rank 1, which kept the overlay root:
   each epoch reduces up to rank 1 whole, and rank 1 hands it to rank 0,
   which stores it once. *)
let test_rank0_revived_under_moved_root () =
  let eng = Engine.create () in
  let size = 7 in
  let sess = Session.create eng ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "steady" (fun ~rank:_ ~epoch:_ -> 1.0);
  let stores = record_stores sess mon in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:3 in
        expect_ok "activate" (Mon.activate api ~script:"steady");
        Proc.sleep (0.3 -. Engine.now eng);
        Session.mark_down sess 0;
        Proc.sleep 0.5;
        Session.mark_up sess 0;
        Proc.sleep 0.7;
        Hb.stop hb);
    ];
  check (Alcotest.option int) "rank 1 kept the root" None
    (Session.tree_parent (Session.broker sess 1));
  (* Epoch k pulses at k * 0.05 s: 17 is the first after the revival. *)
  check_stored_once ~from:18 ~count:size ~min_epochs:10 !stores

let () =
  Alcotest.run "flux_mon"
    [
      ( "mon",
        [
          Alcotest.test_case "script install via kvs watch" `Quick
            test_script_install_via_kvs_watch;
          Alcotest.test_case "root aggregation exact across epochs" `Quick
            test_root_aggregation_exact_across_epochs;
          Alcotest.test_case "sampler dying mid-epoch no hang" `Quick
            test_sampler_dying_mid_epoch_no_hang;
          Alcotest.test_case "crashed leaf: each epoch stored once" `Quick
            test_crashed_leaf_stored_once;
          Alcotest.test_case "rank 0 revived under the moved root" `Quick
            test_rank0_revived_under_moved_root;
        ] );
    ]
