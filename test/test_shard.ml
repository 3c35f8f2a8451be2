(* Cross-shard fence chaos schedules and the goodput-vs-shards soak:
   killing a shard master mid-fence must not cost an acked write, break
   monotonic reads, or let any client observe one shard's post-fence
   state alongside another's pre-fence state. *)

module Shard = Flux_harness.Shard
module Open_loop = Flux_harness.Open_loop

let check = Alcotest.check

let chaos_seeds = List.init 16 (fun i -> 1 + (13 * i))

let test_chaos_schedule seed () =
  let r = Shard.chaos seed in
  (match r.Shard.cviolations with
  | [] -> ()
  | vs ->
    Alcotest.failf "seed %d: %d violations:\n%s" seed (List.length vs)
      (String.concat "\n" vs));
  check Alcotest.int "no fence failed" 0 r.Shard.fences_failed;
  check Alcotest.bool "completed all rounds"
    true
    (r.Shard.fences_ok = Shard.chaos_rounds * List.length Shard.chaos_clients);
  check Alcotest.bool "the schedule killed someone" true (r.Shard.kills >= 1);
  check Alcotest.int "everyone killed was revived" r.Shard.kills r.Shard.revives;
  (* Every completed cross-shard fence bumped the merge epoch once. *)
  check Alcotest.int "xepoch counts the merges" Shard.chaos_rounds r.Shard.xepoch;
  check Alcotest.bool "readback exercised" true (r.Shard.keys_checked > 0)

let fingerprint (r : Shard.chaos_report) =
  ( ( r.Shard.fences_ok,
      r.Shard.kills,
      r.Shard.takeovers,
      r.Shard.xepoch,
      r.Shard.keys_checked ),
    (r.Shard.final_versions, r.Shard.final_roots),
    (r.Shard.cfinal_clock, r.Shard.csim_events) )

let test_chaos_deterministic () =
  let a = Shard.chaos 5 and b = Shard.chaos 5 in
  if fingerprint a <> fingerprint b then
    Alcotest.fail "same seed produced different chaos runs"

let test_chaos_master_killed () =
  (* At least one even and one odd seed actually kill the target
     volume's acting master (takeover epoch > 0 on some volume). *)
  List.iter
    (fun seed ->
      let r = Shard.chaos seed in
      check Alcotest.bool
        (Printf.sprintf "seed %d: a takeover happened" seed)
        true (r.Shard.takeovers >= 1))
    [ 2; 3 ]

(* --- Soak ------------------------------------------------------------------ *)

let soak_cfg shards =
  { Shard.soak_default with Shard.shards; duration = 0.2 }

let test_soak_scaling () =
  let r1 = Shard.soak (soak_cfg 1) in
  let r4 = Shard.soak (soak_cfg 4) in
  List.iter
    (fun (r : Shard.soak_report) ->
      (match r.Shard.violations with
      | [] -> ()
      | vs -> Alcotest.failf "shards=%d: %s" r.Shard.shards (String.concat "; " vs));
      check Alcotest.int
        (Printf.sprintf "shards=%d zero lost acks" r.Shard.shards)
        0 r.Shard.load.Open_loop.lost_acks;
      check Alcotest.bool
        (Printf.sprintf "shards=%d drained" r.Shard.shards)
        true r.Shard.drained)
    [ r1; r4 ];
  let ratio = r4.Shard.load.Open_loop.goodput /. r1.Shard.load.Open_loop.goodput in
  if ratio < 1.8 then
    Alcotest.failf "goodput scaled only %.2fx from 1 to 4 shards (want >= 1.8)" ratio

let test_soak_deterministic () =
  let a = Shard.soak (soak_cfg 2) and b = Shard.soak (soak_cfg 2) in
  if a <> b then Alcotest.fail "same seed produced different soak reports"

let test_soak_rejects_producer_out_of_range () =
  (* Rank 40 does not exist in the 32-rank soak: the config is refused
     before a session is built. *)
  Alcotest.check_raises "producer outside the session"
    (Invalid_argument "Shard.soak: producer rank out of range (must be 0..size-1)") (fun () ->
      ignore (Shard.soak { Shard.soak_default with Shard.producers = [ 40 ] } : Shard.soak_report))

let () =
  Alcotest.run "shard"
    [
      ( "chaos",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d: master kill mid-fence, 0 violations" seed)
              `Quick (test_chaos_schedule seed))
          chaos_seeds
        @ [
            (* At seed 99 interior rank 1 revives under a forward that
               rank 4 had re-sent to the root around it, and rank 4's
               retransmit reaches rank 1, which aggregates it afresh: the
               root must count that contribution once. At seed 1853 the
               root completed fence r1 and its replies died with rank 1;
               the participants' retransmits reach the revived rank 1,
               and the root must answer them from the completed record
               instead of opening the fence a second time. Both failed
               an atomicity check before the root counted leaves. *)
            Alcotest.test_case "seed 99: a re-aggregated retransmit counted once" `Quick
              (test_chaos_schedule 99);
            Alcotest.test_case "seed 1853: a late retransmit answered, not reopened" `Quick
              (test_chaos_schedule 1853);
            Alcotest.test_case "same seed, same run" `Quick test_chaos_deterministic;
            Alcotest.test_case "takeovers happen" `Quick test_chaos_master_killed;
          ] );
      ( "soak",
        [
          Alcotest.test_case "goodput scales >= 1.8x at 4 shards" `Quick
            test_soak_scaling;
          Alcotest.test_case "same seed, same report" `Quick test_soak_deterministic;
          Alcotest.test_case "rejects a producer out of range" `Quick
            test_soak_rejects_producer_out_of_range;
        ] );
    ]
