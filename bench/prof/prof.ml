(* A sampling profiler for the benchmark's workloads.

     prof.exe --workload NAME --seed N --passes P [--toy]

   Runs the workload's untraced pass (perfbench's [Plain] mode, which
   drains the engine with [Engine.run]) P times under a profiling timer
   that fires every millisecond of process CPU time. Each SIGPROF
   records the OCaml call stack. The report keeps the samples whose
   stack holds [Engine.run] and prints, for the [shown] functions with
   the largest inclusive share, the share of those samples in which the
   function is the innermost OCaml frame (self) and in which it is
   anywhere on the stack (inclusive). Names drop the library prefix:
   [Flux_kvs__Tree.lookup.walk] prints as [Tree.lookup.walk].

   The method skews the shares in three known ways:
   - OCaml runs a signal handler at the next poll point (an allocation,
     a function entry or a loop back-edge), so a sample lands there,
     not on the instruction the timer interrupted.
   - A C call such as [caml_hash] has no OCaml frame: its time is
     charged to the OCaml function that called it.
   - The collector runs inside allocations, so GC time is charged to
     the allocation site that triggered it. *)

open Probe

let workloads =
  [
    ( "kap-fence",
      fun ~toy ->
        Kap_load.run (if toy then Kap_load.toy Kap_load.fence_shape else Kap_load.fence_shape) );
    ( "kap-get",
      fun ~toy -> Kap_load.run (if toy then Kap_load.toy Kap_load.get_shape else Kap_load.get_shape)
    );
    ("sched-pilot", fun ~toy -> Pilot_load.run (if toy then Pilot_load.toy else Pilot_load.shape));
  ]

let interval_s = 0.001

let max_depth = 512

let shown = 40

let samples : Printexc.raw_backtrace list ref = ref []

let set_timer s = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = s; it_value = s })

(* "Flux_kvs__Tree.lookup.walk" -> "Tree.lookup.walk"; likewise for the
   executable's own modules ("Dune__exe__") and the standard library. *)
let short name =
  match String.index_opt name '.' with
  | None -> name
  | Some dot -> (
    let modname = String.sub name 0 dot in
    let rec last_sep i =
      if i < 1 then None
      else if modname.[i] = '_' && modname.[i - 1] = '_' then Some (i + 1)
      else last_sep (i - 1)
    in
    match last_sep (String.length modname - 1) with
    | Some i -> String.sub name i (String.length name - i)
    | None -> name)

(* The names on one sampled stack, innermost first, from the frame the
   timer interrupted down to [Engine.run]; [None] when [Engine.run] is
   not on the stack. The profiler's own signal handler sits on top and
   is dropped. *)
let frames raw =
  let names =
    match Printexc.backtrace_slots raw with
    | None -> []
    | Some slots ->
      Array.fold_right
        (fun slot acc -> match Printexc.Slot.name slot with Some n -> short n :: acc | None -> acc)
        slots []
  in
  let rec drop_handler = function
    | n :: rest when String.starts_with ~prefix:"Prof." n -> drop_handler rest
    | l -> l
  in
  let rec upto_run acc = function
    | [] -> None
    | "Engine.run" :: _ -> Some (List.rev ("Engine.run" :: acc))
    | n :: rest -> upto_run (n :: acc) rest
  in
  upto_run [] (drop_handler names)

let report ~passes =
  let total = List.length !samples in
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let bump tbl n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  let inside =
    List.fold_left
      (fun inside raw ->
        match frames raw with
        | None -> inside
        | Some names ->
          bump self (List.hd names);
          List.iter (bump incl) (List.sort_uniq String.compare names);
          inside + 1)
      0 !samples
  in
  Printf.printf "%d samples of %.0f ms CPU over %d passes; %d inside Engine.run\n" total
    (interval_s *. 1000.0) passes inside;
  if inside > 0 then begin
    let share n = 100.0 *. float_of_int n /. float_of_int inside in
    let rows = Hashtbl.fold (fun n c acc -> (n, c) :: acc) incl [] in
    let rows = List.sort (fun (n1, a) (n2, b) -> if a <> b then compare b a else compare n1 n2) rows in
    Printf.printf "%7s %7s  %s\n" "self%" "incl%" "function";
    List.iteri
      (fun i (n, c) ->
        if i < shown then
          Printf.printf "%7.1f %7.1f  %s\n"
            (share (Option.value ~default:0 (Hashtbl.find_opt self n)))
            (share c) n)
      rows
  end

let usage () =
  prerr_endline
    ("usage: prof.exe --workload NAME --seed N --passes P [--toy]\nworkloads: "
    ^ String.concat " " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and passes = ref 1 and toy = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to profile");
      ("--seed", Arg.Set_int seed, "N seed (default 0)");
      ("--passes", Arg.Set_int passes, "P passes to sample (default 1)");
      ("--toy", Arg.Set toy, " toy sizes, as in perfbench's self-test");
    ]
    (fun _ -> usage ())
    "prof.exe --workload NAME --seed N --passes P [--toy]";
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !passes < 1 || !seed < 0 then usage ();
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := Printexc.get_callstack max_depth :: !samples));
  let failed = ref 0 in
  for _ = 1 to !passes do
    Gc.compact ();
    let go = run ~toy:!toy ~seed:!seed ~plant:false ~mode:Plain ~live:false in
    set_timer interval_s;
    let o = go () in
    set_timer 0.0;
    failed := !failed + o.failed
  done;
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  report ~passes:!passes;
  if !failed > 0 then begin
    Printf.eprintf "prof: %d operations failed their check\n" !failed;
    exit 1
  end
