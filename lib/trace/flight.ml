module Json = Flux_json.Json
module Ring_buffer = Flux_util.Ring_buffer

(* Crash flight recorder: a small per-rank ring of the most recent
   trace events, independent of the tracer's global capacity. The
   global buffer on a long run is dominated by healthy-rank chatter and
   may have rotated a victim's history out long before anyone asks what
   it was doing; the per-rank ring guarantees the last [capacity]
   events of *every* rank survive until dumped.

   The recorder subscribes to the tracer, so it sees every event the
   tracer records and costs one ring push per event. Dumps are taken on
   demand — the telemetry plane triggers them on mark_down and on
   alerts, harnesses on guarantee trips — and are tagged back into the
   tracer as [flight.dump] events so the trigger is visible in the main
   trace too. *)

type dump = {
  d_ts : float; (* virtual time of the dump *)
  d_rank : int;
  d_reason : string;
  d_events : Tracer.event list; (* oldest first *)
}

type t = {
  tracer : Tracer.t;
  ring_capacity : int;
  rings : (int, Tracer.event Ring_buffer.t) Hashtbl.t;
  mutable dumps : dump list; (* newest first *)
  mutable ndumps : int;
  seen_reasons : (int * string, unit) Hashtbl.t;
}

(* Retained dumps; later ones are still tagged into the trace. *)
let max_dumps = 64

let create ?(capacity = 256) tracer =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  let t =
    {
      tracer;
      ring_capacity = capacity;
      rings = Hashtbl.create 64;
      dumps = [];
      ndumps = 0;
      seen_reasons = Hashtbl.create 16;
    }
  in
  Tracer.subscribe tracer (fun (ev : Tracer.event) ->
      if ev.Tracer.ev_rank >= 0 then begin
        let ring =
          match Hashtbl.find_opt t.rings ev.Tracer.ev_rank with
          | Some r -> r
          | None ->
            let r = Ring_buffer.create ~capacity:t.ring_capacity in
            Hashtbl.replace t.rings ev.Tracer.ev_rank r;
            r
        in
        Ring_buffer.push ring ev
      end);
  t

let recent t ~rank =
  match Hashtbl.find_opt t.rings rank with
  | Some r -> Ring_buffer.to_list r
  | None -> []

let dump t ~rank ~reason =
  let events = recent t ~rank in
  let d =
    { d_ts = Tracer.now t.tracer; d_rank = rank; d_reason = reason; d_events = events }
  in
  (* Tag the dump into the main trace: the [flight.dump] instant marks
     when and why, and carries enough to find the full dump. *)
  Tracer.emit t.tracer ~cat:"flight" ~name:"dump" ~rank
    ~fields:
      [
        ("reason", Json.string reason);
        ("events", Json.int (List.length events));
        ("capacity", Json.int t.ring_capacity);
      ]
    ();
  if t.ndumps < max_dumps then begin
    t.dumps <- d :: t.dumps;
    t.ndumps <- t.ndumps + 1
  end;
  d

(* Triggered dumps can repeat (an alert firing every epoch for the same
   straggler); [dump_once] keeps the first per (rank, tag) so a noisy
   alert cannot flood the dump store. *)
let dump_once t ~rank ~tag ~reason =
  if Hashtbl.mem t.seen_reasons (rank, tag) then None
  else begin
    Hashtbl.replace t.seen_reasons (rank, tag) ();
    Some (dump t ~rank ~reason)
  end

let dumps t = List.rev t.dumps

let dump_to_perfetto d = Export.events_to_perfetto d.d_events
