module Json = Flux_json.Json

let event_to_json (e : Tracer.event) =
  Json.obj
    [
      ("ts", Json.float e.Tracer.ev_ts);
      ("cat", Json.string e.Tracer.ev_cat);
      ("name", Json.string e.Tracer.ev_name);
      ("rank", Json.int e.Tracer.ev_rank);
      ("fields", Json.obj e.Tracer.ev_fields);
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    (Tracer.events t);
  Buffer.contents buf

let to_text t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Tracer.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%12.6f %-6s %-20s %s%s\n" e.Tracer.ev_ts e.Tracer.ev_cat
           e.Tracer.ev_name
           (if e.Tracer.ev_rank >= 0 then Printf.sprintf "rank=%d " e.Tracer.ev_rank else "")
           (match e.Tracer.ev_fields with
           | [] -> ""
           | fields -> Json.to_string (Json.obj fields))))
    (Tracer.events t);
  Buffer.contents buf

let counters_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "category,name,count\n";
  List.iter
    (fun ((cat, name), count) -> Buffer.add_string buf (Printf.sprintf "%s,%s,%d\n" cat name count))
    (Tracer.counters t);
  Buffer.contents buf

(* Chrome / Perfetto trace-event JSON. One process per rank; one
   thread per category (named via "M" metadata rows). Events carrying a
   "dur" field were emitted at span end, so the complete-event start is
   ts - dur; everything else becomes a thread-scoped instant. Times are
   microseconds per the format. *)
let events_to_perfetto events =
  let us s = s *. 1e6 in
  let tids = Hashtbl.create 8 in
  let metadata = ref [] in
  let tid_of pid cat =
    match Hashtbl.find_opt tids (pid, cat) with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tids in
      Hashtbl.add tids (pid, cat) i;
      metadata :=
        Json.obj
          [
            ("name", Json.string "thread_name");
            ("ph", Json.string "M");
            ("pid", Json.int pid);
            ("tid", Json.int i);
            ("args", Json.obj [ ("name", Json.string cat) ]);
          ]
        :: !metadata;
      i
  in
  let rows =
    List.map
      (fun (e : Tracer.event) ->
        let pid = if e.Tracer.ev_rank >= 0 then e.Tracer.ev_rank else 0 in
        let tid = tid_of pid e.Tracer.ev_cat in
        let dur =
          match List.assoc_opt "dur" e.Tracer.ev_fields with
          | Some d -> (try Some (Json.to_float d) with Json.Type_error _ -> None)
          | None -> None
        in
        let common =
          [
            ("name", Json.string e.Tracer.ev_name);
            ("cat", Json.string e.Tracer.ev_cat);
            ("pid", Json.int pid);
            ("tid", Json.int tid);
            ("args", Json.obj e.Tracer.ev_fields);
          ]
        in
        match dur with
        | Some d ->
          Json.obj
            (("ph", Json.string "X")
            :: ("ts", Json.float (us (e.Tracer.ev_ts -. d)))
            :: ("dur", Json.float (us d))
            :: common)
        | None ->
          Json.obj
            (("ph", Json.string "i")
            :: ("ts", Json.float (us e.Tracer.ev_ts))
            :: ("s", Json.string "t")
            :: common))
      events
  in
  Json.to_string
    (Json.obj
       [
         ("traceEvents", Json.list (List.rev_append !metadata rows));
         ("displayTimeUnit", Json.string "ms");
       ])

let to_perfetto t = events_to_perfetto (Tracer.events t)

(* Critical path of one traced fence (the paper's Fig. 4 components):

     ascent     = first kvs fence.enter          -> kvs commit.begin
     root commit = commit.begin                  -> kvs setroot.publish
     broadcast  = setroot.publish -> last fence rpc.done / setroot.deliver

   The three segments telescope, so their sum equals the end-to-end
   fence latency by construction. Assumes the named fence is the only
   one committing in its window (true for the KAP workloads and the
   [flux_cli trace] demo). *)
type fence_breakdown = {
  fb_name : string;
  fb_start : float;
  fb_commit_begin : float;
  fb_publish : float;
  fb_end : float;
  fb_ascent : float;
  fb_commit : float;
  fb_broadcast : float;
  fb_total : float;
}

let field_string k (e : Tracer.event) =
  match List.assoc_opt k e.Tracer.ev_fields with
  | Some (Json.String s) -> Some s
  | _ -> None

let fence_critical_path t ~name =
  let events = Tracer.events t in
  let fence_named e = field_string "name" e = Some name in
  let min_ts acc (e : Tracer.event) =
    match acc with Some m when m <= e.Tracer.ev_ts -> acc | _ -> Some e.Tracer.ev_ts
  in
  let start =
    List.fold_left
      (fun acc (e : Tracer.event) ->
        if e.Tracer.ev_cat = "kvs" && e.Tracer.ev_name = "fence.enter" && fence_named e then
          min_ts acc e
        else acc)
      None events
  in
  let commit_begin =
    List.fold_left
      (fun acc (e : Tracer.event) ->
        if acc = None && e.Tracer.ev_cat = "kvs" && e.Tracer.ev_name = "commit.begin"
           && fence_named e
        then Some e.Tracer.ev_ts
        else acc)
      None events
  in
  match (start, commit_begin) with
  | None, _ -> Error (Printf.sprintf "no kvs fence.enter event for fence %S" name)
  | _, None -> Error (Printf.sprintf "no kvs commit.begin event for fence %S" name)
  | Some start, Some commit_begin ->
    let publish =
      List.fold_left
        (fun acc (e : Tracer.event) ->
          if acc = None && e.Tracer.ev_cat = "kvs" && e.Tracer.ev_name = "setroot.publish"
             && e.Tracer.ev_ts >= commit_begin
          then Some e.Tracer.ev_ts
          else acc)
        None events
    in
    (match publish with
    | None -> Error (Printf.sprintf "no kvs setroot.publish event after fence %S commit" name)
    | Some publish ->
      let fence_done (e : Tracer.event) =
        e.Tracer.ev_cat = "cmb" && e.Tracer.ev_name = "rpc.done"
        && (match field_string "topic" e with
           | Some topic ->
             String.length topic >= 6 && String.sub topic (String.length topic - 6) 6 = ".fence"
           | None -> false)
      in
      (* The client-release endpoint is the last fence RPC completing;
         when the ["cmb"] category was filtered out, the last
         [setroot.deliver] approximates it (the deliver tail can extend
         past the release, so prefer the RPC view when present). *)
      let max_ts pred =
        List.fold_left
          (fun acc (e : Tracer.event) ->
            if e.Tracer.ev_ts >= publish && pred e && e.Tracer.ev_ts > acc then e.Tracer.ev_ts
            else acc)
          publish events
      in
      let finish =
        let released = max_ts fence_done in
        if released > publish then released
        else
          max_ts (fun e -> e.Tracer.ev_cat = "kvs" && e.Tracer.ev_name = "setroot.deliver")
      in
      Ok
        {
          fb_name = name;
          fb_start = start;
          fb_commit_begin = commit_begin;
          fb_publish = publish;
          fb_end = finish;
          fb_ascent = commit_begin -. start;
          fb_commit = publish -. commit_begin;
          fb_broadcast = finish -. publish;
          fb_total = finish -. start;
        })

let pp_fence_breakdown ppf fb =
  let pct x = if fb.fb_total > 0.0 then 100.0 *. x /. fb.fb_total else 0.0 in
  Format.fprintf ppf "fence %S critical path (virtual time):@\n" fb.fb_name;
  Format.fprintf ppf "  ascent (leaf flush -> root)    %12.6f s  %5.1f%%@\n" fb.fb_ascent
    (pct fb.fb_ascent);
  Format.fprintf ppf "  root commit (apply + hash)     %12.6f s  %5.1f%%@\n" fb.fb_commit
    (pct fb.fb_commit);
  Format.fprintf ppf "  setroot broadcast + release    %12.6f s  %5.1f%%@\n" fb.fb_broadcast
    (pct fb.fb_broadcast);
  Format.fprintf ppf "  total                          %12.6f s@\n" fb.fb_total

let fault_counters_csv ?(extra = []) ~rpc_timeouts ~rpc_retries ~dead_letters ~dropped () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "metric,value\n";
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s,%d\n" name v))
    ([
       ("rpc_timeouts", rpc_timeouts);
       ("rpc_retries", rpc_retries);
       ("dead_letters", dead_letters);
       ("dropped", dropped);
     ]
    @ extra);
  Buffer.contents buf

let summary t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%-10s %-24s %10s\n" "category" "name" "count");
  List.iter
    (fun ((cat, name), count) ->
      Buffer.add_string buf (Printf.sprintf "%-10s %-24s %10d\n" cat name count))
    (Tracer.counters t);
  (if Tracer.dropped t > 0 then
     Buffer.add_string buf
       (Printf.sprintf "(!) %d events dropped by the %d-event capacity: the stream is truncated\n"
          (Tracer.dropped t) (Tracer.capacity t)));
  Buffer.contents buf
