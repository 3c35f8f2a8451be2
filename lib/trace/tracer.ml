module Json = Flux_json.Json
module Ring_buffer = Flux_util.Ring_buffer

type event = {
  ev_ts : float;
  ev_cat : string;
  ev_name : string;
  ev_rank : int;
  ev_fields : (string * Json.t) list;
}

type ctx = { tc_trace : int; tc_span : int; tc_parent : int }

type t = {
  now : unit -> float;
  buf : event Ring_buffer.t;
  counts : (string * string, int) Hashtbl.t;
  mutable subscribers : (event -> unit) list;
  mutable next_id : int; (* span/trace id allocator, deterministic *)
}

let create ?(capacity = 100_000) ~now () =
  {
    now;
    buf = Ring_buffer.create ~capacity;
    counts = Hashtbl.create 64;
    subscribers = [];
    next_id = 1;
  }

let now t = t.now ()

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let root_ctx t =
  let id = fresh_id t in
  { tc_trace = id; tc_span = id; tc_parent = 0 }

let child_ctx t parent =
  { tc_trace = parent.tc_trace; tc_span = fresh_id t; tc_parent = parent.tc_span }

let ctx_fields c =
  [
    ("trace", Json.int c.tc_trace);
    ("span", Json.int c.tc_span);
    ("parent", Json.int c.tc_parent);
  ]

let bump t key =
  Hashtbl.replace t.counts key
    (1 + match Hashtbl.find_opt t.counts key with Some c -> c | None -> 0)

let add_count t ~cat ~name n =
  Hashtbl.replace t.counts (cat, name)
    (n + match Hashtbl.find_opt t.counts (cat, name) with Some c -> c | None -> 0)

let emit t ~cat ~name ?(rank = -1) ?ctx ?(fields = []) () =
  bump t (cat, name);
  let fields = match ctx with None -> fields | Some c -> ctx_fields c @ fields in
  let ev = { ev_ts = t.now (); ev_cat = cat; ev_name = name; ev_rank = rank; ev_fields = fields } in
  let dropped_before = Ring_buffer.dropped t.buf in
  Ring_buffer.push t.buf ev;
  (* Capacity truncation is itself an observable: exports surface the
     [trace.dropped] counter so a truncated stream can never be
     mistaken for a complete one. *)
  if Ring_buffer.dropped t.buf > dropped_before then bump t ("trace", "dropped");
  List.iter (fun f -> f ev) t.subscribers

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let events t = Ring_buffer.to_list t.buf

let dropped t = Ring_buffer.dropped t.buf

let capacity t = Ring_buffer.capacity t.buf

let count t ~cat ~name =
  match Hashtbl.find_opt t.counts (cat, name) with Some c -> c | None -> 0

let counters t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts [])
