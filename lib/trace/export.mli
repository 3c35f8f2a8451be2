(** Rendering trace streams for humans and tools. *)

val to_jsonl : Tracer.t -> string
(** One JSON object per line (ts, cat, name, rank, fields) — the format
    external analysis tools would ingest. *)

val to_text : Tracer.t -> string
(** Human-readable listing, one event per line, time-ordered. *)

val summary : Tracer.t -> string
(** Per-(category, name) occurrence counts, with a warning when the
    capacity bound truncated the stream. *)

val counters_csv : Tracer.t -> string
(** The counts of {!summary} as machine-readable CSV:
    [category,name,count]. *)

val to_perfetto : Tracer.t -> string
(** Chrome / Perfetto trace-event JSON ([{"traceEvents": [...]}]).
    Ranks map to processes, categories to named threads; events with a
    ["dur"] field become complete ("X") slices anchored at span start,
    others thread-scoped instants. Load with ui.perfetto.dev or
    chrome://tracing. *)

val events_to_perfetto : Tracer.event list -> string
(** Same rendering over an explicit event list — what a flight-recorder
    dump (a slice of one rank's recent history) exports. *)

type fence_breakdown = {
  fb_name : string;
  fb_start : float;  (** earliest [kvs fence.enter] *)
  fb_commit_begin : float;  (** root saw the last contribution *)
  fb_publish : float;  (** root finished applying, published setroot *)
  fb_end : float;
      (** last fence [rpc.done] (the client release); the last
          [setroot.deliver] when ["cmb"] events were not retained *)
  fb_ascent : float;
  fb_commit : float;
  fb_broadcast : float;
  fb_total : float;  (** = ascent + commit + broadcast, telescoping *)
}

val fence_critical_path : Tracer.t -> name:string -> (fence_breakdown, string) result
(** Decompose one traced fence into the paper's Fig. 4 components:
    tree ascent, root commit, and setroot broadcast + client release.
    Requires the run to have been traced with the ["kvs"] category
    retained (and ["cmb"] for the precise client-release endpoint);
    [Error] names the missing event otherwise. *)

val pp_fence_breakdown : Format.formatter -> fence_breakdown -> unit

val fault_counters_csv :
  ?extra:(string * int) list ->
  rpc_timeouts:int ->
  rpc_retries:int ->
  dead_letters:int ->
  dropped:int ->
  unit ->
  string
(** The failure-diagnosis counters (session RPC lifecycle + Net
    accounting) as a [metric,value] CSV. Takes plain integers so this
    library stays independent of the simulator; callers feed it
    [Session.rpc_timeouts], [Net.stats ...] etc., plus any [extra]
    rows (e.g. takeover counts). *)
