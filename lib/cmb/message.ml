module Json = Flux_json.Json

type kind = Request | Response | Event

type t = {
  kind : kind;
  topic : string;
  nonce : int;
  origin : int;
  dst : int option;
  seq : int;
  route : int list;
  error : string option;
  payload : Json.t;
  trace : Flux_trace.Tracer.ctx option;
      (* Causal context; out-of-band instrumentation, so it is excluded
         from [size] and must never influence routing or delivery. *)
}

let check_topic topic =
  if not (Topic.is_valid topic) then
    invalid_arg (Printf.sprintf "Message: invalid topic %S" topic)

let request ?dst ~topic ~origin ~nonce payload =
  check_topic topic;
  {
    kind = Request;
    topic;
    nonce;
    origin;
    dst;
    seq = 0;
    route = [];
    error = None;
    payload;
    trace = None;
  }

let response ~of_ payload =
  { of_ with kind = Response; payload; error = None }

let error_response ~of_ err =
  { of_ with kind = Response; payload = Json.null; error = Some err }

let event ~topic ~origin payload =
  check_topic topic;
  {
    kind = Event;
    topic;
    nonce = 0;
    origin;
    dst = None;
    seq = 0;
    route = [];
    error = None;
    payload;
    trace = None;
  }

(* Fixed header: kind tag, nonce, origin, dst, seq (4 B each on the wire
   in the prototype's binary framing) plus the topic string and 4 B per
   route hop. *)
let size m =
  20 + String.length m.topic
  + (4 * List.length m.route)
  + (match m.error with Some e -> String.length e | None -> 0)
  + Json.serialized_size m.payload

let with_trace m ctx = { m with trace = Some ctx }

let push_hop m rank = { m with route = rank :: m.route }

let pop_hop m =
  match m.route with [] -> None | hop :: rest -> Some (hop, { m with route = rest })
