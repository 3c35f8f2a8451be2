module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic


type t = {
  b : Session.broker;
  master : bool;
  mutable free_pool : int list; (* ascending ranks, root only *)
  allocations : (string, int list) Hashtbl.t; (* jobid -> ranks, root only *)
}

(* Every node is a Zin/Cab node of the paper: 16 cores, 32 GB. *)
let enumerate_in_kvs t =
  (* Write the whole inventory under resrc.* in one atomic batch through
     the root's kvs module. *)
  let n = Session.b_size t.b in
  let bindings =
    List.init n (fun r ->
        Json.obj
          [
            ("key", Json.string (Printf.sprintf "resrc.rank%d" r));
            ( "v",
              Json.obj
                [ ("cores", Json.int 16); ("mem_gb", Json.int 32) ] );
          ])
  in
  Session.request_up t.b ~topic:"kvs.mput"
    (Json.obj [ ("bindings", Json.list bindings) ])
    ~reply:(fun _ -> ())

let handle_alloc t (req : Message.t) =
  let p = req.Message.payload in
  let jobid = Json.to_string_v (Json.member "jobid" p) in
  let nnodes = Json.to_int (Json.member "nnodes" p) in
  if Hashtbl.mem t.allocations jobid then
    Session.respond_error t.b req (Printf.sprintf "job %S already has an allocation" jobid)
  else if nnodes <= 0 then Session.respond_error t.b req "nnodes must be positive"
  else if List.length t.free_pool < nnodes then
    Session.respond_error t.b req
      (Printf.sprintf "insufficient resources: %d free, %d requested"
         (List.length t.free_pool) nnodes)
  else begin
    let rec take k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | r :: rest ->
        let taken, remaining = take (k - 1) rest in
        (r :: taken, remaining)
    in
    let granted, remaining = take nnodes t.free_pool in
    t.free_pool <- remaining;
    Hashtbl.replace t.allocations jobid granted;
    Session.respond t.b req (Json.obj [ ("ranks", Json.list (List.map Json.int granted)) ])
  end

let handle_free t (req : Message.t) =
  let jobid = Json.to_string_v (Json.member "jobid" req.Message.payload) in
  match Hashtbl.find_opt t.allocations jobid with
  | None -> Session.respond_error t.b req (Printf.sprintf "no allocation for job %S" jobid)
  | Some ranks ->
    Hashtbl.remove t.allocations jobid;
    t.free_pool <- List.sort compare (ranks @ t.free_pool);
    Session.respond t.b req (Json.obj [ ("freed", Json.int (List.length ranks)) ])

let module_of t =
  {
    Session.mod_name = "resvc";
    on_request =
      (fun (req : Message.t) ->
        if not t.master then Session.Pass
        else begin
          (match Topic.method_ req.Message.topic with
          | "alloc" -> handle_alloc t req
          | "free" -> handle_free t req
          | "info" ->
            Session.respond t.b req
              (Json.obj
                 [
                   ("free", Json.int (List.length t.free_pool));
                   ("total", Json.int (Session.b_size t.b));
                 ])
          | m -> Session.respond_error t.b req (Printf.sprintf "resvc: unknown method %S" m));
          Session.Consumed
        end);
  }

let load sess () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          master = r = 0;
          free_pool = (if r = 0 then List.init (Session.size sess) Fun.id else []);
          allocations = Hashtbl.create 8;
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  enumerate_in_kvs instances.(0);
  instances

let alloc api ~jobid ~nnodes =
  match
    Flux_cmb.Api.rpc api ~topic:"resvc.alloc"
      (Json.obj [ ("jobid", Json.string jobid); ("nnodes", Json.int nnodes) ])
  with
  | Ok p -> Ok (List.map Json.to_int (Json.to_list (Json.member "ranks" p)))
  | Error e -> Error e

let free api ~jobid =
  match
    Flux_cmb.Api.rpc api ~topic:"resvc.free" (Json.obj [ ("jobid", Json.string jobid) ])
  with
  | Ok p -> Ok (Json.to_int (Json.member "freed" p))
  | Error e -> Error e

let free_nodes api =
  match Flux_cmb.Api.rpc api ~topic:"resvc.info" Json.null with
  | Ok p -> Ok (Json.to_int (Json.member "free" p))
  | Error e -> Error e
