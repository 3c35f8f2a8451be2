module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic

type t = {
  b : Session.broker;
  groups : (string, (int * string) list ref) Hashtbl.t; (* root only; reversed *)
}

(* Mastership follows the overlay root dynamically so the service
   survives a root failover: after rank 0 dies, join/leave/members
   resolve at the new root. Its table starts empty — membership does not
   migrate, members must re-join (a membership epoch, in effect). *)
let is_root t = Session.tree_parent t.b = None

let group_of t name =
  match Hashtbl.find_opt t.groups name with
  | Some g -> g
  | None ->
    let g = ref [] in
    Hashtbl.replace t.groups name g;
    g

let module_of t =
  {
    Session.mod_name = "group";
    on_request =
      (fun (req : Message.t) ->
        if not (is_root t) then
          (* Non-root instances pass membership operations upstream so
             the root holds the authoritative view. *)
          Session.Pass
        else begin
          (let p = req.Message.payload in
           match Topic.method_ req.Message.topic with
           | "join" ->
             let name = Json.to_string_v (Json.member "group" p) in
             let rank = Json.to_int (Json.member "rank" p) in
             let tag = Json.to_string_v (Json.member "tag" p) in
             let g = group_of t name in
             if not (List.mem (rank, tag) !g) then g := (rank, tag) :: !g;
             Session.respond t.b req (Json.obj [ ("size", Json.int (List.length !g)) ])
           | "leave" ->
             let name = Json.to_string_v (Json.member "group" p) in
             let rank = Json.to_int (Json.member "rank" p) in
             let tag = Json.to_string_v (Json.member "tag" p) in
             let g = group_of t name in
             g := List.filter (fun m -> m <> (rank, tag)) !g;
             Session.respond t.b req (Json.obj [ ("size", Json.int (List.length !g)) ])
           | "members" ->
             let name = Json.to_string_v (Json.member "group" p) in
             let g = group_of t name in
             let l =
               List.rev_map
                 (fun (r, tag) -> Json.obj [ ("rank", Json.int r); ("tag", Json.string tag) ])
                 !g
             in
             Session.respond t.b req (Json.obj [ ("members", Json.list l) ])
           | m -> Session.respond_error t.b req (Printf.sprintf "group: unknown method %S" m));
          Session.Consumed
        end);
  }

let load sess () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        { b = Session.broker sess r; groups = Hashtbl.create 8 })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  (* A dead rank's processes cannot leave their groups; purge them so
     group sizes (and the barriers sized from them) reflect the
     survivors. *)
  Session.add_liveness_watch sess (fun r up ->
      if not up then
        Array.iter
          (fun t ->
            Hashtbl.iter (fun _ g -> g := List.filter (fun (mr, _) -> mr <> r) !g) t.groups)
          instances);
  instances

let join api ~group ~tag =
  match
    Flux_cmb.Api.rpc api ~topic:"group.join"
      (Json.obj
         [
           ("group", Json.string group);
           ("rank", Json.int (Flux_cmb.Api.rank api));
           ("tag", Json.string tag);
         ])
  with
  | Ok p -> Ok (Json.to_int (Json.member "size" p))
  | Error e -> Error e

let leave api ~group ~tag =
  match
    Flux_cmb.Api.rpc api ~topic:"group.leave"
      (Json.obj
         [
           ("group", Json.string group);
           ("rank", Json.int (Flux_cmb.Api.rank api));
           ("tag", Json.string tag);
         ])
  with
  | Ok p -> Ok (Json.to_int (Json.member "size" p))
  | Error e -> Error e

let members api ~group =
  match
    Flux_cmb.Api.rpc api ~topic:"group.members" (Json.obj [ ("group", Json.string group) ])
  with
  | Ok p ->
    Ok
      (List.map
         (fun m -> (Json.to_int (Json.member "rank" m), Json.to_string_v (Json.member "tag" m)))
         (Json.to_list (Json.member "members" p)))
  | Error e -> Error e

let group_size api ~group =
  match members api ~group with Ok l -> Ok (List.length l) | Error e -> Error e

let barrier api ~group ~name =
  match group_size api ~group with
  | Error e -> Error e
  | Ok 0 -> Error (Printf.sprintf "group %S is empty" group)
  | Ok n -> Barrier.enter api ~name ~nprocs:n
