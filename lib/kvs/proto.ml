module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1

type tuple = { key : string; sha : Sha1.digest }

type obj = { osha : Sha1.digest; value : Json.t }

type flush = {
  fence : (string * int) option;
  leaves : Flux_cmb.Tally.leaf list;
  fid : int; (* per-sender flush id for duplicate suppression; -1 = none *)
  tuples : tuple list;
  objects : obj list;
}

let tuple_to_json t =
  Json.obj [ ("k", Json.string t.key); ("s", Json.string (Sha1.to_hex t.sha)) ]

let tuple_of_json j =
  {
    key = Json.to_string_v (Json.member "k" j);
    sha = Sha1.of_hex (Json.to_string_v (Json.member "s" j));
  }

let obj_to_json o =
  Json.obj [ ("s", Json.string (Sha1.to_hex o.osha)); ("v", o.value) ]

let obj_of_json j =
  {
    osha = Sha1.of_hex (Json.to_string_v (Json.member "s" j));
    value = Json.member "v" j;
  }

let flush_to_json f =
  Json.obj
    (( "fence",
       match f.fence with
       | Some (name, nprocs) ->
         Json.obj [ ("name", Json.string name); ("nprocs", Json.int nprocs) ]
       | None -> Json.null )
    :: (if f.fence <> None then [ ("ids", Flux_cmb.Collective.leaves_to_json f.leaves) ] else [])
    @ (if f.fid >= 0 then [ ("fid", Json.int f.fid) ] else [])
    @ [
        ("tuples", Json.list (List.map tuple_to_json f.tuples));
        ("objects", Json.list (List.map obj_to_json f.objects));
      ])

let flush_of_json j =
  {
    fence =
      (match Json.member "fence" j with
      | Json.Null -> None
      | fj ->
        Some
          ( Json.to_string_v (Json.member "name" fj),
            Json.to_int (Json.member "nprocs" fj) ));
    leaves =
      (match Json.member_opt "ids" j with
      | Some ids -> Flux_cmb.Collective.leaves_of_json ids
      | None -> []);
    fid = (match Json.member_opt "fid" j with Some f -> Json.to_int f | None -> -1);
    tuples = List.map tuple_of_json (Json.to_list (Json.member "tuples" j));
    objects = List.map obj_of_json (Json.to_list (Json.member "objects" j));
  }

let tuples_to_json tuples = Json.list (List.map tuple_to_json tuples)
let tuples_of_json j = List.map tuple_of_json (Json.to_list j)

let put_reply sha = Json.obj [ ("s", Json.string (Sha1.to_hex sha)) ]
let put_reply_sha j = Sha1.of_hex (Json.to_string_v (Json.member "s" j))

type root_info = {
  ri_epoch : int;
  ri_master : int;
  ri_version : int;
  ri_root : Sha1.digest;
}

let root_info_fields ri =
  [
    ("version", Json.int ri.ri_version);
    ("rootref", Json.string (Sha1.to_hex ri.ri_root));
    ("epoch", Json.int ri.ri_epoch);
    ("master", Json.int ri.ri_master);
  ]

let root_info_to_json ri = Json.obj (root_info_fields ri)

let root_info_of_json j =
  {
    ri_version = Json.to_int (Json.member "version" j);
    ri_root = Sha1.of_hex (Json.to_string_v (Json.member "rootref" j));
    (* Pre-failover peers omit epoch/master: default to the first epoch
       with the conventional rank-0 master. *)
    ri_epoch = (match Json.member_opt "epoch" j with Some e -> Json.to_int e | None -> 0);
    ri_master = (match Json.member_opt "master" j with Some m -> Json.to_int m | None -> 0);
  }

let setroot_to_json ri ~objects =
  Json.obj
    (root_info_fields ri
    @
    if objects = [] then []
    else [ ("objects", Json.list (List.map obj_to_json objects)) ])

let setroot_of_json j =
  ( root_info_of_json j,
    match Json.member_opt "objects" j with
    | Some oj -> List.map obj_of_json (Json.to_list oj)
    | None -> [] )

(* --- Cross-shard fence (two-phase epoch-merge) ----------------------- *)

(* Phase 1: a shard master froze its proposed root for a named
   cross-shard fence and announces it to the coordinator plane. *)
type prepare = { px_name : string; px_vol : int; px_ri : root_info }

let prepare_to_json p =
  Json.obj
    (("name", Json.string p.px_name) :: ("vol", Json.int p.px_vol)
    :: root_info_fields p.px_ri)

let prepare_of_json j =
  {
    px_name = Json.to_string_v (Json.member "name" j);
    px_vol = Json.to_int (Json.member "vol" j);
    px_ri = root_info_of_json j;
  }

(* Phase 2's merged record: the N shard roots published under one
   cross-shard fence epoch — the atomic cut observers reason about. *)
type composite = { cx_name : string; cx_epoch : int; cx_roots : root_info array }

let composite_to_json c =
  Json.obj
    [
      ("name", Json.string c.cx_name);
      ("xepoch", Json.int c.cx_epoch);
      ( "roots",
        Json.list (Array.to_list (Array.map root_info_to_json c.cx_roots)) );
    ]

let composite_of_json j =
  {
    cx_name = Json.to_string_v (Json.member "name" j);
    cx_epoch = Json.to_int (Json.member "xepoch" j);
    cx_roots =
      Array.of_list (List.map root_info_of_json (Json.to_list (Json.member "roots" j)));
  }

let load_request sha = Json.obj [ ("s", Json.string (Sha1.to_hex sha)) ]
let load_request_sha j = Sha1.of_hex (Json.to_string_v (Json.member "s" j))
let load_reply v = Json.obj [ ("v", v) ]
let load_reply_value j = Json.member "v" j

let commit_reply = root_info_to_json
let commit_reply_decode = root_info_of_json
