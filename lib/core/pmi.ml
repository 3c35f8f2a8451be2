module Json = Flux_json.Json
module Client = Flux_kvs.Client
module Api = Flux_cmb.Api
module Barrier = Flux_modules.Barrier

type t = {
  kvs : Client.t;
  api : Api.t;
  jobid : string;
  p_rank : int;
  p_size : int;
  mutable epoch : int; (* distinguishes successive exchanges *)
}

let init sess ~jobid ~rank ~node ~size =
  {
    kvs = Client.connect sess ~rank:node;
    api = Api.connect sess ~rank:node;
    jobid;
    p_rank = rank;
    p_size = size;
    epoch = 0;
  }

let key_for t ~rank key = Printf.sprintf "pmi.%s.r%d.%s" t.jobid rank key

let put t ~key value =
  Client.put t.kvs ~key:(key_for t ~rank:t.p_rank key) (Json.string value)

let exchange t =
  t.epoch <- t.epoch + 1;
  match
    Client.fence t.kvs
      ~name:(Printf.sprintf "pmi-%s-x%d" t.jobid t.epoch)
      ~nprocs:t.p_size
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let get t ~from_rank ~key =
  match Client.get t.kvs ~key:(key_for t ~rank:from_rank key) with
  | Ok (Json.String s) -> Ok s
  | Ok _ -> Error "pmi value is not a string"
  | Error e -> Error e

let finalize t =
  Barrier.enter t.api ~name:(Printf.sprintf "pmi-%s-fini" t.jobid) ~nprocs:t.p_size
