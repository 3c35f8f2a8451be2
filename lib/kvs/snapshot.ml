(* Durable serialized form of the content-addressed object store
   reachable from one root hash (plus, for a sharded namespace, the
   cross-shard composite record naming every volume's frozen root).

   The format is deliberately dumb and line-oriented — one header, one
   object per line, one trailing whole-store checksum — because the
   interesting property is not compactness but *checkability*: every
   object re-hashes to its recorded id on decode, the object count
   detects truncation, and the trailer checksum catches any single
   flipped byte the structural checks let through (say, inside the
   header's version field). Decode never raises; a damaged store comes
   back as a structured {!error}. *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1
module Api = Flux_cmb.Api

type error =
  | Malformed of string  (** framing/JSON damage: the store cannot be parsed *)
  | Truncated of { expected : int; got : int }
      (** fewer objects (or no trailer) than the header promised *)
  | Corrupt_object of { recorded : string; actual : string }
      (** an object no longer re-hashes to its recorded id *)
  | Checksum_mismatch of { recorded : string; actual : string }
      (** the whole-store trailer checksum disagrees with the bytes *)
  | Missing_root of string
      (** the root (or a composite member root) is not among the objects *)

let error_to_string = function
  | Malformed m -> Printf.sprintf "snapshot malformed: %s" m
  | Truncated { expected; got } ->
    Printf.sprintf "snapshot truncated: header promises %d objects, found %d" expected got
  | Corrupt_object { recorded; actual } ->
    Printf.sprintf "snapshot object corrupt: recorded id %s, content hashes to %s" recorded
      actual
  | Checksum_mismatch { recorded; actual } ->
    Printf.sprintf "snapshot checksum mismatch: trailer %s, bytes hash to %s" recorded actual
  | Missing_root h -> Printf.sprintf "snapshot root %s not present in object set" h

type t = {
  s_service : string;
  s_root : Sha1.digest;
  s_version : int;
  s_epoch : int;
  s_composite : Proto.composite option;
      (** sharded stores: the per-volume roots of the atomic cut *)
  s_objects : (string * Json.t) list;  (** (sha-hex, value), walk order, deduplicated *)
}

let objects_bytes t =
  List.fold_left (fun acc (_, v) -> acc + Json.serialized_size v) 0 t.s_objects

(* --- Integrity ----------------------------------------------------------- *)

let roots_of t =
  let base = [ Sha1.to_hex t.s_root ] in
  match t.s_composite with
  | None -> base
  | Some cx ->
    Array.fold_left
      (fun acc (ri : Proto.root_info) -> Sha1.to_hex ri.Proto.ri_root :: acc)
      base cx.Proto.cx_roots

(* Every object must re-hash to its recorded id, and every root the
   snapshot names must be resolvable (present, or the well-known empty
   directory). This is what makes restore trustworthy: a store that
   passes [verify] is bit-for-bit the tree the root hash names. *)
let verify t =
  let bad =
    List.find_map
      (fun (h, v) ->
        let actual = Sha1.to_hex (Sha1.digest_json v) in
        if String.equal actual h then None
        else Some (Corrupt_object { recorded = h; actual }))
      t.s_objects
  in
  match bad with
  | Some e -> Error e
  | None ->
    let empty = Sha1.to_hex Tree.empty_dir_sha in
    let present h =
      String.equal h empty || List.exists (fun (oh, _) -> String.equal oh h) t.s_objects
    in
    (match List.find_opt (fun h -> not (present h)) (roots_of t) with
    | Some h -> Error (Missing_root h)
    | None -> Ok ())

(* --- Encode -------------------------------------------------------------- *)

let magic = "fluxsnap"
let format_version = 1

let encode t =
  let buf = Buffer.create (256 + (objects_bytes t * 2)) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %s %s %d %d %d\n" magic format_version t.s_service
       (Sha1.to_hex t.s_root) t.s_version t.s_epoch
       (List.length t.s_objects));
  (match t.s_composite with
  | Some cx ->
    Buffer.add_string buf
      (Printf.sprintf "composite %s\n" (Json.to_string (Proto.composite_to_json cx)))
  | None -> ());
  List.iter
    (fun (h, v) -> Buffer.add_string buf (Printf.sprintf "obj %s %s\n" h (Json.to_string v)))
    t.s_objects;
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "end %s\n" (Sha1.to_hex (Sha1.digest_string body))

(* --- Decode -------------------------------------------------------------- *)

let sha_hex_len = String.length (Sha1.to_hex Tree.empty_dir_sha)

let parse_obj_line line =
  (* "obj <40-hex> <json>" *)
  let prefix = "obj " in
  let plen = String.length prefix in
  if
    String.length line < plen + sha_hex_len + 2
    || not (String.equal (String.sub line 0 plen) prefix)
    || line.[plen + sha_hex_len] <> ' '
  then Error (Malformed (Printf.sprintf "bad object line %S" (String.sub line 0 (min 40 (String.length line)))))
  else
    let h = String.sub line plen sha_hex_len in
    let js = String.sub line (plen + sha_hex_len + 1) (String.length line - plen - sha_hex_len - 1) in
    match Json.of_string_opt js with
    | Some v -> Ok (h, v)
    | None -> Error (Malformed (Printf.sprintf "unparseable object value for %s" h))

let decode s =
  let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e in
  let lines = String.split_on_char '\n' s in
  (* [encode] ends every line with '\n', so a well-formed store splits
     into its lines plus one trailing "". *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  match lines with
  | [] -> Error (Malformed "empty store")
  | header :: rest ->
    let* service, root, version, epoch, count =
      match String.split_on_char ' ' header with
      | [ m; fv; service; root_hex; version; epoch; count ]
        when String.equal m magic && String.equal fv (string_of_int format_version) -> (
        match
          ( Sha1.of_hex root_hex,
            int_of_string_opt version,
            int_of_string_opt epoch,
            int_of_string_opt count )
        with
        | root, Some version, Some epoch, Some count when count >= 0 ->
          Ok (service, root, version, epoch, count)
        | _ -> Error (Malformed "unparseable header fields")
        | exception Invalid_argument _ -> Error (Malformed "unparseable header fields"))
      | m :: _ when not (String.equal m magic) -> Error (Malformed "not a flux snapshot")
      | _ -> Error (Malformed "bad header shape")
    in
    let* composite, rest =
      match rest with
      | line :: more
        when String.length line > 10 && String.equal (String.sub line 0 10) "composite " -> (
        match Json.of_string_opt (String.sub line 10 (String.length line - 10)) with
        | Some j -> (
          match Proto.composite_of_json j with
          | cx -> Ok (Some cx, more)
          | exception (Json.Type_error _ | Invalid_argument _) ->
            Error (Malformed "unparseable composite record"))
        | None -> Error (Malformed "unparseable composite record"))
      | _ -> Ok (None, rest)
    in
    let rec take_objs acc n = function
      | rest when n = 0 -> Ok (List.rev acc, rest)
      | [] -> Error (Truncated { expected = count; got = count - n })
      | line :: _ when String.length line >= 4 && String.equal (String.sub line 0 4) "end " ->
        Error (Truncated { expected = count; got = count - n })
      | line :: more ->
        let* o = parse_obj_line line in
        take_objs (o :: acc) (n - 1) more
    in
    let* objects, rest = take_objs [] count rest in
    let* () =
      match rest with
      | [ trailer ] when String.length trailer = 4 + sha_hex_len
                         && String.equal (String.sub trailer 0 4) "end " ->
        let recorded = String.sub trailer 4 sha_hex_len in
        (* The checksummed region is every byte up to the trailer line:
           [encode] wrote lines joined by '\n' with a final '\n', so the
           reconstruction below is byte-identical to what it hashed. *)
        let nbody = 1 + count + (match composite with Some _ -> 1 | None -> 0) in
        let body_lines = List.filteri (fun i _ -> i < nbody) lines in
        let body = String.concat "\n" body_lines ^ "\n" in
        let actual = Sha1.to_hex (Sha1.digest_string body) in
        if String.equal recorded actual then Ok ()
        else Error (Checksum_mismatch { recorded; actual })
      | [] -> Error (Truncated { expected = count + 1; got = count })
      | _ -> Error (Malformed "trailing garbage after end record")
    in
    let t = { s_service = service; s_root = root; s_version = version; s_epoch = epoch;
              s_composite = composite; s_objects = objects }
    in
    let* () = verify t in
    Ok t

(* --- Client-side capture -------------------------------------------------- *)

(* Walk the store from the current root over ordinary client RPCs:
   [getroot] pins an (epoch, version, root) triple, then iterative
   idempotent [load]s fetch every reachable object. Because objects are
   immutable and content-addressed, the walk is consistent *at the
   pinned root* even if commits land — or the master fails over —
   while it runs: that is the git-store property the paper leans on,
   and exactly what the master-death-mid-snapshot chaos schedule
   exercises. Runs inside a {!Flux_sim.Proc} body. *)
let capture sess ~rank =
  let api = Api.connect sess ~rank in
  match Api.rpc api ~idempotent:true ~timeout:30.0 ~topic:"kvs.getroot" Json.null with
  | Error e -> Error e
  | Ok reply ->
    let ri = Proto.commit_reply_decode reply in
    let seen = Hashtbl.create 256 in
    let objects = ref [] in
    let fetch sha =
      let h = Sha1.to_hex sha in
      match Hashtbl.find_opt seen h with
      | Some v -> Ok v
      | None -> (
        match
          Api.rpc api ~idempotent:true ~timeout:30.0 ~topic:"kvs.load"
            (Proto.load_request sha)
        with
        | Error e -> Error e
        | Ok payload ->
          let v = Proto.load_reply_value payload in
          Hashtbl.replace seen h v;
          objects := (h, v) :: !objects;
          Ok v)
    in
    let rec walk_dir sha =
      let first_visit = not (Hashtbl.mem seen (Sha1.to_hex sha)) in
      match fetch sha with
      | Error e -> Error e
      | Ok dir when first_visit ->
        let rec entries = function
          | [] -> Ok ()
          | (_, ent) :: more -> (
            let sub =
              match Tree.dirent_ref ent with
              | `Dir s -> walk_dir s
              | `File s -> (match fetch s with Ok _ -> Ok () | Error e -> Error e)
              | `Val _ -> Ok ()
              | exception Json.Type_error m -> Error ("malformed dirent: " ^ m)
            in
            match sub with Ok () -> entries more | Error e -> Error e)
        in
        entries (Tree.dir_entries dir)
      | Ok _ -> Ok ()
    in
    (match walk_dir ri.Proto.ri_root with
    | Error e -> Error e
    | Ok () ->
      Ok
        {
          s_service = "kvs";
          s_root = ri.Proto.ri_root;
          s_version = ri.Proto.ri_version;
          s_epoch = ri.Proto.ri_epoch;
          s_composite = None;
          s_objects = List.rev !objects;
        })
