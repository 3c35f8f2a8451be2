module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1

let empty_dir = Json.obj []
let empty_dir_sha = Sha1.digest_json empty_dir

let dirent_file sha = Json.obj [ ("f", Json.string (Sha1.to_hex sha)) ]
let dirent_dir sha = Json.obj [ ("d", Json.string (Sha1.to_hex sha)) ]
let dirent_val v = Json.obj [ ("v", v) ]

let dirent_ref entry =
  match Json.to_obj entry with
  | [ ("f", Json.String s) ] -> `File (Sha1.of_hex s)
  | [ ("d", Json.String s) ] -> `Dir (Sha1.of_hex s)
  | [ ("v", v) ] -> `Val v
  | _ -> raise (Json.Type_error "malformed directory entry")

let dir_entries = Json.to_obj

(* A component boundary (the start, or a dot) may not be followed by
   another one, nor end the key. Top level, so a check allocates no
   closure. *)
let rec valid_from key i boundary =
  if i = String.length key then not boundary
  else
    let dot = String.unsafe_get key i = '.' in
    (not (dot && boundary)) && valid_from key (i + 1) dot

let valid_key key = valid_from key 0 true

let split_key key =
  if not (valid_key key) then invalid_arg (Printf.sprintf "Tree.split_key: invalid key %S" key);
  String.split_on_char '.' key

type lookup_result = Found of Json.t | No_key | Need of Sha1.digest

let lookup ~fetch ~root ~key () =
  let comps = split_key key in
  let rec walk dir_sha = function
    | [] -> No_key (* key named a directory, not a value *)
    | name :: rest -> (
      match fetch dir_sha with
      | None -> Need dir_sha
      | Some dir -> (
        match Json.member_opt name dir with
        | None -> No_key
        | Some entry -> (
          match dirent_ref entry with
          | `Val v -> if rest <> [] then No_key else Found v
          | `File vsha ->
            if rest <> [] then No_key
            else (
              match fetch vsha with None -> Need vsha | Some v -> Found v)
          | `Dir dsha -> if rest = [] then No_key else walk dsha rest)))
  in
  walk root comps

(* Update: group tuples into a trie of path components, then rebuild the
   affected directory spine bottom-up. *)

type trie = { mutable leaves : (string * Json.t) list; subs : (string, trie) Hashtbl.t }

let trie_create () = { leaves = []; subs = Hashtbl.create 8 }

let rec trie_add t comps dirent =
  match comps with
  | [] -> invalid_arg "Tree.apply_tuples: empty path"
  | [ name ] -> t.leaves <- (name, dirent) :: t.leaves
  | name :: rest ->
    let sub =
      match Hashtbl.find_opt t.subs name with
      | Some s -> s
      | None ->
        let s = trie_create () in
        Hashtbl.replace t.subs name s;
        s
    in
    trie_add sub rest dirent

(* The entry named [name] in a sorted directory listing. *)
let rec find_sorted name = function
  | [] -> None
  | (k, entry) :: rest ->
    let c = String.compare k name in
    if c < 0 then find_sorted name rest else if c = 0 then Some entry else None

(* Merge sorted, unique [updates] into a sorted, unique listing; an
   update replaces the entry of the same name. The listing's pairs are
   reused, and so is its whole tail past the last update. *)
let rec merge entries updates =
  match (entries, updates) with
  | _, [] -> entries
  | [], _ -> updates
  | ((k, _) as entry) :: entries', ((u, _) as update) :: updates' ->
    let c = String.compare k u in
    if c < 0 then entry :: merge entries' updates
    else update :: merge (if c = 0 then entries' else entries) updates'

(* Keep the first binding of each run of equal names. *)
let rec first_of_runs = function
  | ((k, _) as x) :: (k', _) :: rest when String.equal k k' -> first_of_runs (x :: rest)
  | x :: rest -> x :: first_of_runs rest
  | [] -> []

exception Missing_dir of Sha1.digest

let apply_tuples ~fetch ~store ~root tuples =
  let trie = trie_create () in
  List.iter (fun (key, dirent) -> trie_add trie (split_key key) dirent) tuples;
  let fetch_dir sha = match fetch sha with Some d -> d | None -> raise (Missing_dir sha) in
  let rec rebuild dir_sha trie =
    let entries = dir_entries (fetch_dir dir_sha) in
    (* Subdirectories are rebuilt, and their objects stored, in the
       table's iteration order: that order is part of what the store
       observes. *)
    let subs = ref [] in
    Hashtbl.iter
      (fun name sub ->
        let sub_sha =
          match find_sorted name entries with
          | Some entry -> (
            match dirent_ref entry with
            | `Dir dsha -> dsha
            | `File _ | `Val _ -> empty_dir_sha (* value overwritten by a directory *))
          | None -> empty_dir_sha
        in
        (* Ensure the empty dir is present in the store before descending. *)
        if Sha1.equal sub_sha empty_dir_sha then ignore (store empty_dir : Sha1.digest);
        subs := (name, dirent_dir (rebuild sub_sha sub)) :: !subs)
      trie.subs;
    (* A value binding wins over an implicit directory creation within the
       same batch, and a later tuple over an earlier one: leaves are
       newest first, so after a stable sort of leaves-then-subdirectories
       the winner heads each run of equal names. *)
    let updates =
      first_of_runs
        (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (trie.leaves @ !subs))
    in
    store (Json.obj (merge entries updates))
  in
  rebuild root trie
