module Json = Flux_json.Json
open Cmdliner

type row = (string * Json.t) list
type sweep = { doc : Json.t; violations : string list; host : string list }

type t = {
  name : string;
  title : string;
  sweep : fast:bool -> sweep;
  cli : string list Term.t;
}

let report_file ~fast h =
  Printf.sprintf "BENCH_%s%s.json" (String.uppercase_ascii h.name) (if fast then ".fast" else "")

let rec without host = function
  | Json.Obj members ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if List.mem k host then None else Some (k, without host v))
         members)
  | Json.List vs -> Json.List (List.map (without host) vs)
  | v -> v

let fingerprint s = Digest.to_hex (Digest.string (Json.to_string (without s.host s.doc)))

let run ~fast h =
  Printf.printf "\n=== %s: %s ===\n%!" h.name h.title;
  let s = h.sweep ~fast in
  List.iter (fun v -> Printf.printf "  violation: %s\n%!" v) s.violations;
  let file = report_file ~fast h in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Json.to_string s.doc);
      Out_channel.output_char oc '\n');
  Printf.printf "  wrote %s; %d violations\nfingerprint %s %s\n%!" file
    (List.length s.violations) h.name (fingerprint s);
  List.length s.violations

let cmd h =
  let exits = Cmd.Exit.info 1 ~doc:"when the run reports a violation." :: Cmd.Exit.defaults in
  let exit_code violations =
    List.iter (Printf.printf "violation: %s\n") violations;
    if violations = [] then Cmd.Exit.ok else 1
  in
  Cmd.v (Cmd.info h.name ~doc:h.title ~exits) (Term.map exit_code h.cli)

let tier ~fast = Json.string (if fast then "fast" else "paper-scale")

let cell = function
  | Json.Int i -> Some (string_of_int i)
  | Json.Float f -> Some (Printf.sprintf "%.6g" f)
  | Json.String s -> Some s
  | Json.Bool b -> Some (string_of_bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let print_table rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    let cols = List.filter_map (fun (k, v) -> Option.map (fun _ -> k) (cell v)) first in
    let text row k =
      Option.value ~default:"-" (Option.bind (List.assoc_opt k row) cell)
    in
    let width k =
      List.fold_left (fun w row -> max w (String.length (text row k))) (String.length k) rows
    in
    let widths = List.map width cols in
    let line cells =
      print_string " ";
      List.iter2 (fun w c -> Printf.printf " %*s" w c) widths cells;
      print_newline ()
    in
    line cols;
    List.iter (fun row -> line (List.map (text row) cols)) rows;
    flush stdout

let print_row row = print_endline (Json.to_string (Json.obj row))
let pick names row = List.map (fun k -> (k, List.assoc k row)) names
let check ok msg = if ok then [] else [ msg ]
let labelled label = List.map (fun v -> label ^ ": " ^ v)

let require checks =
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | None -> Ok ()
  | Some (_, msg) -> Error msg

let validated result k =
  match result with Ok () -> `Ok (k ()) | Error e -> `Error (true, e)

let opt c names ~docv ~doc v = Arg.(value & opt c v & info names ~docv ~doc)
let nodes = opt Arg.int [ "N"; "nodes" ] ~docv:"NODES" ~doc:"Cluster size in nodes."
let fanout = opt Arg.int [ "k"; "fanout" ] ~docv:"K" ~doc:"CMB tree fan-out."
let seed ~doc = opt Arg.int [ "seed" ] ~docv:"SEED" ~doc

let once run row violations =
  Term.(
    const (fun () ->
        let r = run () in
        print_row (row r);
        violations r)
    $ const ())
