module Json = Flux_json.Json

type sweep = { doc : Json.t; violations : string list }
type t = { name : string; title : string; sweep : fast:bool -> sweep }

let report_file h = Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii h.name)

let run ~fast h =
  Printf.printf "\n=== %s: %s ===\n%!" h.name h.title;
  let { doc; violations } = h.sweep ~fast in
  List.iter (fun v -> Printf.printf "  violation: %s\n%!" v) violations;
  let file = report_file h in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "  wrote %s; %d violations\n%!" file (List.length violations);
  List.length violations

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

let check ok msg = if ok then [] else [ msg ]
let labelled label = List.map (fun v -> label ^ ": " ^ v)
