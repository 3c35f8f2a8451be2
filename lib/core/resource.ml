type rtype =
  | Center
  | Cluster
  | Rack
  | Node
  | Socket
  | Core
  | Memory
  | Power
  | Filesystem
  | Bandwidth
  | Custom of string

type t = {
  id : int;
  name : string;
  rtype : rtype;
  quantity : float;
  children : t list;
}

let rtype_to_string = function
  | Center -> "center"
  | Cluster -> "cluster"
  | Rack -> "rack"
  | Node -> "node"
  | Socket -> "socket"
  | Core -> "core"
  | Memory -> "memory"
  | Power -> "power"
  | Filesystem -> "filesystem"
  | Bandwidth -> "bandwidth"
  | Custom s -> "custom:" ^ s

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let leaf ?(quantity = 1.0) ~name rtype =
  { id = fresh_id (); name; rtype; quantity; children = [] }

let composite ~name rtype children =
  { id = fresh_id (); name; rtype; quantity = 1.0; children }

(* A compute node: 2 sockets x 8 cores and 32 GB, the Zin/Cab nodes of
   the paper. *)
let node ~name =
  let socket i =
    composite ~name:(Printf.sprintf "%s.s%d" name i) Socket
      (List.init 8 (fun c -> leaf ~name:(Printf.sprintf "%s.s%d.c%d" name i c) Core))
  in
  composite ~name Node (List.init 2 socket @ [ leaf ~quantity:32.0 ~name:(name ^ ".mem") Memory ])

let nodes_per_rack = 32

let cluster ?(power_watts = 0.0) ~nnodes ~name () =
  let nracks = (nnodes + nodes_per_rack - 1) / nodes_per_rack in
  let racks =
    List.init nracks (fun r ->
        let in_rack = min nodes_per_rack (nnodes - (r * nodes_per_rack)) in
        let nodes =
          List.init in_rack (fun i ->
              node ~name:(Printf.sprintf "%s%d" name ((r * nodes_per_rack) + i)))
        in
        composite ~name:(Printf.sprintf "%s-rack%d" name r) Rack nodes)
  in
  let extras =
    if power_watts > 0.0 then [ leaf ~quantity:power_watts ~name:(name ^ ".power") Power ]
    else []
  in
  composite ~name Cluster (racks @ extras)

let filesystem ?(bandwidth_gbs = 100.0) ~name () =
  composite ~name Filesystem
    [ leaf ~quantity:bandwidth_gbs ~name:(name ^ ".bw") Bandwidth ]

(* Renumber ids so that trees assembled from separately built pieces
   stay unique. *)
let renumber t =
  let counter = ref 0 in
  let rec go t =
    incr counter;
    let id = !counter in
    let children = List.map go t.children in
    { t with id; children }
  in
  go t

let center ~name children = renumber (composite ~name Center children)

let rec fold f acc t = List.fold_left (fold f) (f acc t) t.children

let count rt t = fold (fun acc v -> if v.rtype = rt then acc + 1 else acc) 0 t

let total_quantity rt t =
  fold (fun acc v -> if v.rtype = rt then acc +. v.quantity else acc) 0.0 t

let rec pp_indent ppf ~indent t =
  Format.fprintf ppf "%s%s[%s]" (String.make indent ' ') t.name (rtype_to_string t.rtype);
  if t.quantity <> 1.0 then Format.fprintf ppf " x%g" t.quantity;
  Format.pp_print_newline ppf ();
  List.iter (pp_indent ppf ~indent:(indent + 2)) t.children

let pp ppf t = pp_indent ppf ~indent:0 t
