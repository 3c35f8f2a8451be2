let check_k k = if k < 2 then invalid_arg "Treemath: fan-out must be >= 2"

let parent ~k rank =
  check_k k;
  if rank < 0 then invalid_arg "Treemath.parent: negative rank";
  if rank = 0 then None else Some ((rank - 1) / k)

let children ~k ~size rank =
  check_k k;
  let rec go i acc =
    if i < 0 then acc
    else
      let c = (rank * k) + 1 + i in
      if c < size then go (i - 1) (c :: acc) else go (i - 1) acc
  in
  go (k - 1) []

let rec depth ~k rank =
  match parent ~k rank with None -> 0 | Some p -> 1 + depth ~k p

let ancestors ~k rank =
  let rec go r acc =
    match parent ~k r with None -> List.rev acc | Some p -> go p (p :: acc)
  in
  go rank []

let tree_height ~k ~size =
  if size <= 0 then 0 else depth ~k (size - 1)

let on_path ~k ~ancestor rank =
  rank = ancestor || List.mem ancestor (ancestors ~k rank)

let ring_next ~size rank =
  if size <= 0 then invalid_arg "Treemath.ring_next: empty ring";
  (rank + 1) mod size
