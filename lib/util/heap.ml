(* Slot [i] of the three arrays is one node of a binary min-heap ordered
   by (priority, insertion rank). Priorities and ranks sit in flat arrays
   and the sifts move a hole through loop-local variables, so comparing
   two nodes allocates nothing. [sift_down] reads the node it moves from
   its slot rather than taking its priority as an argument, which would
   box it. Values are stored as options so that a vacated slot holds
   [None] and keeps nothing reachable. *)
type 'a t = {
  mutable prio : float array;
  mutable rank : int array;
  mutable value : 'a option array;
  mutable size : int;
  mutable next_rank : int;
}

let min_capacity = 16

let create () =
  {
    prio = Array.make min_capacity 0.0;
    rank = Array.make min_capacity 0;
    value = Array.make min_capacity None;
    size = 0;
    next_rank = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

(* Storage follows occupancy: [push] doubles the arrays when they are
   full, and removal halves them once fewer than a quarter of their
   slots are live, so a queue that drained after a peak does not keep
   the peak's storage. *)
let resize h capacity =
  let prio = Array.make capacity 0.0
  and rank = Array.make capacity 0
  and value = Array.make capacity None in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.rank 0 rank 0 h.size;
  Array.blit h.value 0 value 0 h.size;
  h.prio <- prio;
  h.rank <- rank;
  h.value <- value

let shrink_to_fit h =
  let capacity = ref (Array.length h.prio) in
  while !capacity > min_capacity && h.size < !capacity / 4 do
    capacity := !capacity / 2
  done;
  if !capacity < Array.length h.prio then resize h !capacity

let sift_down h i =
  let prio = h.prio and rank = h.rank and value = h.value and n = h.size in
  let p = prio.(i) and r = rank.(i) and v = value.(i) in
  let hole = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        if l + 1 < n
           && (prio.(l + 1) < prio.(l) || (prio.(l + 1) = prio.(l) && rank.(l + 1) < rank.(l)))
        then l + 1
        else l
      in
      if prio.(c) < p || (prio.(c) = p && rank.(c) < r) then begin
        prio.(!hole) <- prio.(c);
        rank.(!hole) <- rank.(c);
        value.(!hole) <- value.(c);
        hole := c
      end
      else continue := false
    end
  done;
  prio.(!hole) <- p;
  rank.(!hole) <- r;
  value.(!hole) <- v

(* The new element's rank exceeds every rank in the heap, so a tie never
   moves it above its parent. *)
let push h p x =
  if h.size = Array.length h.prio then resize h (2 * h.size);
  let prio = h.prio and rank = h.rank and value = h.value in
  let hole = ref h.size in
  while !hole > 0 && p < prio.((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    prio.(!hole) <- prio.(parent);
    rank.(!hole) <- rank.(parent);
    value.(!hole) <- value.(parent);
    hole := parent
  done;
  prio.(!hole) <- p;
  rank.(!hole) <- h.next_rank;
  value.(!hole) <- Some x;
  h.next_rank <- h.next_rank + 1;
  h.size <- h.size + 1

let min_prio h =
  if h.size = 0 then invalid_arg "Heap.min_prio: empty heap";
  h.prio.(0)

(* Slot 0 holds [None] exactly when the heap is empty. *)
let min_value h =
  match h.value.(0) with
  | Some x -> x
  | None -> invalid_arg "Heap.min_value: empty heap"

let drop_min h =
  if h.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let last = h.size - 1 in
  h.prio.(0) <- h.prio.(last);
  h.rank.(0) <- h.rank.(last);
  h.value.(0) <- h.value.(last);
  h.value.(last) <- None;
  h.size <- last;
  if last > 0 then sift_down h 0;
  shrink_to_fit h

let clear h =
  h.size <- 0;
  resize h min_capacity

(* Survivors keep their original (priority, rank), and pop order is a
   pure function of (priority, rank), so an O(n) compact-and-heapify
   cannot be observed through the minimum. *)
let filter h keep =
  let j = ref 0 in
  for i = 0 to h.size - 1 do
    match h.value.(i) with
    | Some x when keep x ->
      h.prio.(!j) <- h.prio.(i);
      h.rank.(!j) <- h.rank.(i);
      h.value.(!j) <- h.value.(i);
      incr j
    | Some _ | None -> ()
  done;
  Array.fill h.value !j (h.size - !j) None;
  h.size <- !j;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done;
  shrink_to_fit h
