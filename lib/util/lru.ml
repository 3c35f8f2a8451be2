(* Doubly-linked list threaded through a hashtable: O(1) find/put/evict.
   Each node carries its own [Some] cell, and every link to it reuses
   that cell, so relinking a node allocates nothing. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  self : 'a node option; (* [Some] of this node *)
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
  mutable on_evict : (string -> 'a -> unit) option;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    on_evict = None;
  }

let set_on_evict c f = c.on_evict <- Some f

let notify_evict c k v =
  match c.on_evict with Some f -> f k v | None -> ()

let length c = Hashtbl.length c.table

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  node.prev <- None;
  (match c.head with Some h -> h.prev <- node.self | None -> c.tail <- node.self);
  c.head <- node.self

let mem c k = Hashtbl.mem c.table k

let find c k =
  match Hashtbl.find c.table k with
  | exception Not_found -> None
  | node ->
    if c.head != node.self then begin
      unlink c node;
      push_front c node
    end;
    Some node.value

let evict_lru c =
  match c.tail with
  | None -> ()
  | Some node ->
    unlink c node;
    Hashtbl.remove c.table node.key;
    notify_evict c node.key node.value

let put c k v =
  (match Hashtbl.find_opt c.table k with
  | Some node ->
    node.value <- v;
    unlink c node;
    push_front c node
  | None ->
    let rec node = { key = k; value = v; prev = None; next = None; self = Some node } in
    Hashtbl.replace c.table k node;
    push_front c node);
  while Hashtbl.length c.table > c.capacity do
    evict_lru c
  done

let clear c =
  Hashtbl.reset c.table;
  c.head <- None;
  c.tail <- None

let iter f c =
  let rec go = function
    | None -> ()
    | Some node ->
      f node.key node.value;
      go node.next
  in
  go c.head
