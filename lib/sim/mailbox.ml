type overflow = Block | Drop_newest | Drop_oldest

type 'a t = {
  msgs : 'a Queue.t;
  waiters : 'a Ivar.t Queue.t;
  (* Bounds; [max_int] everywhere means the historical unbounded FIFO. *)
  capacity : int;
  max_bytes : int;
  policy : overflow;
  size_of : ('a -> int) option;
  (* [Block]-policy values held back until space frees; the sender is
     never suspended. *)
  senders : 'a Queue.t;
  mutable bytes : int;
  mutable hwm : int;
  mutable hwm_bytes : int;
  mutable dropped : int;
}

let create ?(capacity = max_int) ?(max_bytes = max_int) ?(policy = Block) ?size_of () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  if max_bytes < 1 then invalid_arg "Mailbox.create: max_bytes < 1";
  {
    msgs = Queue.create ();
    waiters = Queue.create ();
    capacity;
    max_bytes;
    policy;
    size_of;
    senders = Queue.create ();
    bytes = 0;
    hwm = 0;
    hwm_bytes = 0;
    dropped = 0;
  }

let size_of mb v = match mb.size_of with None -> 0 | Some f -> f v

let note_depth mb =
  let n = Queue.length mb.msgs in
  if n > mb.hwm then mb.hwm <- n;
  if mb.bytes > mb.hwm_bytes then mb.hwm_bytes <- mb.bytes

let note_drop mb = mb.dropped <- mb.dropped + 1

let fits mb extra = Queue.length mb.msgs < mb.capacity && mb.bytes + extra <= mb.max_bytes

let enqueue mb v =
  Queue.add v mb.msgs;
  mb.bytes <- mb.bytes + size_of mb v;
  note_depth mb

let dequeue mb =
  match Queue.take_opt mb.msgs with
  | None -> None
  | Some v ->
    mb.bytes <- mb.bytes - size_of mb v;
    Some v

(* After a receive frees space, admit parked senders in arrival order,
   stopping at the first whose value no longer fits (FIFO fairness over
   throughput). *)
let drain_senders mb =
  let rec go () =
    match Queue.peek_opt mb.senders with
    | Some v when fits mb (size_of mb v) ->
      ignore (Queue.take mb.senders : 'a);
      enqueue mb v;
      go ()
    | _ -> ()
  in
  go ()

let send eng mb v =
  match Queue.take_opt mb.waiters with
  | Some iv -> Ivar.fill eng iv v
  | None ->
    if fits mb (size_of mb v) then enqueue mb v
    else begin
      match mb.policy with
      | Drop_newest -> note_drop mb
      | Drop_oldest ->
        let sz = size_of mb v in
        while (not (fits mb sz)) && not (Queue.is_empty mb.msgs) do
          ignore (dequeue mb : 'a option);
          note_drop mb
        done;
        if fits mb sz then enqueue mb v else note_drop mb
      | Block -> Queue.add v mb.senders
    end

let recv mb =
  match dequeue mb with
  | Some v ->
    drain_senders mb;
    v
  | None ->
    let iv = Ivar.create () in
    Queue.add iv mb.waiters;
    Proc.await iv

let try_recv mb =
  match dequeue mb with
  | Some v ->
    drain_senders mb;
    Some v
  | None -> None

let length mb = Queue.length mb.msgs
let bytes mb = mb.bytes
let blocked_senders mb = Queue.length mb.senders
let hwm mb = mb.hwm
let hwm_bytes mb = mb.hwm_bytes
let dropped mb = mb.dropped
