(* Storage grows by doubling up to [cap]: a session keeps one
   4096-entry event log per broker, and most of them stay nearly empty.
   Until the buffer first fills, [start] is 0. *)
type 'a t = {
  cap : int;
  mutable arr : 'a option array;
  mutable start : int; (* index of oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { cap = capacity; arr = [||]; start = 0; len = 0; dropped = 0 }

let capacity b = b.cap
let length b = b.len
let dropped b = b.dropped

let push b x =
  if b.len < b.cap then begin
    if b.len = Array.length b.arr then begin
      let arr = Array.make (min b.cap (max 16 (2 * b.len))) None in
      Array.blit b.arr 0 arr 0 b.len;
      b.arr <- arr
    end;
    b.arr.(b.len) <- Some x;
    b.len <- b.len + 1
  end
  else begin
    b.arr.(b.start) <- Some x;
    b.start <- (b.start + 1) mod b.cap;
    b.dropped <- b.dropped + 1
  end

let to_list b =
  let rec go i acc =
    if i < 0 then acc
    else
      match b.arr.((b.start + i) mod b.cap) with
      | Some x -> go (i - 1) (x :: acc)
      | None -> go (i - 1) acc
  in
  go (b.len - 1) []

let clear b =
  b.arr <- [||];
  b.start <- 0;
  b.len <- 0
