type t = { prefix : string; mutable counter : int }

let create ?(prefix = "") () = { prefix; counter = 0 }

let next_int t =
  let n = t.counter in
  t.counter <- n + 1;
  n

let next t = t.prefix ^ string_of_int (next_int t)

