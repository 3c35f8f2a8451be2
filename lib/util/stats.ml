type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* memoized sort, invalidated by add *)
  mutable n : int;
  mutable mean_acc : float; (* Welford running mean *)
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    samples = [];
    sorted = None;
    n = 0;
    mean_acc = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.n <- t.n + 1;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.n);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean_acc

let min t =
  if t.n = 0 then invalid_arg "Stats.min: no samples";
  t.min_v

let max t =
  if t.n = 0 then invalid_arg "Stats.max: no samples";
  t.max_v

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted t in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Stdlib.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end
