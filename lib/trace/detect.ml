module Json = Flux_json.Json

(* Pure anomaly detection over one rollup epoch (plus a short series
   window for trends). Everything here is a function from data to
   alerts — no clocks, no state — so detection is trivially
   deterministic and unit-testable against hand-built distributions. *)

type kind = Straggler | Queue_growth | Silent

type alert = {
  al_kind : kind;
  al_epoch : int;
  al_rank : int; (* -1 for center-level alerts (queue growth) *)
  al_metric : string;
  al_value : float; (* the offending observation *)
  al_threshold : float; (* the bound it crossed *)
  al_detail : string;
}

let kind_to_string = function
  | Straggler -> "straggler"
  | Queue_growth -> "queue_growth"
  | Silent -> "silent"

let alert_fields a =
  [
    ("kind", Json.string (kind_to_string a.al_kind));
    ("epoch", Json.int a.al_epoch);
    ("alert_rank", Json.int a.al_rank);
    ("metric", Json.string a.al_metric);
    ("value", Json.float a.al_value);
    ("threshold", Json.float a.al_threshold);
    ("detail", Json.string a.al_detail);
  ]

let pp_alert ppf a =
  Format.fprintf ppf "epoch %d %s %s rank=%d value=%.6g threshold=%.6g (%s)" a.al_epoch
    (kind_to_string a.al_kind) a.al_metric a.al_rank a.al_value a.al_threshold a.al_detail

(* --- Stragglers: k·MAD outliers over the cross-rank distribution ------- *)

let median sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* Median absolute deviation: robust to the very outliers we hunt —
   one straggler cannot inflate the spread estimate the way it would a
   standard deviation. *)
let mad ~center values =
  let devs = Array.map (fun v -> Float.abs (v -. center)) values in
  Array.sort compare devs;
  median devs

(* A rank straggles when its value exceeds median + k * MAD (one-sided:
   being fast is not an anomaly). Degenerate epochs where every rank
   agrees make MAD 0; a floor of 1% of |median| (at least 1 ns) keeps
   noise-level jitter from flagging the whole cluster. *)
let stragglers ~k ~epoch ~metric values =
  if List.length values < 3 then [] (* no meaningful distribution *)
  else begin
    let arr = Array.of_list (List.map snd values) in
    let sorted = Array.copy arr in
    Array.sort compare sorted;
    let med = median sorted in
    let spread = Float.max (Float.max 1e-9 (0.01 *. Float.abs med)) (mad ~center:med arr) in
    let threshold = med +. (k *. spread) in
    List.filter_map
      (fun (rank, v) ->
        if v > threshold then
          Some
            {
              al_kind = Straggler;
              al_epoch = epoch;
              al_rank = rank;
              al_metric = metric;
              al_value = v;
              al_threshold = threshold;
              al_detail =
                Printf.sprintf "%.6g > median %.6g + %.3g*MAD %.6g" v med k spread;
            }
        else None)
      (List.sort compare values)
  end

(* --- Queue growth: gauge slope over the last w epochs ------------------ *)

(* Least-squares slope in value-per-epoch of (epoch, value) points.
   Epochs need not be contiguous (a partial rollup skips epochs). *)
let trend_slope points =
  let n = List.length points in
  if n < 2 then 0.0
  else begin
    let nf = float_of_int n in
    let sx, sy =
      List.fold_left (fun (sx, sy) (e, v) -> (sx +. float_of_int e, sy +. v)) (0.0, 0.0) points
    in
    let mx = sx /. nf and my = sy /. nf in
    let num, den =
      List.fold_left
        (fun (num, den) (e, v) ->
          let dx = float_of_int e -. mx in
          (num +. (dx *. (v -. my)), den +. (dx *. dx)))
        (0.0, 0.0) points
    in
    if den = 0.0 then 0.0 else num /. den
  end

(* The shed *precursor*: a queue-depth gauge climbing steadily is the
   signal an elasticity controller acts on before admission control
   starts rejecting work. Fires when the slope over the window exceeds
   [slope_threshold] (units/epoch) over at least 3 observed epochs. *)
let queue_growth ~slope_threshold ~epoch ~metric points =
  if List.length points < 3 then []
  else begin
    let slope = trend_slope points in
    if slope > slope_threshold then
      [
        {
          al_kind = Queue_growth;
          al_epoch = epoch;
          al_rank = -1;
          al_metric = metric;
          al_value = slope;
          al_threshold = slope_threshold;
          al_detail =
            Printf.sprintf "slope %.6g/epoch over %d epochs" slope (List.length points);
        };
      ]
    else []
  end

(* --- Silent ranks: expected sample missing without a mark_down --------- *)

let silent_ranks ~epoch ~expected ~heard ~down =
  List.filter_map
    (fun r ->
      if List.mem r heard || List.mem r down then None
      else
        Some
          {
            al_kind = Silent;
            al_epoch = epoch;
            al_rank = r;
            al_metric = "telem.sample";
            al_value = 0.0;
            al_threshold = 1.0;
            al_detail = "expected rollup contribution missing and rank not marked down";
          })
    (List.sort compare expected)
