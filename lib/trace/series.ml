module Ring_buffer = Flux_util.Ring_buffer

(* Center-level time series: the root of the telemetry plane folds each
   completed rollup epoch (a merged cross-rank Metrics.snap) into one
   bounded ring per metric name. Per-rank detail is deliberately not
   retained here — the series is the "flux top" view; detectors run on
   the full snap before it is summarized away. *)

type gauge_point = { gp_min : float; gp_max : float; gp_sum : float; gp_n : int }

type point =
  | P_counter of int (* per-epoch delta, summed across ranks *)
  | P_gauge of gauge_point (* rollup of per-rank last-values *)
  | P_hist of Metrics.summary (* bucket-merged across ranks *)

type t = {
  window : int;
  series : (string, (int * point) Ring_buffer.t) Hashtbl.t;
  mutable last_epoch : int;
}

let create ?(window = 256) () =
  if window <= 0 then invalid_arg "Series.create: window must be positive";
  { window; series = Hashtbl.create 64; last_epoch = -1 }

let ring t name =
  match Hashtbl.find_opt t.series name with
  | Some r -> r
  | None ->
    let r = Ring_buffer.create ~capacity:t.window in
    Hashtbl.replace t.series name r;
    r

let gauge_rollup values =
  List.fold_left
    (fun acc (_, v) ->
      {
        gp_min = Float.min acc.gp_min v;
        gp_max = Float.max acc.gp_max v;
        gp_sum = acc.gp_sum +. v;
        gp_n = acc.gp_n + 1;
      })
    { gp_min = infinity; gp_max = neg_infinity; gp_sum = 0.0; gp_n = 0 }
    values

let record t ~epoch (snap : Metrics.snap) =
  t.last_epoch <- max t.last_epoch epoch;
  List.iter
    (fun name ->
      Ring_buffer.push (ring t name)
        (epoch, P_counter (Metrics.snap_counter_total snap ~name)))
    (Metrics.snap_counter_names snap);
  List.iter
    (fun name ->
      Ring_buffer.push (ring t name)
        (epoch, P_gauge (gauge_rollup (Metrics.snap_gauges_of snap ~name))))
    (Metrics.snap_gauge_names snap);
  List.iter
    (fun name ->
      match Metrics.snap_hist_merged snap ~name with
      | Some s -> Ring_buffer.push (ring t name) (epoch, P_hist s)
      | None -> ())
    (Metrics.snap_hist_names snap)

let names t =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.series [])

let points t ~name =
  match Hashtbl.find_opt t.series name with
  | Some r -> Ring_buffer.to_list r
  | None -> []

let latest t ~name =
  match points t ~name with [] -> None | l -> Some (List.nth l (List.length l - 1))

(* Numeric view of a series for trend analysis: the scalar the
   queue-growth detector watches (counter delta, gauge max, hist p95). *)
let scalar_of = function
  | P_counter n -> float_of_int n
  | P_gauge g -> if g.gp_n = 0 then 0.0 else g.gp_max
  | P_hist s -> s.Metrics.p95

let latest_scalar t ~name =
  Option.map (fun (e, p) -> (e, scalar_of p)) (latest t ~name)

let tail_scalars t ~name ~n =
  let pts = points t ~name in
  let len = List.length pts in
  let pts = if len <= n then pts else List.filteri (fun i _ -> i >= len - n) pts in
  List.map (fun (e, p) -> (e, scalar_of p)) pts

(* --- Export ------------------------------------------------------------ *)

let fmt_f v = Printf.sprintf "%.9g" v

let csv_cells = function
  | P_counter n -> [ "counter"; string_of_int n; ""; ""; ""; ""; ""; "" ]
  | P_gauge g ->
    [ "gauge"; string_of_int g.gp_n; fmt_f g.gp_sum; fmt_f g.gp_min; fmt_f g.gp_max; ""; ""; "" ]
  | P_hist s ->
    [
      "hist"; string_of_int s.Metrics.n; fmt_f s.Metrics.sum; fmt_f s.Metrics.mn;
      fmt_f s.Metrics.mx; fmt_f s.Metrics.p50; fmt_f s.Metrics.p95; fmt_f s.Metrics.p99;
    ]

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "metric,epoch,kind,count,sum,min,max,p50,p95,p99\n";
  List.iter
    (fun name ->
      List.iter
        (fun (epoch, p) ->
          Buffer.add_string b
            (Printf.sprintf "%s,%d,%s\n" name epoch (String.concat "," (csv_cells p))))
        (points t ~name))
    (names t);
  Buffer.contents b

(* The "flux top" view: one row per metric at the newest epoch it
   reported in, newest-first column semantics kept simple (fixed-width
   text, deterministic order). *)
let render_top t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "telemetry @ epoch %d (%d metrics, window %d)\n" t.last_epoch
       (Hashtbl.length t.series) t.window);
  Buffer.add_string b
    (Printf.sprintf "%-32s %-8s %6s %12s %12s %12s\n" "metric" "kind" "epoch" "value/p50"
       "max" "sum");
  List.iter
    (fun name ->
      match latest t ~name with
      | None -> ()
      | Some (epoch, p) ->
        let kind, v, mx, sum =
          match p with
          | P_counter n -> ("counter", float_of_int n, nan, float_of_int n)
          | P_gauge g -> ("gauge", g.gp_max, g.gp_max, g.gp_sum)
          | P_hist s -> ("hist", s.Metrics.p50, s.Metrics.mx, s.Metrics.sum)
        in
        let f x = if Float.is_nan x then "-" else Printf.sprintf "%.6g" x in
        Buffer.add_string b
          (Printf.sprintf "%-32s %-8s %6d %12s %12s %12s\n" name kind epoch (f v) (f mx) (f sum)))
    (names t);
  Buffer.contents b
