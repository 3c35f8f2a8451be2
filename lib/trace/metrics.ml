module Json = Flux_json.Json

(* Log-bucketed histogram. Bucket boundaries grow geometrically by
   [growth] starting at [lo]; bucket 0 holds everything <= lo, the last
   bucket everything past the top boundary. With growth = 2^(1/4) the
   relative quantization error of a reported quantile is bounded by
   ~ +/-9%, and 256 buckets span lo * 2^63 — nanoseconds to centuries
   when observations are seconds. *)

let growth = 1.189207115002721 (* 2 ** 0.25 *)
let log_growth = log growth
let lo = 1e-9
let nbuckets = 256

type hist = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type summary = {
  n : int;
  sum : float;
  mn : float;
  mx : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Two-level storage: metric name -> (rank -> cell). Hot paths hash a
   short interned string plus an int instead of allocating a
   [(string, int)] tuple key per update, and callers that update the
   same metric once per message can resolve the name level once
   ({!counter_family} and friends) leaving an int-keyed table lookup as
   the whole per-update cost. *)

type counter_family = (int, int ref) Hashtbl.t

(* Single-float records are flat in OCaml, so gauge stores never box:
   a [float ref]'s contents would be re-boxed on every [:=]. *)
type gauge_cell = { mutable g : float }

type gauge_family = (int, gauge_cell) Hashtbl.t
type hist_family = (int, hist) Hashtbl.t

type t = {
  counters : (string, counter_family) Hashtbl.t;
  gauges : (string, gauge_family) Hashtbl.t;
  hists : (string, hist_family) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 16; hists = Hashtbl.create 64 }

let family tbl name =
  match Hashtbl.find tbl name with
  | f -> f
  | exception Not_found ->
    let f = Hashtbl.create 16 in
    Hashtbl.add tbl name f;
    f

let counter_family t ~name = family t.counters name
let gauge_family t ~name = family t.gauges name
let hist_family t ~name = family t.hists name

(* [find]+[exception] rather than [find_opt]: these run several times
   per simulated message, and [find_opt] allocates an option per hit. *)
let family_add (f : counter_family) ~rank n =
  match Hashtbl.find f rank with
  | c -> c := !c + n
  | exception Not_found -> Hashtbl.add f rank (ref n)

let family_incr f ~rank = family_add f ~rank 1

let family_set_gauge (f : gauge_family) ~rank v =
  match Hashtbl.find f rank with
  | c -> c.g <- v
  | exception Not_found -> Hashtbl.add f rank { g = v }

let family_gauge (f : gauge_family) ~rank =
  match Hashtbl.find_opt f rank with Some c -> Some c.g | None -> None

let add t ~name ~rank n = family_add (counter_family t ~name) ~rank n
let incr t ~name ~rank = add t ~name ~rank 1

let counter t ~name ~rank =
  match Hashtbl.find_opt t.counters name with
  | None -> 0
  | Some f -> ( match Hashtbl.find_opt f rank with Some c -> !c | None -> 0)

let counter_total t ~name =
  match Hashtbl.find_opt t.counters name with
  | None -> 0
  | Some f -> Hashtbl.fold (fun _ v acc -> acc + !v) f 0

let set_gauge t ~name ~rank v = family_set_gauge (gauge_family t ~name) ~rank v

let gauge t ~name ~rank =
  match Hashtbl.find_opt t.gauges name with
  | None -> None
  | Some f -> family_gauge f ~rank

let bucket_of v =
  if v <= lo then 0
  else
    let i = 1 + int_of_float (log (v /. lo) /. log_growth) in
    if i >= nbuckets then nbuckets - 1 else i

(* Representative value for bucket [i]: the geometric midpoint of its
   boundaries, so a reported quantile is within one growth ratio of the
   true sample. *)
let bucket_value i =
  if i = 0 then lo else lo *. (growth ** (float_of_int i -. 0.5))

let fresh_hist () =
  { buckets = Array.make nbuckets 0; h_count = 0; h_sum = 0.0;
    h_min = infinity; h_max = neg_infinity }

let family_hist (f : hist_family) ~rank =
  match Hashtbl.find f rank with
  | h -> h
  | exception Not_found ->
    let h = fresh_hist () in
    Hashtbl.add f rank h;
    h

let hist_observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let family_observe f ~rank v = hist_observe (family_hist f ~rank) v

let observe t ~name ~rank v = family_observe (hist_family t ~name) ~rank v

let quantile h q =
  if h.h_count = 0 then nan
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if x < 1 then 1 else if x > h.h_count then h.h_count else x
    in
    let rec go i cum =
      if i >= nbuckets then h.h_max
      else
        let cum = cum + h.buckets.(i) in
        if cum >= target then
          (* Clamp to the observed range so degenerate histograms
             (single bucket) report sane values. *)
          let v = bucket_value i in
          if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
        else go (i + 1) cum
    in
    go 0 0
  end

let summarize h =
  { n = h.h_count; sum = h.h_sum; mn = h.h_min; mx = h.h_max;
    p50 = quantile h 0.50; p95 = quantile h 0.95; p99 = quantile h 0.99 }

let summary t ~name ~rank =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some f -> (
    match Hashtbl.find_opt f rank with
    | Some h when h.h_count > 0 -> Some (summarize h)
    | _ -> None)

let merge_into dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum +. src.h_sum;
  if src.h_min < dst.h_min then dst.h_min <- src.h_min;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max

let summary_merged t ~name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some f ->
    let acc = fresh_hist () in
    Hashtbl.iter (fun _ h -> merge_into acc h) f;
    if acc.h_count = 0 then None else Some (summarize acc)

(* Flatten a two-level table back to ((name, rank), value) folds — the
   shape snapshots and exports are defined over. *)
let fold_flat tbl f acc =
  Hashtbl.fold
    (fun name by_rank acc ->
      Hashtbl.fold (fun rank v acc -> f (name, rank) v acc) by_rank acc)
    tbl acc

(* --- Snapshots: the unit of in-band telemetry ------------------------- *)

(* A snapshot is an immutable, key-sorted view of (a rank slice of) a
   registry. Histograms are stored sparsely — only non-empty buckets —
   so the serialized form stays proportional to what actually changed,
   not to the 256-bucket array. *)

type hist_snap = {
  hs_buckets : (int * int) list; (* (bucket index, count), ascending, counts <> 0 *)
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

type snap = {
  sn_counters : ((string * int) * int) list;
  sn_gauges : ((string * int) * float) list;
  sn_hists : ((string * int) * hist_snap) list;
}

let snap_empty = { sn_counters = []; sn_gauges = []; sn_hists = [] }

let hist_snap_of h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) <> 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  { hs_buckets = !buckets; hs_count = h.h_count; hs_sum = h.h_sum; hs_min = h.h_min; hs_max = h.h_max }

let hist_of_snap hs =
  let h =
    { buckets = Array.make nbuckets 0; h_count = hs.hs_count; h_sum = hs.hs_sum;
      h_min = hs.hs_min; h_max = hs.hs_max }
  in
  List.iter (fun (i, n) -> h.buckets.(i) <- n) hs.hs_buckets;
  h

let hist_snap_summary hs =
  if hs.hs_count <= 0 then None else Some (summarize (hist_of_snap hs))

let snapshot ?rank t =
  (* The one-rank slice — what a broker contributes every rollup epoch —
     walks the name level only and probes each family for that rank,
     instead of enumerating every (name, rank) cell in the registry. *)
  let sorted_bindings tbl f =
    (match rank with
    | Some want ->
      Hashtbl.fold
        (fun name by_rank acc ->
          match Hashtbl.find_opt by_rank want with
          | Some v -> ((name, want), f v) :: acc
          | None -> acc)
        tbl []
    | None -> fold_flat tbl (fun k v acc -> (k, f v) :: acc) [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    sn_counters = sorted_bindings t.counters (fun c -> !c);
    sn_gauges = sorted_bindings t.gauges (fun c -> c.g);
    sn_hists =
      sorted_bindings t.hists hist_snap_of
      |> List.filter (fun (_, hs) -> hs.hs_count > 0);
  }

(* Merge two key-sorted assoc lists with [combine] on shared keys,
   dropping combined values [drop] says are dead weight. *)
let rec merge_assoc combine drop a b =
  match (a, b) with
  | [], rest | rest, [] -> List.filter (fun (_, v) -> not (drop v)) rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = compare ka kb in
    if c < 0 then
      if drop va then merge_assoc combine drop ta b
      else (ka, va) :: merge_assoc combine drop ta b
    else if c > 0 then
      if drop vb then merge_assoc combine drop a tb
      else (kb, vb) :: merge_assoc combine drop a tb
    else
      let v = combine va vb in
      if drop v then merge_assoc combine drop ta tb
      else (ka, v) :: merge_assoc combine drop ta tb

let hist_snap_add a b =
  {
    hs_buckets = merge_assoc ( + ) (fun n -> n = 0) a.hs_buckets b.hs_buckets;
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_min = Float.min a.hs_min b.hs_min;
    hs_max = Float.max a.hs_max b.hs_max;
  }

(* Bucket-wise subtraction for the delta path. min/max are not
   invertible, so the delta keeps [next]'s observed range — a sound
   over-approximation of the window's range (the merged center-level
   min/max stay bounds on real observations). *)
let hist_snap_sub ~base next =
  {
    hs_buckets = merge_assoc ( + ) (fun n -> n = 0) next.hs_buckets
        (List.map (fun (i, n) -> (i, -n)) base.hs_buckets);
    hs_count = next.hs_count - base.hs_count;
    hs_sum = next.hs_sum -. base.hs_sum;
    hs_min = next.hs_min;
    hs_max = next.hs_max;
  }

let merge a b =
  {
    sn_counters = merge_assoc ( + ) (fun n -> n = 0) a.sn_counters b.sn_counters;
    (* Gauges are last-value: on a shared key the right operand (the
       fresher contribution) wins. *)
    sn_gauges = merge_assoc (fun _ vb -> vb) (fun _ -> false) a.sn_gauges b.sn_gauges;
    sn_hists =
      merge_assoc hist_snap_add (fun hs -> hs.hs_count = 0 && hs.hs_buckets = [])
        a.sn_hists b.sn_hists;
  }

let diff ~base next =
  let counters =
    merge_assoc ( + ) (fun n -> n = 0) next.sn_counters
      (List.map (fun (k, n) -> (k, -n)) base.sn_counters)
  in
  (* A gauge unchanged since [base] is omitted: merge is right-biased,
     so [merge base (diff ~base next)] still reconstructs [next]. *)
  let gauges =
    List.filter
      (fun (k, v) ->
        match List.assoc_opt k base.sn_gauges with
        | Some prev -> not (Float.equal prev v)
        | None -> true)
      next.sn_gauges
  in
  let hists =
    merge_assoc
      (fun next_hs neg_base -> hist_snap_sub ~base:{ neg_base with hs_count = -neg_base.hs_count } next_hs)
      (fun hs -> hs.hs_count = 0 && hs.hs_buckets = [])
      next.sn_hists
      (List.map (fun (k, hs) -> (k, { hs with hs_count = -hs.hs_count })) base.sn_hists)
  in
  (* The combine above only fires on shared keys; a base-only key would
     survive as a negated orphan. Registries never remove keys, so a
     base-only key cannot happen on a well-formed (base, next) pair —
     but guard anyway so a malformed pair degrades to dropping it. *)
  let hists = List.filter (fun (_, hs) -> hs.hs_count >= 0) hists in
  { sn_counters = counters; sn_gauges = gauges; sn_hists = hists }

(* --- Snapshot accessors (what the detectors and series consume) ------- *)

let names_of bindings =
  let seen = Hashtbl.create 16 in
  List.iter (fun ((n, _), _) -> Hashtbl.replace seen n ()) bindings;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) seen [])

let snap_counter_names s = names_of s.sn_counters
let snap_gauge_names s = names_of s.sn_gauges
let snap_hist_names s = names_of s.sn_hists

let per_rank bindings name =
  List.filter_map
    (fun ((n, r), v) -> if String.equal n name then Some (r, v) else None)
    bindings

let snap_counters_of s ~name = per_rank s.sn_counters name
let snap_gauges_of s ~name = per_rank s.sn_gauges name
let snap_hists_of s ~name = per_rank s.sn_hists name

let snap_counter_total s ~name =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (snap_counters_of s ~name)

let snap_hist_merged s ~name =
  match snap_hists_of s ~name with
  | [] -> None
  | (_, h0) :: rest ->
    hist_snap_summary (List.fold_left (fun acc (_, h) -> hist_snap_add acc h) h0 rest)

(* --- Snapshot wire codec ---------------------------------------------- *)

(* Compact JSON rows: ["name", rank, v]. Key order is the sorted
   snapshot order, so serialization is deterministic. *)

let snap_to_json s =
  let counter ((n, r), v) = Json.list [ Json.string n; Json.int r; Json.int v ] in
  let gauge ((n, r), v) = Json.list [ Json.string n; Json.int r; Json.float v ] in
  let hist ((n, r), hs) =
    Json.list
      [
        Json.string n;
        Json.int r;
        Json.list (List.map (fun (i, c) -> Json.list [ Json.int i; Json.int c ]) hs.hs_buckets);
        Json.int hs.hs_count;
        Json.float hs.hs_sum;
        Json.float hs.hs_min;
        Json.float hs.hs_max;
      ]
  in
  Json.obj
    [
      ("c", Json.list (List.map counter s.sn_counters));
      ("g", Json.list (List.map gauge s.sn_gauges));
      ("h", Json.list (List.map hist s.sn_hists));
    ]

let snap_of_json j =
  let triple f row =
    match Json.to_list row with
    | [ n; r; v ] -> ((Json.to_string_v n, Json.to_int r), f v)
    | _ -> raise (Json.Type_error "snap_of_json: expected [name, rank, value]")
  in
  let hist row =
    match Json.to_list row with
    | [ n; r; buckets; count; sum; mn; mx ] ->
      ( (Json.to_string_v n, Json.to_int r),
        {
          hs_buckets =
            List.map
              (fun b ->
                match Json.to_list b with
                | [ i; c ] -> (Json.to_int i, Json.to_int c)
                | _ -> raise (Json.Type_error "snap_of_json: expected [bucket, count]"))
              (Json.to_list buckets);
          hs_count = Json.to_int count;
          hs_sum = Json.to_float sum;
          hs_min = Json.to_float mn;
          hs_max = Json.to_float mx;
        } )
    | _ -> raise (Json.Type_error "snap_of_json: malformed histogram row")
  in
  {
    sn_counters = List.map (triple Json.to_int) (Json.to_list (Json.member "c" j));
    sn_gauges = List.map (triple Json.to_float) (Json.to_list (Json.member "g" j));
    sn_hists = List.map hist (Json.to_list (Json.member "h" j));
  }

(* CSV: one [metric,rank,value] row per counter/gauge, and one row per
   summary statistic per histogram, sorted for determinism. *)
let to_csv t =
  let rows = ref [] in
  let row name rank v = rows := (name, rank, v) :: !rows in
  fold_flat t.counters (fun (n, r) v () -> row n r (string_of_int !v)) ();
  fold_flat t.gauges (fun (n, r) v () -> row n r (Printf.sprintf "%.9g" v.g)) ();
  fold_flat t.hists
    (fun (n, r) h () ->
      if h.h_count > 0 then begin
        let s = summarize h in
        row (n ^ ".count") r (string_of_int s.n);
        row (n ^ ".sum") r (Printf.sprintf "%.9g" s.sum);
        row (n ^ ".min") r (Printf.sprintf "%.9g" s.mn);
        row (n ^ ".max") r (Printf.sprintf "%.9g" s.mx);
        row (n ^ ".p50") r (Printf.sprintf "%.9g" s.p50);
        row (n ^ ".p95") r (Printf.sprintf "%.9g" s.p95);
        row (n ^ ".p99") r (Printf.sprintf "%.9g" s.p99)
      end)
    ();
  let b = Buffer.create 1024 in
  Buffer.add_string b "metric,rank,value\n";
  List.iter
    (fun (n, r, v) -> Buffer.add_string b (Printf.sprintf "%s,%d,%s\n" n r v))
    (List.sort compare !rows);
  Buffer.contents b
