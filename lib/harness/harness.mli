(** The shape every invariant harness shares.

    A harness is a seeded simulation whose end-of-run audit returns a
    list of violations (empty = every guarantee held). Its {e sweep} is
    the set of runs the bench records: it prints its rows, returns the
    report document written to {!report_file}, and returns every
    violation its runs reported plus any failed headline check (e.g.
    "goodput scales >= 1.8x from 1 to 4 shards").

    {!Registry.all} lists the harnesses; the bench experiments,
    [make check] and CI all iterate over it, so adding a harness takes
    one module exposing a [harness] value and one registry line. *)

module Json = Flux_json.Json

type sweep = {
  doc : Json.t;  (** written to {!report_file} *)
  violations : string list;
}

type t = {
  name : string;  (** bench experiment name *)
  title : string;  (** one-line description, printed as the sweep's header *)
  sweep : fast:bool -> sweep;
      (** [fast] selects the reduced scales used by CI ([BENCH_FAST=1]) *)
}

val report_file : fast:bool -> t -> string
(** [BENCH_<NAME>.json] at paper scale and [BENCH_<NAME>.fast.json] at
    the fast tier, [NAME] being [name] upper-cased, so a fast run never
    overwrites a paper-scale report. *)

val run : fast:bool -> t -> int
(** Run the sweep, print its violations and write its report into the
    current directory. Returns the number of violations. *)

(** {1 Helpers for sweeps} *)

val tier : fast:bool -> Json.t
(** The ["tier"] member of a report: ["fast"] or ["paper-scale"]. *)

val print_table : (string * Json.t) list list -> unit
(** Print rows of JSON members as an aligned table, one column per
    scalar member of the first row (lists and objects are skipped). *)

val check : bool -> string -> string list
(** [check ok msg] is [[]] when [ok] holds, else [[msg]]: a headline
    check as a violation. *)

val labelled : string -> string list -> string list
(** Prefix each violation with the label of the run that reported it. *)
