(** The shape every invariant harness shares.

    A harness is a seeded simulation whose end-of-run audit returns a
    list of violations (empty = every guarantee held). Its {e sweep} is
    the set of runs the bench records: it prints its rows, returns the
    report document written to {!report_file}, and returns every
    violation its runs reported plus any failed headline check (e.g.
    "goodput scales >= 1.8x from 1 to 4 shards"). Its {e cli} is one run
    from the command line, [flux NAME] ({!cmd}).

    {!Registry.all} lists the harnesses; the bench experiments,
    [make check], CI and the [flux] utility all iterate over it, so
    adding a harness takes one module exposing a [harness] value and one
    registry line. *)

module Json = Flux_json.Json

type row = (string * Json.t) list
(** A report as named members: each harness's [row] is the one rendering
    of its report, printed by its [cli] and picked from by its sweep. *)

type sweep = {
  doc : Json.t;  (** written to {!report_file} *)
  violations : string list;
  host : string list;  (** names of [doc]'s host-measured members (wall time, allocation) *)
}

type t = {
  name : string;  (** bench experiment and [flux] subcommand name *)
  title : string;  (** one-line description: the sweep's header and the subcommand's doc *)
  sweep : fast:bool -> sweep;
      (** [fast] selects the reduced scales used by CI ([BENCH_FAST=1]) *)
  cli : string list Cmdliner.Term.t;
      (** reads the flags (defaults from the harness's [default]), checks
          the config with its [validate] (a usage error on failure), runs
          it, prints its row and evaluates to the run's violations *)
}

val report_file : fast:bool -> t -> string
(** [BENCH_<NAME>.json] at paper scale and [BENCH_<NAME>.fast.json] at
    the fast tier, [NAME] being [name] upper-cased, so a fast run never
    overwrites a paper-scale report. *)

val fingerprint : sweep -> string
(** MD5 (hex) of [doc] without the members named in [host], at any
    depth. *)

val run : fast:bool -> t -> int
(** Run the sweep, print its violations, write its report into the
    current directory and print [fingerprint NAME HEX]. Returns the
    number of violations. *)

val cmd : t -> Cmdliner.Cmd.Exit.code Cmdliner.Cmd.t
(** The [flux NAME] subcommand: prints each violation of [cli]'s run and
    exits 1 if there is one; a bad flag or config exits 124. *)

(** {1 Helpers for sweeps, rows and flags} *)

val tier : fast:bool -> Json.t
(** The ["tier"] member of a report: ["fast"] or ["paper-scale"]. *)

val print_table : row list -> unit
(** Print rows as an aligned table, one column per scalar member of the
    first row (lists and objects are skipped). *)

val print_row : row -> unit
(** Print a row as one JSON object on one line. *)

val pick : string list -> row -> row
(** The named members of a row, in the given order. *)

val check : bool -> string -> string list
(** [check ok msg] is [[]] when [ok] holds, else [[msg]]: a headline
    check as a violation. *)

val labelled : string -> string list -> string list
(** Prefix each violation with the label of the run that reported it. *)

val require : (bool * string) list -> (unit, string) result
(** The message of the first check that fails. *)

val validated : (unit, string) result -> (unit -> 'a) -> 'a Cmdliner.Term.ret
(** Call the function on [Ok]; an error is a usage error. *)

val opt :
  'a Cmdliner.Arg.conv -> string list -> docv:string -> doc:string -> 'a -> 'a Cmdliner.Term.t

val nodes : int -> int Cmdliner.Term.t
val fanout : int -> int Cmdliner.Term.t
val seed : doc:string -> int -> int Cmdliner.Term.t

val once : (unit -> 'r) -> ('r -> row) -> ('r -> string list) -> string list Cmdliner.Term.t
(** A [cli] without flags: one run, its row printed, its violations. *)
