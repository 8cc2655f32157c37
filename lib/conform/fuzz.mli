(** Fuzzing campaign driver for the conformance harness.

    Cases are generated seed-deterministically ([seed + i] for case [i],
    shard count cycling 2–4), checked with the differential oracle
    (sanitizer armed, every column), and on the
    first failure shrunk to a minimal spec written as a replayable repro
    file. *)

type report = {
  tested : int;  (** cases that ran before stopping *)
  repro : (Repro.t * string) option;
      (** the saved minimal repro and its path, when a case failed *)
}

val shards_of_case : int -> int
(** Shard count of case [i]: cycles 2, 3, 4. *)

val shrink :
  shards:int ->
  mutate:int option ->
  Oracle.failure ->
  Spec.t ->
  Spec.t * Oracle.failure
(** [shrink ~shards ~mutate f spec] minimises [spec] against the one
    configuration [f] names ({!Oracle.check_config}), keeping candidates
    that fail there with [f]'s kind; returns the minimum and its
    failure. *)

val campaign :
  ?out:string ->
  ?max_tasks:int ->
  ?mutate:int ->
  ?shards:int ->
  ?net:bool ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Run [count] cases starting at [seed]; stop at the first failure,
    shrink it against the failing configuration and save the repro to
    [out] (default ["fuzz-repro.json"]). [?mutate] arms the negative
    control: every compiled case has its [k]-th sync op dropped, so a
    completed campaign means the oracle missed the bug. [?net] (default
    [true]) controls the [net/loopback] backend column. *)

val replay : string -> Oracle.failure option
(** Re-run a saved repro file; [None] means it no longer fails. *)
