(** Differential conformance oracle.

    A spec runs once under the implicit shared-memory semantics
    ({!Interp.Run} — the reference control replication must preserve) and
    once per executor configuration: every scheduler, the net loopback
    backend, and every scheduler again under each fault policy, race
    sanitizer armed. Final root-region contents and scalars must be
    bitwise equal everywhere (the paper's equivalence claim, §3); the
    first divergence, race, deadlock, or crash is reported with its
    configuration. States are {!Net.Launch.state}s, keyed by name (field
    and region identities are minted fresh per build, names are not) and
    compared with {!Net.Launch.states_equal}. *)

type kind =
  | Mismatch  (** final state differs from the reference *)
  | Race  (** the sanitizer found unsynchronised conflicting accesses *)
  | Deadlock  (** every live shard blocked ({!Spmd.Exec.Deadlock}) *)
  | Crash  (** any other exception *)

type failure = { config : string; kind : kind; detail : string }

val kind_to_string : kind -> string
val kind_of_string : string -> kind
val pp_failure : Format.formatter -> failure -> unit

val stepper_scheds : (string * Spmd.Exec.sched) list
(** The two deterministic cooperative schedulers — mutation tests use
    these so a dropped sync op fails identically on every run. *)

val all_scheds : (string * Spmd.Exec.sched) list
(** [stepper_scheds] plus [`Domains]. *)

val fault_policies : (string * Resilience.Fault.policy) list
(** The fault columns' policies: [leaf] (transient leaf-task failures,
    rolled back and retried), [delays] (delayed credit grants and shard
    stalls) and [mixed] (both). *)

val check :
  ?shards:int ->
  ?mutate:int ->
  ?scheds:(string * Spmd.Exec.sched) list ->
  ?watchdog:float ->
  ?net:bool ->
  Spec.t ->
  failure option
(** [check spec] is [None] when every configuration reproduces the
    reference bitwise, and the first failure otherwise. Each
    configuration rebuilds the program from the spec (compilation and
    execution mutate derived state). [?mutate] drops the [k]-th sync op
    from each compiled program first — the harness's negative control.
    [?watchdog] (seconds) bounds [`Domains] stalls; defaults to [10.].
    [?net] (default [true]) appends the [net/loopback] column: the same
    program once more through the distributed backend's deterministic
    loopback driver ({!Net.Launch.run_loopback}, sanitizer armed), with
    the identical failure classification.

    The [faults/<policy>/<sched>] columns follow, one per fault policy and
    scheduler in [scheds]: the same run with the fault injector armed,
    seeded by a pure function of the spec so a replay draws the same
    schedule. A run whose schedule exhausts a retry cap
    ({!Resilience.Fault.Injected}) passes. *)

val check_config :
  shards:int ->
  mutate:int option ->
  watchdog:float ->
  string ->
  Spec.t ->
  failure option
(** [check_config ~shards ~mutate ~watchdog config spec] runs the
    reference and the one column named [config] (any name {!check} can
    report; ["reference"] runs the reference alone). Raises
    [Invalid_argument] on an unknown name. *)
