(** Drivers for distributed runs: the deterministic in-process loopback
    and the multi-process fork launcher.

    {!run_loopback} steps every rank's {!Engine} cooperatively over the
    {!Transport.loopback} hub — fully deterministic (same schedule every
    run), sanitizer-capable (all ranks share one process), and with
    exact deadlock detection: when no queue holds a frame and no engine
    can step, the blocked state is global by construction.

    {!launch} forks one OS process per shard over a pre-created
    {!Transport.unix_mesh} or {!Transport.tcp_mesh}. Every process runs
    the whole program against its private context; at the end each child
    sends rank 0 its wire statistics with the {!digest} of its final
    state and broadcasts a goodbye, and rank 0 verifies every digest
    equals its own. Failures never hang: a blocked rank's watchdog
    raises {!Spmd.Exec.Deadlock} (exit code 3 in a child), a crashed
    rank surfaces as an EOF-before-goodbye in its peers' reports, and
    the parent kills survivors before reaping. *)

(** Final program state, in canonical order: sorted scalar bindings and
    sorted per-root-region field columns. *)
type state = {
  scalars : (string * float) list;
  regions : (string * (string * float array) list) list;
}

val snapshot_state : Interp.Run.context -> state

val states_equal : state -> state -> bool
(** Bitwise equality: equal names, shapes and IEEE-754 bit patterns (a
    NaN equals itself; [0.0] and [-0.0] differ). *)

val digest : state -> Digest.t
(** Digest of the same canonical encoding {!states_equal} compares: floats
    as their IEEE-754 bits, names and counts length-prefixed. *)

val run_loopback :
  ?fault:Resilience.Fault.t ->
  ?stats:Spmd.Exec.stats ->
  ?trace:Obs.Trace.t ->
  ?sanitize:bool ->
  Spmd.Prog.t ->
  Interp.Run.context ->
  unit
(** Run the program on the loopback transport, one simulated rank per
    shard ([ctx] is rank 0; the other ranks replay on private contexts,
    and all final states are checked identical). Raises
    {!Spmd.Exec.Deadlock} with per-rank diagnostics when every rank is
    blocked with empty queues, {!Spmd.Sanitizer.Race} under [~sanitize]
    on a missing happens-before edge, and [Failure] if ranks diverge. *)

type outcome = {
  ok : bool;
  state : state option;  (** rank 0's final state, when the run completed *)
  detail : string list;  (** human-readable failure evidence, empty when ok *)
  diag : Resilience.Diag.t option;
      (** structured stall report (deadlock or gather timeout) *)
  exits : (int * string) list;  (** child rank -> exit/signal description *)
  msgs : int;  (** wire frames sent, summed over all ranks *)
  bytes_on_wire : int;  (** frame bytes incl. length prefixes, all ranks *)
  send_retries : int;  (** injected-fault resends, all ranks *)
}

val launch :
  ?transport:[ `Unix | `Tcp ] ->
  ?fault:Resilience.Fault.t ->
  ?kill:int * int ->
  ?watchdog:float ->
  ?stats:Spmd.Exec.stats ->
  ?trace:Obs.Trace.t ->
  Spmd.Prog.t ->
  outcome
(** Fork [shards - 1] children (rank 0 stays in the caller), run the
    program to completion on every rank, gather and cross-check final
    states at rank 0, and reap everything. Never raises on a failed run
    — the outcome says what happened.

    [kill = (rank, n)] hard-kills the given child rank at its [n]-th
    physical send (fault-injection hook for crash testing; rank 0 is not
    killable since it reports the outcome). [fault] arms the
    {!Resilience.Fault.Net_send} site in every rank's transport: with
    transient rates the run recovers by retry/reconnect and [ok] stays
    [true], with [send_retries] counting the resends.

    [watchdog] (default [30.]) bounds every blocked wait, so a killed or
    wedged peer yields a structured [diag] instead of a hang. *)
