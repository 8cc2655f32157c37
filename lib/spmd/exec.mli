(** Functional execution of SPMD programs.

    Each replicated block runs as [shards] shard streams, every one of
    them interpreted by the same resumable shard machine ({!step}) over a
    synchronisation substrate ({!sync}). A scheduler drives the streams:
    round-robin or seeded-random stepping (adversarial interleavings for
    the equivalence tests) over the cooperative substrate, or one OCaml
    domain per shard over the monitor substrate; lib/net drives the same
    machine over the wire. Synchronisation —
    write-after-read credits and read-after-write tokens per copy pair
    (§3.4), global barriers, and the dynamic collective for scalar
    reductions (§4.4) — is honoured exactly; a schedule in which every
    live shard is blocked raises {!Deadlock} (a control-replication bug by
    definition, so tests assert it never happens) carrying structured
    per-shard diagnostics: each shard's current instruction and what it is
    waiting on (channel war/raw counters, barrier generation, collective
    slot state).

    Execution is bitwise deterministic and equal to the sequential
    interpreter on the same inputs, for any schedule: plain copies never
    conflict (write-privileged partitions are disjoint), reduction copies
    are staged and applied in ascending source-color order, and the scalar
    collective folds per-color results in color order.

    Resilience (lib/resilience): a deterministic fault injector can be
    armed with [?fault] — injected transient leaf-task failures are
    retried with snapshot/rollback of the attempt's write set, injected
    stalls delay shards without affecting results. The [`Domains] backend
    runs a stall watchdog that turns a hang into {!Deadlock} with the same
    structured diagnostics. [?checkpoint_sink] + [Prog.with_checkpoints]
    serialize consistent cuts at time-loop boundaries; [?restore] resumes
    a run from such a cut. *)

exception Deadlock of Resilience.Diag.t

type sched =
  [ `Round_robin  (** deterministic cooperative stepper *)
  | `Random of int  (** seeded adversarial interleaving (same stepper) *)
  | `Domains
    (** one OCaml domain per shard with real mutex/condition-variable
        synchronisation — true parallel execution of the SPMD program.
        Use moderate shard counts (≲ 16); a sync bug is caught by the
        stall watchdog, which raises {!Deadlock} after [?watchdog]
        seconds without progress. *) ]

type stats = {
  isect : Intersections.stats;  (** dynamic intersection timings (§3.3) *)
  attempts : int Atomic.t;  (** leaf-task attempts (retries included) *)
  retries : int Atomic.t;  (** rollback re-executions after injected faults *)
  injected : int Atomic.t;  (** faults fired (all sites) *)
  checkpoints : int Atomic.t;  (** checkpoints taken *)
  plan_builds : int Atomic.t;  (** copy plans compiled (cache misses) *)
  plan_replays : int Atomic.t;  (** plan executions (incl. first) *)
  blit_volume : int Atomic.t;
      (** elements moved through plan replays, summed over fields *)
  msgs_sent : int Atomic.t;
      (** wire frames sent by the net backend (zero for shared memory) *)
  bytes_on_wire : int Atomic.t;
      (** encoded frame bytes sent by the net backend, length prefixes
          included *)
}

val fresh_stats : ?registry:Obs.Metrics.t -> unit -> stats
(** With [registry], the counter fields alias registry counters
    ([exec.attempts], [exec.retries], [exec.injected], [exec.checkpoints],
    [exec.net.msgs_sent], [exec.net.bytes_on_wire]) and the intersection
    timings surface as [exec.isect.*] gauge views — the record is then a
    compatibility view over the registry, and both read the same
    numbers. *)

val shard_tid : int -> int
(** Trace tid of a shard's per-shard track (tids 0..9 are reserved for
    driver and compile-pipeline spans). *)

(** {1 The shard machine}

    One interpreter of the shard instruction stream, shared by every
    backend. It runs over a {!sync} substrate that owns only what differs
    between backends: the shared-memory one (cooperative round-robin and
    random stepping, or OCaml domains under a monitor) lives here, the
    wire one in lib/net. *)

type state
(** One replicated block's runtime: the per-(partition, color) instances,
    the dynamic intersection pairs (§3.3), the copy-plan memo and the
    instruments (stats, fault injector, trace, sanitizer). *)

val create_state :
  ?stats:stats ->
  ?fault:Resilience.Fault.t ->
  ?ckpt_sink:(Resilience.Checkpoint.t -> unit) ->
  ?trace:Obs.Trace.t ->
  ?san:Sanitizer.t ->
  ?pool:bool ->
  source:Ir.Program.t ->
  Interp.Run.context ->
  Prog.block ->
  state
(** Allocate the block's instances and compute its intersection pairs.
    [pool] (default [false]) lets big analyses fan out over the shared
    {!Taskpool.Pool}; a process that forks afterwards must leave it
    off. *)

val init : state -> unit
(** Run the block's initialization instructions sequentially. *)

val finalize : state -> unit
(** Run the block's finalize copies sequentially, every color of each at
    once: the copy-back of written partitions to their parent regions
    (Fig. 4a). Every instance they read must be current, so a backend
    whose shards hold only their own colors gathers the rest first. *)

val instance : state -> string -> int -> Regions.Physical.t
val pairs : state -> int -> Intersections.pairs
val owner : state -> string -> int -> int
(** Shard owning a color of the named partition. *)


val copy_plan :
  state ->
  cid:int ->
  i:int ->
  j:int ->
  ?space:Regions.Index_space.t ->
  fields:Regions.Field.t list ->
  src:Regions.Physical.t ->
  dst:Regions.Physical.t ->
  unit ->
  Copy_plan.t
(** The memoized plan of copy [cid]'s [(i, j)] move ([-1] = a root
    region), counted as one replay. *)

type pair = int * int * Regions.Index_space.t
(** [(src color, dst color, intersection)] of one copy. *)

type rendezvous =
  | Barrier
  | Checkpoint of (unit -> unit)
      (** the checkpoint barrier; the last arriver takes the cut *)
  | Collective of {
      instr : Prog.instr;
      var : string;
      op : Regions.Privilege.redop;
    }

type sync = {
  take_credits : Prog.copy -> pair list -> bool;
      (** take one write-after-read credit for every owned source pair, or
          none and return [false] *)
  put : Prog.copy -> pair -> release:(unit -> unit) -> unit;
      (** move one owned pair's data and publish its read-after-write
          token, calling [release] (the sanitizer release) before the
          token becomes visible *)
  take : Prog.copy -> pair list -> acquired:(unit -> unit) -> bool;
      (** consume one token for every owned destination pair, or none and
          return [false]; after [acquired], apply staged or received
          payloads in ascending source color *)
  grant : Prog.copy -> pair list -> unit;
      (** give the owned destination pairs' credits back *)
  can_join : int -> rendezvous -> bool;
      (** whether shard [sid] may arrive (a collective's previous round
          must have drained) *)
  join : int -> rendezvous -> (int * float) list -> int;
      (** arrive with per-color contributions; returns the handle *)
  poll : int -> rendezvous -> int -> float option;
      (** the rendezvous' result once complete; called until it returns
          one *)
  threaded : bool;
      (** shards run on their own threads: injected delays sleep, and
          trace spans run from the first attempt *)
  chan : int * int * int -> int * int;
      (** diagnostics: [(war, raw)] of a [(copy_id, i, j)] channel *)
  meet_diag : rendezvous -> int option -> Resilience.Diag.wait;
      (** diagnostics: the rendezvous' state, given this shard's handle *)
}

type shard

val shard : state -> sid:int -> Ir.Eval.env -> shard
(** A shard at the start of the block's body, with its own scalar
    environment. *)

val shard_env : shard -> Ir.Eval.env

val step :
  state -> sync -> shard -> [ `Progress | `Blocked | `Stalled | `Done ]
(** Execute (or block on) the shard's current instruction. [`Blocked]
    means it waits on another shard; [`Stalled] that it sits out an
    injected delay and will move without further events. *)

val shard_diag : state -> sync -> shard -> Resilience.Diag.shard
(** The shard's row of a stall report: its current instruction and what
    it waits on. *)

val run :
  ?sched:sched ->
  ?stats:stats ->
  ?fault:Resilience.Fault.t ->
  ?watchdog:float ->
  ?checkpoint_sink:(Resilience.Checkpoint.t -> unit) ->
  ?restore:Resilience.Checkpoint.t ->
  ?trace:Obs.Trace.t ->
  ?sanitize:bool ->
  Prog.t ->
  Interp.Run.context ->
  unit
(** Executes the whole compiled program against the context: [Seq] items via
    the sequential interpreter, [Replicated] blocks with the SPMD machinery
    (instances per (partition, color), dynamic intersections, shard
    streams). Root-region instances and scalars in the context hold the
    results afterwards.

    [watchdog] (seconds, default 60., [`Domains] only; [<= 0.] disables)
    bounds how long the run may sit with every shard blocked and no
    progress before raising {!Deadlock}.

    [checkpoint_sink] receives each checkpoint a [Prog.Checkpoint]
    instruction takes (see {!Prog.with_checkpoints}); without a sink the
    instruction is a no-op.

    [restore] resumes the program's first replicated block from a
    checkpoint: the sequential prefix and the block's initialization are
    skipped (their effects are part of the restored cut) and the block's
    time loop resumes at [restore.iter + 1].

    [trace] records one wall-clock span per executed instruction on each
    shard's track ({!shard_tid}), instant events for barrier arrivals,
    channel-credit releases and collective deposits, plus analyze/init/
    finalize spans on tid 0. The per-tid (phase, name) event sequences are
    identical across all three schedulers.

    [sanitize] (default [false]) arms the dynamic race detector
    ({!Sanitizer}): every instruction reports its declared per-element
    footprint and every synchronisation primitive its happens-before
    edge; two conflicting cross-shard accesses with no ordering through
    the executor's own primitives raise {!Sanitizer.Race}. Detection is
    happens-before based, so a dropped sync op is caught on any schedule,
    including the deterministic stepper. *)

val run_block :
  ?sched:sched ->
  ?stats:stats ->
  ?fault:Resilience.Fault.t ->
  ?watchdog:float ->
  ?checkpoint_sink:(Resilience.Checkpoint.t -> unit) ->
  ?restore:Resilience.Checkpoint.t ->
  ?trace:Obs.Trace.t ->
  ?sanitize:bool ->
  source:Ir.Program.t ->
  Interp.Run.context ->
  Prog.block ->
  unit
(** Run a single replicated block (exposed for tests). *)
