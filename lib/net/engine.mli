(** The per-rank execution engine of the distributed backend.

    One {!net} per process (or per simulated rank under loopback) wires
    a {!Transport.t} to the protocol state: {!Channel} tables for the
    copy credit/data plane, a {!Collective} tree for barriers and scalar
    reductions, the finalize instances received ahead of their use, and
    the end-of-run gather boxes ([Stats]/[Bye] frames destined for
    rank 0). {!pump} drains the transport and
    dispatches every frame to its table; it never blocks the engine's
    own instruction stream.

    One {!engine} runs one replicated block on one rank: the shard
    machine {!Spmd.Exec.step} itself, over a wire instance of its
    {!Spmd.Exec.sync} substrate, so every instruction's semantics,
    sanitizer hooks, trace spans and diagnostics are the shared-memory
    executor's. Only the substrate differs:

    - a copy gathers each owned pair's payload through the memoized
      {!Spmd.Copy_plan} and sends a [Data] frame to the destination
      color's owner, consuming one war credit (§3.4 producer-issued
      copies);
    - the queued [Data] frame {e is} the raw token: [Await] needs one per
      owned destination pair and scatters or folds the payloads into the
      local instance, reductions in ascending source color;
    - [Release] sends a [Credit] frame back to each source owner;
    - barriers and scalar collectives run one tree operation
      ({!Collective}); a barrier is the empty allreduce;
    - checkpoints are a no-op (no checkpoint sink).

    Finalize is the shared-memory executor's too ({!Spmd.Exec.finalize}).
    Its copies read every color of their source partitions, so first
    each rank sends the instances it owns of them (the fields the copy
    reads) to every other rank as [Final] frames, and blits the ones it
    receives into its own. Rank r sends only once it holds every lower
    rank's instances, so no two ranks ever block writing to each other.
    Every rank then replays the same copies in the same order and
    finishes holding the same bitwise root state.

    Every rank executes the whole program against its private
    {!Interp.Run.context} ([Seq] items and block initialization are
    replayed identically everywhere — they are deterministic), and the
    engine's instructions touch only the colors its rank owns, so the
    union of ranks is exactly one {!Spmd.Exec} run. *)

type net

val make_net :
  ?stats:Spmd.Exec.stats ->
  ?trace:Obs.Trace.t ->
  ?san:Spmd.Sanitizer.t ->
  Transport.t ->
  net
(** [san] is only meaningful under loopback, where all ranks share one
    process (and one sanitizer); socket-mode ranks pass nothing. *)

val transport : net -> Transport.t

val pump : net -> timeout:float -> bool
(** Drain ready frames (waiting up to [timeout] for the first one) and
    dispatch them; [true] when at least one frame arrived. Peer EOFs are
    recorded (see {!dead_ranks}), not raised. *)

val send_frame : net -> dst:int -> Wire.frame -> unit
(** Encode, count ({!Spmd.Exec.stats} and {!Obs.Trace}) and send.
    Raises {!Transport.Peer_down} when [dst] is unreachable. *)

val stats_frames : net -> (int * (int * int * int * string)) list
(** Gathered [(rank, (msgs, bytes, retries, digest))] end-of-run
    reports: wire stats and the digest of the rank's final state. *)

val byes : net -> int list
(** Ranks that announced graceful completion. *)

val dead_ranks : net -> int list
(** Ranks whose connection closed {e before} a [Bye] — crashed peers. *)

type engine

val start_block :
  net -> source:Ir.Program.t -> Interp.Run.context -> Spmd.Prog.block -> engine
(** Allocate the block's replicated instances and intersection pairs,
    seed the producer-side credit counters, and run the initialization
    instructions (replayed locally — they are deterministic, so every
    rank computes the same state). The block's shard count must equal
    the transport size. *)

val step : engine -> [ `Progress | `Blocked | `Done ]
(** Execute (or block on) the current instruction: one
    {!Spmd.Exec.step} in the body; in finalize, sending the owned
    instances, then the sequential finalize once every instance is
    held. Callers interleave {!pump} with blocked steps; a step is [`Blocked] only while some needed frame has not
    arrived. [`Done] once the finalize phase completed (scalars are
    folded back into the context's environment at that point). *)

val finished : engine -> bool

val diag_shard : engine -> Resilience.Diag.shard
(** This rank's row of a stall report: current instruction and what it
    is waiting on (local channel counters, collective arrival counts). *)

val diagnose : net -> reason:string -> engine list -> Resilience.Diag.t
(** Assemble a structured deadlock/stall report from the given engines
    (all ranks under loopback; just the local one in socket mode, where
    remote state is unknowable — the reason string carries any
    crashed-peer evidence from {!dead_ranks}). *)

val run_rank : ?watchdog:float -> net -> Spmd.Prog.t -> Interp.Run.context -> unit
(** Run the whole program on this rank, blocking: [Seq] items through
    the sequential interpreter, each replicated block through an
    {!engine} with {!pump} interleaved. [watchdog] (seconds, default
    [30.]; [<= 0.] disables) bounds how long the rank may sit blocked
    without receiving a frame before raising {!Spmd.Exec.Deadlock} with
    this rank's diagnostics — in a distributed run a global blocked
    state is not locally observable, so the watchdog is the detector.
    {!Transport.Peer_down} is converted to the same structured report. *)
