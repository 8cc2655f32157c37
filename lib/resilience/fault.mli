(** Deterministic, seed-driven fault injection.

    Failures in a parallel runtime are only debuggable if they are
    reproducible. Every injection decision here is a pure function of
    [(seed, site, shard, occurrence)] — the occurrence counter advances
    once per *program point executed* by a shard, never per scheduler
    retry — so a shard's fault schedule depends only on its deterministic
    instruction stream, not on how the scheduler happened to interleave
    it. The same seed therefore produces the same fault schedule under
    the cooperative stepper, the seeded-random stepper, and real OCaml
    domains.

    Fault sites (the names used by tests, the oracle's fault columns and
    diagnostics):

    - {!Leaf_task}: a leaf-task kernel attempt raises {!Injected} after
      running (simulating a fault that corrupted its writes); the
      executor rolls the written instances back and retries up to the
      policy cap.
    - {!Release_delay}: a consumer delays granting a write-after-read
      credit — the producer of the next copy stalls on the channel.
    - {!Shard_stall}: a whole shard pauses between instructions (a slow
      node). Exercises the stall watchdog's ability to tell a slow shard
      from a deadlocked one.
    - {!Net_send}: a transport send to the given destination rank fails
      transiently; the sender retries (reconnecting on stream
      transports) up to the policy cap before declaring the peer down. *)

type site =
  | Leaf_task of string  (** task name *)
  | Release_delay of int  (** copy_id whose Release is delayed *)
  | Shard_stall
  | Net_send of int  (** destination rank of the failed send *)

val site_to_string : site -> string

exception Injected of { site : site; shard : int; occurrence : int }

type policy = {
  leaf_fail_rate : float;  (** probability a leaf-task attempt fails *)
  leaf_retries : int;  (** rollback/re-execute cap per leaf attempt *)
  release_delay_rate : float;
  release_delay_steps : int;  (** stepper: blocked scheduler attempts *)
  stall_rate : float;
  stall_steps : int;  (** stepper: blocked scheduler attempts *)
  net_fail_rate : float;  (** probability a transport send fails *)
  net_retries : int;  (** resend/reconnect cap per message *)
  delay_seconds : float;  (** domains: sleep per injected delay/stall *)
  max_faults : int;  (** total injection cap (safety valve) *)
}

val default_policy : policy
(** Moderate rates suited to a long fault soak: transient leaf failures with
    retries, occasional release delays and shard stalls. *)

val no_faults : policy
(** All rates zero (an armed injector that never fires). *)

type t

val create : ?policy:policy -> seed:int -> unit -> t
(** Thread-safe: one injector may be shared by all shards of a run. *)

val policy : t -> policy
val seed : t -> int

val draw : t -> site -> shard:int -> bool
(** Advance the [(site, shard)] occurrence counter and decide whether the
    fault fires. Fired faults are recorded in {!schedule}. *)

val injected : t -> int
(** Number of faults fired so far. *)

val schedule : t -> (site * int * int) list
(** The fired faults as [(site, shard, occurrence)], sorted — a
    deterministic fingerprint of the run's fault schedule (sorting makes
    it independent of domain interleaving). *)
