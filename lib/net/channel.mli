(** Per-rank point-to-point channel state, keyed by copy id.

    The compiler's synchronisation (paper §3.4) is a credit protocol per
    copy pair [(copy_id, src color, dst color)]: the producer consumes
    one write-after-read credit per issue, the consumer's [Await]
    consumes one read-after-write token per pair and its [Release]
    grants the next credit. On the wire, a token {e is} the [Data] frame
    itself (the count of queued frames for a pair is its raw counter)
    and a credit is a [Credit] frame incrementing the producer-side
    counter here.

    Tables live for the whole program run, not one block: copy ids are
    program-unique, so frames racing ahead of a slower rank (a credit or
    fragment for a block the receiver has not entered yet) accumulate
    here harmlessly until that block's instructions consume them. This
    is what lets ranks run fully asynchronously with no inter-block
    barrier. The finalize exchange keeps no state here: its [Final]
    frames are whole instances, held by the engine until its finalize.

    Epochs are a wire-integrity check, not synchronisation: each pair's
    [Data] frames carry a send counter, and a gap or reordering (which
    an ordered transport should make impossible) raises
    {!Wire.Malformed}. *)

type msg = {
  epoch : int;
  runs : (int * int) array;
  payload : float array;
}

type t

val create : unit -> t

val war : t -> int * int * int -> int ref
(** Producer-side credit counter of a pair; created at zero on first
    touch (a credit can arrive before the producer registers the
    pair). *)

val add_credit : t -> cid:int -> i:int -> j:int -> unit

val next_send_epoch : t -> cid:int -> i:int -> j:int -> int
(** Allocate the producer-side epoch for the pair's next [Data] frame. *)

val on_data :
  t -> cid:int -> i:int -> j:int -> epoch:int -> runs:(int * int) array ->
  payload:float array -> unit
(** Queue a received fragment; raises {!Wire.Malformed} when [epoch] is
    not the pair's next expected one. *)

val queued : t -> cid:int -> i:int -> j:int -> int
(** Received-but-unconsumed [Data] frames of a pair — its raw count. *)

val pop_data : t -> cid:int -> i:int -> j:int -> msg
(** Dequeue the oldest fragment; raises [Invalid_argument] when empty
    (callers gate on {!queued}). *)

val apply :
  reduce:Regions.Privilege.redop option ->
  fields:Regions.Field.t list ->
  runs:(int * int) array ->
  payload:float array ->
  Regions.Physical.t ->
  unit
(** Scatter a field-major payload into the destination instance along
    the given [(offset, len)] runs — the receiver half of
    {!Spmd.Copy_plan.gather}; a [Final] frame is the single run over
    its whole instance. Plain copies blit; reductions fold with the
    operator. Bounds and size are validated against the instance
    ({!Wire.Malformed} on mismatch: a frame must never write outside
    its destination). *)
