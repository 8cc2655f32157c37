(** The wire protocol of the distributed backend.

    Every message between shard processes is one self-describing frame:
    a version byte, a kind tag, then fixed-width little-endian fields
    (ints as 64-bit, floats as their IEEE-754 bit patterns — the bitwise
    determinism guarantee extends onto the wire). The transport layer
    adds a 4-byte length prefix per frame; this module only encodes and
    decodes the frame body.

    Data-plane frames serialize region fragments straight out of
    {!Spmd.Copy_plan}: the producer gathers its planned source runs into
    a field-major payload and ships it with the plan's
    {e destination-relative} [(offset, len)] runs, so the receiver
    scatters into its own instance without rebuilding the plan — both
    sides derive instance layouts from the same (deterministic) index
    spaces, so destination offsets computed by the sender are valid in
    the receiver's address space.

    A [Final] frame carries one whole instance instead: a finalize
    source partition's color, shipped by its owner to every other rank
    before the sequential finalize, checked by the receiver against its
    own instance's volume x fields. The end-of-run gather carries no
    state, only a digest of it. *)

(** One frame. [Data] is a body-phase copy fragment (synchronised by
    credits), [Credit] a write-after-read grant, [Coll] one hop of a
    tree collective, [Final] an owned instance of a finalize source, and
    [Stats]/[Bye] the end-of-run gather at rank 0. *)
type frame =
  | Data of {
      copy_id : int;
      epoch : int;  (** per (copy_id, src, dst) send counter, from 0 *)
      src_color : int;
      dst_color : int;
      fields : string list;  (** field names, validation only *)
      runs : (int * int) array;  (** destination (offset, len) runs *)
      payload : float array;  (** field-major, [volume] floats a field *)
    }
  | Credit of { copy_id : int; src_color : int; dst_color : int }
  | Coll of {
      seq : int;  (** global collective sequence number *)
      dir : [ `Up | `Down ];
      values : (int * float) array;
          (** [`Up]: (color, partial) contributions; [`Down]: a single
              [(0, result)] pair, or empty for a barrier *)
    }
  | Final of {
      copy_id : int;  (** the finalize copy reading the instance *)
      src_color : int;  (** the instance's color in the copy's source *)
      fields : string list;  (** the fields that copy reads *)
      payload : float array;  (** field-major, the whole instance *)
    }
  | Stats of {
      rank : int;
      msgs : int;
      bytes : int;
      retries : int;
      digest : string;
          (** 16-byte digest of the rank's canonical final state
              ({!Launch.digest}) *)
    }
  | Bye of { rank : int }

exception Malformed of string
(** Raised by {!decode} on a version mismatch, unknown tag, truncated
    body, trailing bytes or a digest that is not 16 bytes. *)

val encode : frame -> Bytes.t
val decode : Bytes.t -> frame

val kind : frame -> string
(** Short label for traces and diagnostics ("data", "credit", ...). *)
