(** Stall watchdog for truly parallel (domains) execution.

    The cooperative stepper can prove a deadlock by sweeping every live
    shard once; real domains cannot, so a monitor domain polls the run's
    state instead. The client supplies [observe], which must report
    (cheaply, typically under the run's monitor lock):

    - [`Done] — the run completed; the watchdog exits.
    - [`Running n] — at least one shard is executing (not blocked in a
      wait); [n] is the run's monotonic progress counter.
    - [`Quiescent n] — every live shard is blocked in a wait.

    The watchdog trips — calls [trip] exactly once, from the monitor
    domain — when the run stays [`Quiescent] with an unchanged progress
    counter for [timeout] seconds. [trip] should record a diagnostic and
    wake all waiters so they can raise. *)

type observation = [ `Done | `Running of int | `Quiescent of int ]

type t

val start :
  ?poll:float ->
  timeout:float ->
  observe:(unit -> observation) ->
  trip:(unit -> unit) ->
  unit ->
  t
(** [poll] defaults to 10ms (clamped by callers as needed). *)

val stop : t -> unit
(** Signal the monitor domain to exit and join it; returns at once, without
    waiting out the current poll. Safe to call whether or not the dog has
    tripped. *)
