(** Level-filtered logger.

    Default level is [Warn] (overridable with the [CRC_LOG] environment
    variable: error/warn/info/debug), so routine progress chatter from the
    executor and the fuzz campaigns is invisible in `dune runtest` while
    failures still print. The sink is replaceable for capture. *)

type level = Error | Warn | Info | Debug

val of_string : string -> level option
val level_name : level -> string

val set_level : level -> unit
val level : unit -> level
val enabled : level -> bool

type sink = level -> string -> unit

val set_sink : sink -> unit
(** Replace the stderr sink (e.g. to capture a long fuzz run's noise). The sink
    only receives messages passing the level filter. *)

val reset_sink : unit -> unit

val err : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a
val debug : ('a, unit, string, unit) format4 -> 'a
