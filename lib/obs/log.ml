(* Level-filtered logging for runtime diagnostics.

   Everything that used to go straight to stdout/stderr from the executor
   and the fuzz campaigns routes through here, so `dune runtest` is
   quiet by default and a capturing sink can record the noise. Thread-safe:
   the domains backend logs concurrently. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 3 | Warn -> 2 | Info -> 1 | Debug -> 0

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let of_string = function
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

(* Default level: warnings and errors only, overridable via CRC_LOG. *)
let default_level () =
  match Option.bind (Sys.getenv_opt "CRC_LOG") of_string with
  | Some l -> l
  | None -> Warn

let current = Atomic.make (default_level ())
let set_level l = Atomic.set current l
let level () = Atomic.get current
let enabled l = severity l >= severity (Atomic.get current)

type sink = level -> string -> unit

let mutex = Mutex.create ()

let stderr_sink lvl msg =
  Mutex.lock mutex;
  Printf.eprintf "[%s] %s\n%!" (level_name lvl) msg;
  Mutex.unlock mutex

let sink : sink Atomic.t = Atomic.make stderr_sink
let set_sink s = Atomic.set sink s
let reset_sink () = Atomic.set sink stderr_sink

let log lvl fmt =
  Printf.ksprintf
    (fun msg -> if enabled lvl then (Atomic.get sink) lvl msg)
    fmt

let err fmt = log Error fmt
let warn fmt = log Warn fmt
let info fmt = log Info fmt
let debug fmt = log Debug fmt
