(* A stall watchdog for the domains backend: a monitor domain polls an
   [observe] closure and trips once the observed system has been
   quiescent — every shard blocked in a wait — with an unchanged
   progress counter for the full timeout. Quiescence is part of the
   predicate so a slow shard (long kernel, injected stall) that is
   *running* while others wait never trips the dog; only the state in
   which nobody can move does. *)

type observation = [ `Done | `Running of int | `Quiescent of int ]

(* The dog waits on [wake]'s read end between polls, so [stop] ends the
   wait at once by writing a byte instead of sleeping out the poll. *)
type t = { wake : Unix.file_descr * Unix.file_descr; dog : unit Domain.t }

let start ?(poll = 0.01) ~timeout ~observe ~trip () =
  let ((rd, _) as wake) = Unix.pipe ~cloexec:true () in
  let stopped () =
    match Unix.select [ rd ] [] [] poll with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  let dog =
    Domain.spawn (fun () ->
        let last = ref (-1) in
        let since = ref (Unix.gettimeofday ()) in
        let rec loop () =
          if not (stopped ()) then begin
            let now = Unix.gettimeofday () in
            match observe () with
            | `Done -> ()
            | `Running n ->
                last := n;
                since := now;
                loop ()
            | `Quiescent n ->
                if n <> !last then begin
                  last := n;
                  since := now;
                  loop ()
                end
                else if now -. !since >= timeout then trip ()
                else loop ()
          end
        in
        loop ())
  in
  { wake; dog }

let stop { wake = rd, wr; dog } =
  ignore (Unix.write_substring wr "x" 0 1);
  Domain.join dog;
  Unix.close rd;
  Unix.close wr
