open Regions
module Prog = Spmd.Prog
module Exec = Spmd.Exec

type state = {
  scalars : (string * float) list;
  regions : (string * (string * float array) list) list;
}

let snapshot_state ctx =
  {
    scalars = List.sort compare (Interp.Run.scalars ctx);
    regions =
      Interp.Run.root_instances ctx
      |> List.map (fun (name, inst) ->
             ( name,
               Physical.fields inst
               |> List.map (fun f ->
                      (Field.name f, Array.copy (Physical.column inst f)))
               |> List.sort compare ))
      |> List.sort compare;
  }

(* Canonical encoding: counts and names length-prefixed, floats as their
   IEEE-754 bits, no sharing — so equal encodings mean bitwise equal
   states (a NaN equals itself, 0.0 and -0.0 differ). *)
let canonical (s : state) =
  let b = Buffer.create 4096 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let float v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let name n =
    int (String.length n);
    Buffer.add_string b n
  in
  let list f l =
    int (List.length l);
    List.iter f l
  in
  list
    (fun (k, v) ->
      name k;
      float v)
    s.scalars;
  list
    (fun (r, cols) ->
      name r;
      list
        (fun (f, col) ->
          name f;
          int (Array.length col);
          Array.iter float col)
        cols)
    s.regions;
  Buffer.contents b

let digest s = Digest.string (canonical s)
let states_equal a b = String.equal (canonical a) (canonical b)

let shard_count (p : Prog.t) =
  List.fold_left
    (fun acc item ->
      match item with
      | Prog.Replicated b -> (
          match acc with
          | Some n when n <> b.Prog.shards ->
              invalid_arg
                (Printf.sprintf
                   "Net.Launch: blocks disagree on shard count (%d vs %d)" n
                   b.Prog.shards)
          | _ -> Some b.Prog.shards)
      | Prog.Seq _ -> acc)
    None p.Prog.items

(* ---------- deterministic loopback ---------- *)

let run_loopback ?fault ?stats ?trace ?(sanitize = false) (prog : Prog.t) ctx =
  match shard_count prog with
  | None ->
      (* No replicated block: the program is purely sequential. *)
      List.iter
        (function
          | Prog.Seq stmts -> Interp.Run.run_stmts ctx stmts
          | Prog.Replicated _ -> assert false)
        prog.Prog.items
  | Some size ->
      let tps = Transport.loopback ?fault ~size () in
      let san =
        if sanitize then Some (Spmd.Sanitizer.create ~nshards:size) else None
      in
      let nets = Array.map (fun tp -> Engine.make_net ?stats ?trace ?san tp) tps in
      let ctxs =
        Array.init size (fun r ->
            if r = 0 then ctx else Interp.Run.create prog.Prog.source)
      in
      List.iter
        (function
          | Prog.Seq stmts ->
              Array.iter (fun c -> Interp.Run.run_stmts c stmts) ctxs
          | Prog.Replicated b ->
              let engines =
                Array.init size (fun r ->
                    Engine.start_block nets.(r) ~source:prog.Prog.source
                      ctxs.(r) b)
              in
              let rec drive () =
                if not (Array.for_all Engine.finished engines) then begin
                  let progressed = ref false in
                  Array.iter
                    (fun net ->
                      if Engine.pump net ~timeout:0. then progressed := true)
                    nets;
                  Array.iter
                    (fun eng ->
                      if not (Engine.finished eng) then
                        match Engine.step eng with
                        | `Progress -> progressed := true
                        | `Done | `Blocked -> ())
                    engines;
                  if not !progressed then
                    (* Exact detection: no queued frame anywhere and no
                       engine can move — globally blocked by construction. *)
                    raise
                      (Exec.Deadlock
                         (Engine.diagnose nets.(0)
                            ~reason:
                              (Printf.sprintf
                                 "all %d ranks blocked with empty queues" size)
                            (Array.to_list engines)));
                  drive ()
                end
              in
              drive ())
        prog.Prog.items;
      (* Every rank replayed the same program; their final states must be
         bitwise identical (the distributed invariant the socket launcher
         checks across processes). *)
      let reference = snapshot_state ctxs.(0) in
      Array.iteri
        (fun r c ->
          if r > 0 && not (states_equal (snapshot_state c) reference) then
            failwith
              (Printf.sprintf
                 "Net.Launch.run_loopback: rank %d diverged from rank 0" r))
        ctxs

(* ---------- multi-process launcher ---------- *)

type outcome = {
  ok : bool;
  state : state option;
  detail : string list;
  diag : Resilience.Diag.t option;
  exits : (int * string) list;
  msgs : int;
  bytes_on_wire : int;
  send_retries : int;
}

let signal_name s =
  if s = Sys.sigkill then "KILL"
  else if s = Sys.sigterm then "TERM"
  else if s = Sys.sigsegv then "SEGV"
  else if s = Sys.sigpipe then "PIPE"
  else string_of_int s

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s)

(* Child exit codes: 0 completed, 3 structured deadlock report, 2 crash,
   9 killed by the [?kill] switch. *)
let child_main mesh ~rank ~watchdog ?fault ?kill (prog : Prog.t) =
  let on_send =
    match kill with
    | Some (kr, after) when kr = rank ->
        let n = ref 0 in
        fun () ->
          incr n;
          if !n > after then Unix._exit 9
    | _ -> fun () -> ()
  in
  let code =
    try
      let tp = Transport.endpoint ?fault ~on_send mesh ~rank in
      let net = Engine.make_net tp in
      let ctx = Interp.Run.create prog.Prog.source in
      let size = Transport.size tp in
      try
        Engine.run_rank ~watchdog net prog ctx;
        let st = Transport.stats tp in
        Engine.send_frame net ~dst:0
          (Wire.Stats
             {
               rank;
               msgs = st.Transport.msgs_sent;
               bytes = st.Transport.bytes_sent;
               retries = st.Transport.retries;
               digest = digest (snapshot_state ctx);
             });
        for r = 0 to size - 1 do
          if r <> rank then
            try Engine.send_frame net ~dst:r (Wire.Bye { rank })
            with Transport.Peer_down _ -> ()
        done;
        Transport.close tp;
        0
      with
      | Exec.Deadlock d ->
          Printf.eprintf "[rank %d] %s\n%!" rank (Resilience.Diag.to_string d);
          3
      | e ->
          Printf.eprintf "[rank %d] %s\n%!" rank (Printexc.to_string e);
          2
    with e ->
      Printf.eprintf "[rank %d] %s\n%!" rank (Printexc.to_string e);
      2
  in
  Unix._exit code

let launch ?(transport = `Unix) ?fault ?kill ?(watchdog = 30.) ?stats ?trace
    (prog : Prog.t) =
  let size =
    match shard_count prog with
    | Some n -> n
    | None -> invalid_arg "Net.Launch.launch: program has no replicated block"
  in
  (match kill with
  | Some (r, _) when r <= 0 || r >= size ->
      invalid_arg
        "Net.Launch.launch: kill rank must be in 1..shards-1 (rank 0 reports \
         the outcome)"
  | _ -> ());
  let mesh =
    match transport with
    | `Unix -> Transport.unix_mesh ~size
    | `Tcp -> Transport.tcp_mesh ~size
  in
  flush stdout;
  flush stderr;
  let pids =
    List.init (size - 1) (fun k ->
        let rank = k + 1 in
        match Unix.fork () with
        | 0 -> child_main mesh ~rank ~watchdog ?fault ?kill prog
        | pid -> (rank, pid))
  in
  let tp = Transport.endpoint ?fault mesh ~rank:0 in
  let net = Engine.make_net ?stats ?trace tp in
  let ctx = Interp.Run.create prog.Prog.source in
  let result =
    try
      Engine.run_rank ~watchdog net prog ctx;
      (* End-of-run gather: every child owes its wire stats with the
         digest of its final state, and a goodbye. Bounded wait — a child
         that died after finishing its run but before the gather must not
         hang the parent. *)
      let deadline = Unix.gettimeofday () +. Float.max 5. watchdog in
      let complete () =
        List.length (Engine.stats_frames net) >= size - 1
        && List.length (Engine.byes net) >= size - 1
      in
      while (not (complete ())) && Unix.gettimeofday () < deadline do
        ignore (Engine.pump net ~timeout:0.05)
      done;
      if complete () then Ok ()
      else
        Error
          (`Stalled
             (Engine.diagnose net
                ~reason:"gather: end-of-run frames missing at the deadline" []))
    with
    | Exec.Deadlock d -> Error (`Stalled d)
    | e -> Error (`Crash e)
  in
  (* On failure, kill the survivors so reaping cannot hang. *)
  (match result with
  | Ok () -> ()
  | Error _ ->
      List.iter
        (fun (_, pid) ->
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        pids);
  let exits =
    List.map
      (fun (rank, pid) ->
        let _, status = Unix.waitpid [] pid in
        (rank, status_string status))
      pids
  in
  Transport.close tp;
  let pstats = Transport.stats tp in
  let msgs, bytes_on_wire, send_retries =
    List.fold_left
      (fun (m, b, r) (_, (cm, cb, cr, _)) -> (m + cm, b + cb, r + cr))
      ( pstats.Transport.msgs_sent,
        pstats.Transport.bytes_sent,
        pstats.Transport.retries )
      (Engine.stats_frames net)
  in
  let mismatches =
    match result with
    | Error _ -> []
    | Ok () ->
        let reference = digest (snapshot_state ctx) in
        List.filter_map
          (fun (rank, (_, _, _, d)) ->
            if String.equal d reference then None
            else
              Some
                (Printf.sprintf "rank %d: final state differs from rank 0" rank))
          (List.sort compare (Engine.stats_frames net))
  in
  let bad_exits = List.filter (fun (_, s) -> s <> "exit 0") exits in
  let detail =
    mismatches
    @ List.map (fun (r, s) -> Printf.sprintf "rank %d: %s" r s) bad_exits
    @ (match result with
      | Error (`Crash e) -> [ Printexc.to_string e ]
      | Error (`Stalled d) -> [ d.Resilience.Diag.reason ]
      | Ok () -> [])
  in
  {
    ok = (match result with Ok () -> true | Error _ -> false)
         && mismatches = [] && bad_exits = [];
    state = (match result with Ok () -> Some (snapshot_state ctx) | Error _ -> None);
    detail;
    diag = (match result with Error (`Stalled d) -> Some d | _ -> None);
    exits;
    msgs;
    bytes_on_wire;
    send_retries;
  }
