(* Tests for the distributed shard runtime (lib/net): wire-protocol
   round-trips and malformed-frame rejection, bitwise final-state
   equality, loopback-vs-reference equivalence on the four mini-apps and
   on generated conformance programs (the acceptance property: the
   message-passing backend's results are bitwise equal to the
   shared-memory Plans backend), the multi-process launcher over
   Unix-domain and TCP sockets (the four apps at 2/4/8 shards, two
   replicated blocks, a heavy-state pennant run that must not hang in
   the finalize exchange), recovery from injected transient send faults,
   and the kill-a-shard crash path producing a structured stall report
   instead of a hang. *)

open Net

(* ---------- wire protocol ---------- *)

let sample_frames =
  [
    Wire.Data
      {
        copy_id = 7;
        epoch = 3;
        src_color = 1;
        dst_color = 2;
        fields = [ "x"; "flux" ];
        runs = [| (0, 4); (12, 2) |];
        payload = [| 1.5; -0.0; Float.max_float; 4.25; 5.; 6.; 0.125; 1e-300;
                     2.; 3.; 4.; 5. |];
      };
    Wire.Data
      {
        copy_id = 0;
        epoch = 0;
        src_color = 0;
        dst_color = 0;
        fields = [];
        runs = [||];
        payload = [||];
      };
    Wire.Credit { copy_id = 42; src_color = 5; dst_color = 0 };
    Wire.Coll { seq = 9; dir = `Up; values = [| (0, 1.5); (3, -2.25) |] };
    Wire.Coll { seq = 10; dir = `Down; values = [| (0, 0.75) |] };
    Wire.Coll { seq = 11; dir = `Down; values = [||] };
    Wire.Final
      {
        copy_id = 3;
        src_color = 2;
        fields = [ "out"; "flux" ];
        payload = Array.init 16 (fun k -> float_of_int k -. 0.5);
      };
    Wire.Final { copy_id = 4; src_color = 0; fields = []; payload = [||] };
    Wire.Stats
      {
        rank = 1;
        msgs = 100;
        bytes = 4096;
        retries = 2;
        digest = Digest.string "arbitrary \x00 bytes \xff";
      };
    Wire.Bye { rank = 3 };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun f ->
      let f' = Wire.decode (Wire.encode f) in
      Alcotest.(check bool)
        (Printf.sprintf "frame %s round-trips" (Wire.kind f))
        true
        (compare f f' = 0))
    sample_frames

let test_wire_malformed () =
  let expect_malformed name b =
    match Wire.decode b with
    | _ -> Alcotest.failf "%s: decode accepted a malformed frame" name
    | exception Wire.Malformed _ -> ()
  in
  expect_malformed "empty" (Bytes.create 0);
  expect_malformed "bad tag" (Bytes.of_string "\x01\xee");
  let good = Wire.encode (List.hd sample_frames) in
  expect_malformed "truncated" (Bytes.sub good 0 (Bytes.length good - 3));
  let trailing = Bytes.extend good 0 2 in
  expect_malformed "trailing bytes" trailing;
  let bad_version = Bytes.copy good in
  Bytes.set bad_version 0 '\xee';
  expect_malformed "version mismatch" bad_version;
  List.iter
    (fun digest ->
      expect_malformed
        (Printf.sprintf "%d-byte digest" (String.length digest))
        (Wire.encode
           (Wire.Stats { rank = 1; msgs = 0; bytes = 0; retries = 0; digest })))
    [ ""; "short"; String.make 17 'x' ]

(* A [Final] frame whose payload is not its instance's volume x fields is
   rejected where it is applied, before it writes anything: rank 1's
   instances arrive at rank 0 short by all but one float. Rank 0 steps
   first in each round and sends first, so it consumes the bogus frames
   before rank 1 has sent the real ones. *)
let test_final_wrong_length () =
  let compiled =
    Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2)
      (Apps.Stencil.program (Apps.Stencil.test_config ~nodes:2))
  in
  let b =
    List.find_map
      (function Spmd.Prog.Replicated b -> Some b | Spmd.Prog.Seq _ -> None)
      compiled.Spmd.Prog.items
    |> Option.get
  in
  let source = compiled.Spmd.Prog.source in
  let nets = Array.map Engine.make_net (Transport.loopback ~size:2 ()) in
  let ctxs = Array.init 2 (fun _ -> Interp.Run.create source) in
  List.iter
    (function
      | Spmd.Prog.Seq stmts -> Array.iter (fun c -> Interp.Run.run_stmts c stmts) ctxs
      | Spmd.Prog.Replicated _ -> ())
    compiled.Spmd.Prog.items;
  let engines =
    Array.init 2 (fun r -> Engine.start_block nets.(r) ~source ctxs.(r) b)
  in
  let bogus = ref 0 in
  List.iter
    (function
      | Spmd.Prog.Copy { Spmd.Prog.copy_id; src = Spmd.Prog.Opart ps; fields; _ } ->
          let colors =
            Regions.Partition.color_count (Ir.Program.find_partition source ps)
          in
          List.iter
            (fun color ->
              incr bogus;
              Engine.send_frame nets.(1) ~dst:0
                (Wire.Final
                   {
                     copy_id;
                     src_color = color;
                     fields = List.map Regions.Field.name fields;
                     payload = [| 0. |];
                   }))
            (Spmd.Prog.colors_of_shard ~shards:2 ~colors 1)
      | _ -> ())
    b.Spmd.Prog.finalize;
  Alcotest.(check bool) "rank 1 owns finalize sources" true (!bogus > 0);
  let rec drive n =
    if n = 0 then Alcotest.fail "the exchange never completed";
    Array.iter (fun net -> ignore (Engine.pump net ~timeout:0.)) nets;
    Array.iter (fun e -> ignore (Engine.step e)) engines;
    if not (Array.for_all Engine.finished engines) then drive (n - 1)
  in
  match drive 100_000 with
  | () -> Alcotest.fail "a short Final payload was applied"
  | exception Wire.Malformed msg ->
      Alcotest.(check string) "rejected for its length" "payload of 1 floats"
        (String.sub msg 0 (min 19 (String.length msg)))

(* ---------- bitwise state equality ---------- *)

let test_states_bitwise () =
  let st scalar column =
    { Launch.scalars = [ ("x", scalar) ]; regions = [ ("R", [ ("v", column) ]) ] }
  in
  let nan_state () = st Float.nan [| 1.; Float.nan |] in
  Alcotest.(check bool)
    "a NaN state equals itself" true
    (Launch.states_equal (nan_state ()) (nan_state ()));
  Alcotest.(check bool)
    "0.0 and -0.0 scalars differ" false
    (Launch.states_equal (st 0. [| 1. |]) (st (-0.) [| 1. |]));
  Alcotest.(check bool)
    "0.0 and -0.0 elements differ" false
    (Launch.states_equal (st 1. [| 0. |]) (st 1. [| -0. |]));
  Alcotest.(check bool)
    "digests follow equality" true
    (Launch.digest (nan_state ()) = Launch.digest (nan_state ())
    && Launch.digest (st 0. [| 1. |]) <> Launch.digest (st (-0.) [| 1. |]))

(* ---------- loopback vs the sequential reference: four apps ---------- *)

(* Per-app node counts chosen so the compiled execution is bitwise equal
   to the interpreter under {!Spmd.Exec} too (circuit's 4-node graph has
   a benign cross-color reduction reorder there — a pre-existing
   property of the shared-memory backend, not of the wire). *)
let apps : (string * int * (nodes:int -> Ir.Program.t)) list =
  [
    ( "stencil",
      4,
      fun ~nodes -> Apps.Stencil.program (Apps.Stencil.test_config ~nodes) );
    ( "circuit",
      8,
      fun ~nodes -> Apps.Circuit.program (Apps.Circuit.test_config ~nodes) );
    ( "pennant",
      4,
      fun ~nodes -> Apps.Pennant.program (Apps.Pennant.test_config ~nodes) );
    ( "miniaero",
      4,
      fun ~nodes -> Apps.Miniaero.program (Apps.Miniaero.test_config ~nodes) );
  ]

let reference_state prog =
  let ctx = Interp.Run.create prog in
  Interp.Run.run ctx;
  Launch.snapshot_state ctx

(* At each app's own node count, and at 8 nodes, which every shard count
   divides. *)
let test_loopback_apps () =
  List.iter
    (fun (name, app_nodes, build) ->
      List.iter
        (fun (nodes, shards) ->
          let expected = reference_state (build ~nodes) in
          let compiled =
            Cr.Pipeline.compile (Cr.Pipeline.default ~shards) (build ~nodes)
          in
          let ctx = Interp.Run.create compiled.Spmd.Prog.source in
          Launch.run_loopback ~sanitize:true compiled ctx;
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d nodes) @ %d shards matches the interpreter"
               name nodes shards)
            true
            (Launch.states_equal expected (Launch.snapshot_state ctx)))
        [ (app_nodes, 2); (app_nodes, 4); (8, 2); (8, 4); (8, 8) ])
    apps

(* ---------- loopback vs the Plans backend: generated programs ---------- *)

let prop_loopback_matches_plans =
  QCheck.Test.make ~count:15 ~name:"loopback = Plans on Conform.Gen programs"
    QCheck.(int_range 0 2000)
    (fun seed ->
      let shards = 2 + (seed mod 3) in
      let spec = Conform.Gen.spec seed in
      let via_plans =
        let prog = Conform.Gen.build spec in
        let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
        let ctx = Interp.Run.create compiled.Spmd.Prog.source in
        Spmd.Exec.run ~sched:`Round_robin ~sanitize:true compiled ctx;
        Launch.snapshot_state ctx
      in
      let via_loopback =
        let prog = Conform.Gen.build spec in
        let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
        let ctx = Interp.Run.create compiled.Spmd.Prog.source in
        Launch.run_loopback ~sanitize:true compiled ctx;
        Launch.snapshot_state ctx
      in
      Launch.states_equal via_plans via_loopback)

(* The oracle's own loopback column, standalone: net/loopback against the
   implicit interpreter with no executor configs in the mix. *)
let test_oracle_net_column () =
  for seed = 0 to 9 do
    match
      Conform.Oracle.check
        ~shards:(Conform.Fuzz.shards_of_case seed)
        ~scheds:[] (Conform.Gen.spec seed)
    with
    | None -> ()
    | Some f ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Conform.Oracle.pp_failure f)
  done

(* ---------- multi-process launcher ---------- *)

let stencil_compiled ~shards =
  let prog = Apps.Stencil.program (Apps.Stencil.test_config ~nodes:4) in
  Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog

let stencil_reference () =
  reference_state (Apps.Stencil.program (Apps.Stencil.test_config ~nodes:4))

let check_outcome name expected (o : Launch.outcome) =
  if not o.Launch.ok then
    Alcotest.failf "%s failed: %s" name (String.concat "; " o.Launch.detail);
  (match o.Launch.state with
  | None -> Alcotest.failf "%s: no final state" name
  | Some st ->
      Alcotest.(check bool)
        (name ^ " matches the interpreter")
        true
        (Launch.states_equal expected st));
  Alcotest.(check bool) (name ^ " sent messages") true (o.Launch.msgs > 0);
  Alcotest.(check bool)
    (name ^ " counted wire bytes")
    true
    (o.Launch.bytes_on_wire > 0)

let test_launch_unix () =
  let expected = stencil_reference () in
  let o = Launch.launch ~transport:`Unix ~watchdog:20. (stencil_compiled ~shards:4) in
  check_outcome "unix launch" expected o

let test_launch_tcp () =
  let expected = stencil_reference () in
  let o = Launch.launch ~transport:`Tcp ~watchdog:20. (stencil_compiled ~shards:2) in
  check_outcome "tcp launch" expected o

(* The four apps at 8 nodes, divisible by every shard count, as forked
   processes on Unix-domain sockets: bitwise equal to the interpreter. *)
let test_apps_8_nodes () =
  List.iter
    (fun (name, _, build) ->
      let expected = reference_state (build ~nodes:8) in
      List.iter
        (fun shards ->
          check_outcome
            (Printf.sprintf "%s @ %d shards" name shards)
            expected
            (Launch.launch ~transport:`Unix ~watchdog:20.
               (Cr.Pipeline.compile (Cr.Pipeline.default ~shards) (build ~nodes:8))))
        [ 2; 4; 8 ])
    apps

(* Two replicated blocks: the second block's input comes through the
   roots the first block's finalize wrote, on every rank. *)
let test_two_blocks () =
  let build = Test_fixtures.Fixtures.two_blocks in
  let expected = reference_state (build ()) in
  let compile () = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) (build ()) in
  let compiled = compile () in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  Launch.run_loopback ~sanitize:true compiled ctx;
  Alcotest.(check bool)
    "two blocks over loopback" true
    (Launch.states_equal expected (Launch.snapshot_state ctx));
  check_outcome "two blocks over unix" expected
    (Launch.launch ~transport:`Unix ~watchdog:20. (compile ()))

(* Heavy per-rank state (2 pieces of 64x64 zones per node, 2 ranks, 1
   step): each finalize instance is larger than a socket buffer, so two
   ranks writing to each other at once would both block in write(2),
   where no watchdog can fire. The launch runs in its own process group
   under a deadline and is killed whole if it misses it, so a hang fails
   the test instead of stalling the suite. *)
let test_launch_heavy_state () =
  let build () =
    Apps.Pennant.program
      {
        (Apps.Pennant.test_config ~nodes:2) with
        Apps.Pennant.pieces_per_node = 2;
        piece_zones = (64, 64);
        timesteps = 1;
      }
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      ignore (Unix.setsid ());
      let code =
        try
          let expected = reference_state (build ()) in
          let o =
            Launch.launch ~transport:`Unix ~watchdog:20.
              (Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) (build ()))
          in
          match o.Launch.state with
          | Some st when o.Launch.ok && Launch.states_equal expected st -> 0
          | _ ->
              prerr_endline (String.concat "; " o.Launch.detail);
              1
        with e ->
          prerr_endline (Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      let deadline = Unix.gettimeofday () +. 60. in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.05;
            wait ()
        | 0, _ ->
            (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            Alcotest.fail "heavy-state launch still running after 60 s"
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
            Alcotest.failf "heavy-state launch failed (%s)"
              (match status with
              | Unix.WEXITED n -> Printf.sprintf "exit %d" n
              | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "signal %d" n)
      in
      wait ()

let test_launch_fault_recovery () =
  (* Transient send faults on every rank: each failed send is retried
     (reconnecting on TCP), and the run must still complete bitwise
     clean. The schedule is seed-deterministic, so the retry count is
     reproducible. *)
  let policy =
    {
      Resilience.Fault.no_faults with
      net_fail_rate = 0.2;
      net_retries = 5;
      max_faults = 200;
    }
  in
  let fault = Resilience.Fault.create ~policy ~seed:42 () in
  let expected = stencil_reference () in
  let o =
    Launch.launch ~transport:`Unix ~fault ~watchdog:20.
      (stencil_compiled ~shards:4)
  in
  check_outcome "faulty unix launch" expected o;
  Alcotest.(check bool)
    "some sends were retried" true
    (o.Launch.send_retries > 0)

let test_launch_kill_shard () =
  (* Hard-kill rank 1 after its 5th physical send. The survivors must
     not hang: their watchdogs produce structured deadlock reports, and
     the parent's outcome carries the stall diagnosis plus rank 1's
     exit code. *)
  let o =
    Launch.launch ~transport:`Unix ~kill:(1, 5) ~watchdog:3.
      (stencil_compiled ~shards:4)
  in
  Alcotest.(check bool) "killed run is not ok" false o.Launch.ok;
  Alcotest.(check bool)
    "structured stall report present" true
    (o.Launch.diag <> None);
  (match List.assoc_opt 1 o.Launch.exits with
  | Some s ->
      Alcotest.(check string) "rank 1 exited via the kill switch" "exit 9" s
  | None -> Alcotest.fail "rank 1 exit status missing");
  Alcotest.(check bool) "detail is not empty" true (o.Launch.detail <> [])

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed" `Quick test_wire_malformed;
          Alcotest.test_case "final of the wrong length" `Quick
            test_final_wrong_length;
        ] );
      ( "state",
        [ Alcotest.test_case "bitwise equality" `Quick test_states_bitwise ] );
      ( "loopback",
        [
          Alcotest.test_case "four apps" `Quick test_loopback_apps;
          QCheck_alcotest.to_alcotest prop_loopback_matches_plans;
          Alcotest.test_case "oracle net column" `Quick test_oracle_net_column;
        ] );
      ( "launch",
        [
          Alcotest.test_case "unix sockets" `Quick test_launch_unix;
          Alcotest.test_case "tcp sockets" `Quick test_launch_tcp;
          Alcotest.test_case "four apps at 8 nodes" `Quick test_apps_8_nodes;
          Alcotest.test_case "two blocks" `Quick test_two_blocks;
          Alcotest.test_case "heavy state does not hang" `Quick
            test_launch_heavy_state;
          Alcotest.test_case "transient fault recovery" `Quick
            test_launch_fault_recovery;
          Alcotest.test_case "kill shard" `Quick test_launch_kill_shard;
        ] );
    ]
