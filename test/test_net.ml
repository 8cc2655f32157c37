(* Tests for the distributed shard runtime (lib/net): wire-protocol
   round-trips and malformed-frame rejection, loopback-vs-reference
   equivalence on the four mini-apps and on generated conformance
   programs (the acceptance property: the message-passing backend's
   results are bitwise equal to the shared-memory Plans backend), the
   multi-process launcher over Unix-domain and TCP sockets, recovery
   from injected transient send faults, and the kill-a-shard crash path
   producing a structured stall report instead of a hang. *)

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
        dst_color = -1;
        fields = [ "out" ];
        runs = [| (8, 8) |];
        payload = Array.init 8 float_of_int;
      };
    Wire.Snapshot { rank = 2; blob = "arbitrary \x00 bytes \xff" };
    Wire.Stats { rank = 1; msgs = 100; bytes = 4096; retries = 2; injected = 2 };
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
  expect_malformed "version mismatch" bad_version

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

let test_loopback_apps () =
  List.iter
    (fun (name, nodes, build) ->
      List.iter
        (fun shards ->
          let expected = reference_state (build ~nodes) in
          let compiled =
            Cr.Pipeline.compile (Cr.Pipeline.default ~shards) (build ~nodes)
          in
          let ctx = Interp.Run.create compiled.Spmd.Prog.source in
          Launch.run_loopback ~sanitize:true compiled ctx;
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %d shards matches the interpreter" name
               shards)
            true
            (Launch.states_equal expected (Launch.snapshot_state ctx)))
        [ 2; 4 ])
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
        ] );
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
          Alcotest.test_case "transient fault recovery" `Quick
            test_launch_fault_recovery;
          Alcotest.test_case "kill shard" `Quick test_launch_kill_shard;
        ] );
    ]
