(* Regression test for the seed-951 miscompile hunt (formerly
   tools/repro951.ml and repro951b.ml): a 7-shard compile of the
   fixture's random program must reproduce the sequential interpreter
   bitwise under every scheduler and the distributed loopback
   backend. The seed is kept because it once
   exposed a scheduler-dependent divergence; the domains scheduler runs
   several trials since its interleaving varies. *)

let seed = 951
let shards = 7

let reference () =
  let prog = Test_fixtures.Fixtures.random_program seed in
  let ctx = Interp.Run.create prog in
  Interp.Run.run ctx;
  Net.Launch.snapshot_state ctx

let compile () =
  let prog = Test_fixtures.Fixtures.random_program seed in
  Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog

let check_equal name expected got =
  if not (Net.Launch.states_equal expected got) then
    Alcotest.failf "%s: diverged from the sequential interpreter" name

let test_steppers () =
  let expected = reference () in
  List.iter
    (fun (name, sched) ->
      let compiled = compile () in
      let ctx = Interp.Run.create compiled.Spmd.Prog.source in
      Spmd.Exec.run ~sched compiled ctx;
      check_equal name expected (Net.Launch.snapshot_state ctx))
    [ ("round_robin", `Round_robin); ("random", `Random ((seed * 31) + 7)) ]

let test_domains () =
  let expected = reference () in
  for trial = 1 to 3 do
    let compiled = compile () in
    let ctx = Interp.Run.create compiled.Spmd.Prog.source in
    Spmd.Exec.run ~sched:`Domains compiled ctx;
    check_equal (Printf.sprintf "domains trial %d" trial) expected
      (Net.Launch.snapshot_state ctx)
  done

let test_loopback () =
  let expected = reference () in
  let compiled = compile () in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  Net.Launch.run_loopback ~sanitize:true compiled ctx;
  check_equal "net loopback" expected (Net.Launch.snapshot_state ctx)

let () =
  Alcotest.run "repro951"
    [
      ( "seed 951 @ 7 shards",
        [
          Alcotest.test_case "cooperative steppers" `Quick test_steppers;
          Alcotest.test_case "domains x3" `Quick test_domains;
          Alcotest.test_case "net loopback" `Quick test_loopback;
        ] );
    ]
