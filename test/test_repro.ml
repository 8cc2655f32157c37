(* Regression test for the seed-951 miscompile hunt: a 7-shard compile of
   the frozen program in repro951.json must reproduce the sequential
   interpreter bitwise under every oracle configuration (sanitizer armed).
   The program once exposed a scheduler-dependent divergence; the domains
   scheduler runs several trials since its interleaving varies. *)

let repro = Conform.Repro.load "repro951.json"

let replay config () =
  match
    Conform.Oracle.check_config ~shards:repro.Conform.Repro.shards ~mutate:None
      ~watchdog:10. config repro.Conform.Repro.spec
  with
  | None -> ()
  | Some f -> Alcotest.failf "%a" Conform.Oracle.pp_failure f

let test_all_columns () =
  match Conform.Oracle.check ~shards:repro.Conform.Repro.shards repro.Conform.Repro.spec with
  | None -> ()
  | Some f -> Alcotest.failf "%a" Conform.Oracle.pp_failure f

let () =
  Alcotest.run "repro951"
    [
      ( "seed 951 @ 7 shards",
        [
          Alcotest.test_case "cooperative steppers" `Quick (fun () ->
              replay "round_robin" ();
              replay "random" ());
          Alcotest.test_case "domains x3" `Quick (fun () ->
              for _ = 1 to 3 do replay "domains" () done);
          Alcotest.test_case "net loopback" `Quick (replay "net/loopback");
          Alcotest.test_case "every oracle column" `Quick test_all_columns;
        ] );
    ]
