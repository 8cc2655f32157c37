(* Unit tests for the conformance harness: generator well-formedness and
   determinism, spec JSON round-trips, the differential oracle on known
   seeds, the shrinker's contract, and the race sanitizer flagging a
   deliberately removed sync op. *)

open Conform

(* ---------- generator ---------- *)

let test_generator_wellformed () =
  for seed = 0 to 59 do
    let prog = Gen.program seed in
    match Ir.Check.check prog with
    | Ok () -> ()
    | Error errs ->
        Alcotest.failf "seed %d: Ir.Check errors: %s" seed
          (String.concat "; "
             (List.map
                (fun (e : Ir.Check.error) -> e.where ^ ": " ^ e.what)
                errs))
  done

let test_generator_deterministic () =
  for seed = 0 to 19 do
    let a = Gen.spec seed and b = Gen.spec seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d deterministic" seed)
      true (Spec.equal a b)
  done;
  (* Different seeds almost surely give different specs. *)
  let distinct = ref 0 in
  for seed = 0 to 19 do
    if not (Spec.equal (Gen.spec seed) (Gen.spec (seed + 1000))) then
      incr distinct
  done;
  Alcotest.(check bool) "seeds vary" true (!distinct > 10)

let test_spec_json_roundtrip () =
  for seed = 0 to 39 do
    let s = Gen.spec seed in
    let s' = Spec.of_json (Spec.to_json s) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d round-trips" seed)
      true (Spec.equal s s');
    (* And through the actual string form, as repro files store it. *)
    let s'' =
      Spec.of_json (Obs.Json.of_string_exn (Obs.Json.to_string (Spec.to_json s)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d round-trips via string" seed)
      true (Spec.equal s s'')
  done

let test_generator_eligible () =
  (* Unless the spec opted into [loop_if], the generated time loop must be
     replicable: compiling must produce at least one Replicated item. *)
  let replicated = ref 0 and total = ref 0 in
  for seed = 0 to 59 do
    let s = Gen.spec seed in
    if not s.Spec.loop_if then begin
      incr total;
      let prog = Gen.build s in
      let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) prog in
      let has_block =
        List.exists
          (function Spmd.Prog.Replicated _ -> true | Spmd.Prog.Seq _ -> false)
          compiled.Spmd.Prog.items
      in
      if has_block then incr replicated
      else
        Alcotest.failf "seed %d: eligible spec compiled to no replicated block"
          seed
    end
  done;
  Alcotest.(check bool) "some specs tested" true (!total > 30)

(* ---------- oracle ---------- *)

let test_oracle_smoke () =
  (* Every configuration (3 schedulers + net loopback, sanitizer armed)
     must reproduce the implicit semantics bitwise on these seeds. *)
  for seed = 0 to 7 do
    match Oracle.check ~shards:(Fuzz.shards_of_case seed) (Gen.spec seed) with
    | None -> ()
    | Some f ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Oracle.pp_failure f)
  done

(* A spec whose compiled form has sync ops to drop (a ghost copy chain) —
   the raw material for the mutation tests. The time loop must run at
   least twice: a Release dropped after a copy's *last* occurrence is
   semantically harmless, so with [steps = 1] some drops are (correctly)
   undetectable. *)
let find_mutable_case () =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no spec with sync ops found"
    else
      let spec = Gen.spec seed in
      let prog = Gen.build spec in
      let compiled =
        Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) prog
      in
      if spec.Spec.steps >= 2 && Mutate.sync_count compiled > 0 then
        (seed, spec, compiled)
      else go (seed + 1)
  in
  go 0

let test_mutation_caught () =
  (* Dropping any single sync op must be caught by the oracle (race,
     mismatch, or deadlock) under the deterministic stepper schedules. *)
  let _, spec, compiled = find_mutable_case () in
  let n = Mutate.sync_count compiled in
  Alcotest.(check bool) "has sync ops" true (n > 0);
  for k = 0 to n - 1 do
    match
      Oracle.check ~shards:3 ~mutate:k ~scheds:Oracle.stepper_scheds spec
    with
    | Some _ -> ()
    | None ->
        let _, desc = Option.get (Mutate.drop_nth_sync compiled k) in
        Alcotest.failf "dropping sync op %d (%s) went undetected" k desc
  done

let test_sanitizer_flags_dropped_await () =
  (* At least one dropped sync op must surface as a sanitizer Race (not
     just a value mismatch): the race detector is an independent check of
     Cr.Sync, and happens-before detection means the deterministic
     round-robin schedule suffices. *)
  let _, spec, compiled = find_mutable_case () in
  let n = Mutate.sync_count compiled in
  let kinds =
    List.init n (fun k ->
        match
          Oracle.check ~shards:3 ~mutate:k ~scheds:Oracle.stepper_scheds spec
        with
        | Some f -> Some f.Oracle.kind
        | None -> None)
  in
  Alcotest.(check bool)
    "some mutation flagged as a race" true
    (List.mem (Some Oracle.Race) kinds)

(* ---------- shrinker ---------- *)

let test_shrinker_on_mutation () =
  (* End-to-end negative control: a campaign with a sync op dropped must
     fail, auto-shrink, and leave a replayable repro of <= 5 tasks that
     still fails with the same kind. *)
  let seed, _, _ = find_mutable_case () in
  let out = Filename.temp_file "crc-fuzz-test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let report =
        Fuzz.campaign ~out ~mutate:0 ~shards:3 ~seed ~count:1 ()
      in
      match report.Fuzz.repro with
      | None -> Alcotest.fail "mutated campaign did not fail"
      | Some (r, path) ->
          Alcotest.(check bool)
            "shrunk to <= 5 tasks" true
            (Spec.task_count r.Repro.spec <= 5);
          Alcotest.(check bool)
            "shrunk spec no larger than original" true
            (Spec.size r.Repro.spec <= Spec.size (Gen.spec seed));
          (* Replay from the file reproduces a failure of the same kind. *)
          (match Fuzz.replay path with
          | Some f' ->
              Alcotest.(check string)
                "same failure kind"
                (Oracle.kind_to_string r.Repro.failure.Oracle.kind)
                (Oracle.kind_to_string f'.Oracle.kind)
          | None -> Alcotest.fail "shrunk repro no longer fails"))

let test_shrinker_strictly_decreases () =
  (* Candidate moves must strictly reduce the size measure or be filtered;
     [Shrink.run] with an always-true predicate must terminate at a
     local minimum no larger than the input. *)
  for seed = 0 to 9 do
    let s = Gen.spec seed in
    let s' = Shrink.run (fun _ -> true) s in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d shrinks monotonically" seed)
      true
      (Spec.size s' <= Spec.size s);
    List.iter
      (fun c ->
        ignore (Spec.size c) (* candidates must at least be well-typed *))
      (Shrink.candidates s)
  done

let () =
  Alcotest.run "conform"
    [
      ( "generator",
        [
          Alcotest.test_case "wellformed" `Quick test_generator_wellformed;
          Alcotest.test_case "deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "json-roundtrip" `Quick test_spec_json_roundtrip;
          Alcotest.test_case "eligible" `Quick test_generator_eligible;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "smoke" `Quick test_oracle_smoke;
          Alcotest.test_case "mutations-caught" `Quick test_mutation_caught;
          Alcotest.test_case "sanitizer-races" `Quick
            test_sanitizer_flags_dropped_await;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "mutation-shrinks" `Quick
            test_shrinker_on_mutation;
          Alcotest.test_case "monotone" `Quick
            test_shrinker_strictly_decreases;
        ] );
    ]
