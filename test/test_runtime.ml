(* Tests for the execution substrate: the domain pool, the sequential
   interpreter's order invariance, and the privilege strictness the
   interpreter enforces. *)

open Regions
open Ir

let check = Alcotest.check

(* ---------- taskpool ---------- *)

let test_pool_async () =
  Taskpool.Pool.with_pool ~domains:2 (fun pool ->
      let futures =
        List.init 20 (fun i ->
            Taskpool.Pool.async pool (fun () -> i * i))
      in
      let total =
        List.fold_left (fun acc f -> acc + Taskpool.Pool.await f) 0 futures
      in
      check Alcotest.int "sum of squares" 2470 total)

let test_pool_parallel_for () =
  Taskpool.Pool.with_pool ~domains:3 (fun pool ->
      let n = 1000 in
      let out = Array.make n 0 in
      Taskpool.Pool.parallel_for pool ~lo:0 ~hi:(n - 1) (fun i ->
          out.(i) <- 3 * i);
      let ok = ref true in
      Array.iteri (fun i v -> if v <> 3 * i then ok := false) out;
      check Alcotest.bool "all cells written" true !ok)

let test_pool_exception () =
  Taskpool.Pool.with_pool ~domains:2 (fun pool ->
      let f = Taskpool.Pool.async pool (fun () -> failwith "boom") in
      (try
         ignore (Taskpool.Pool.await f);
         Alcotest.fail "expected exception"
       with Failure m -> check Alcotest.string "message" "boom" m);
      (* The pool survives a failed task. *)
      check Alcotest.int "pool still works" 7
        (Taskpool.Pool.await (Taskpool.Pool.async pool (fun () -> 7))))

let test_pool_map () =
  Taskpool.Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Taskpool.Pool.parallel_map_array pool
          (fun x -> x *. 2.)
          (Array.init 100 float_of_int)
      in
      check (Alcotest.float 0.) "last" 198. out.(99))

(* ---------- interpreter order invariance ---------- *)

let run_with order prog =
  let ctx = Interp.Run.create prog in
  Interp.Run.run ~order ctx;
  Conform.Oracle.snapshot ctx

let test_order_invariance () =
  (* Generated programs have independent launch iterations, so results
     must be bitwise identical under any execution order — including real
     parallel execution on domains. *)
  List.iter
    (fun seed ->
      let run order = run_with order (Conform.Gen.program seed) in
      let reference = run `Seq in
      List.iter
        (fun order ->
          check Alcotest.bool
            (Printf.sprintf "seed %d order-invariant" seed)
            true
            (Conform.Oracle.same_state (run order) reference))
        [ `Random 1; `Random 99 ];
      Taskpool.Pool.with_pool ~domains:3 (fun pool ->
          check Alcotest.bool
            (Printf.sprintf "seed %d pool-invariant" seed)
            true
            (Conform.Oracle.same_state (run (`Pool pool)) reference)))
    [ 2; 17; 23 ]

let test_fig2_functional () =
  (* Hand-checked first iteration of the Fig. 2 program on a small
     instance: B[i] = F(A[i]) = 1.5*A[i] + 2 with A initialised to
     0.5*i + 1. *)
  let prog = Test_fixtures.Fixtures.fig2 ~n:8 ~nt:2 ~timesteps:1 () in
  let ctx = Interp.Run.create prog in
  Interp.Run.run ctx;
  let b = Interp.Run.instance ctx "B" in
  check (Alcotest.float 1e-12) "B[3] after TF" ((1.5 *. 2.5) +. 2.)
    (Physical.get b Test_fixtures.Fixtures.fv 3);
  (* A[j] = G(B[h(j)]) = 0.8*B[(3j+1) mod 8] - 1. *)
  let a = Interp.Run.instance ctx "A" in
  let h j = ((j * 3) + 1) mod 8 in
  let expected_b e = (1.5 *. ((0.5 *. float_of_int e) +. 1.)) +. 2. in
  check (Alcotest.float 1e-12) "A[2] after TG"
    ((0.8 *. expected_b (h 2)) -. 1.)
    (Physical.get a Test_fixtures.Fixtures.fv 2)

(* ---------- privilege strictness at the interpreter level ---------- *)

let test_kernel_violation_detected () =
  let fv = Test_fixtures.Fixtures.fv in
  let b = Program.Builder.create ~name:"violation" in
  let _r = Program.Builder.region b ~name:"R" (Index_space.of_range 8) [ fv ] in
  let bad_task =
    Task.make ~name:"bad"
      ~params:[ { Task.pname = "r"; privs = [ Privilege.reads fv ] } ]
      (fun accs _ ->
        (* Writes under a read privilege: must raise. *)
        Accessor.set accs.(0) fv 0 1.;
        0.)
  in
  Program.Builder.task b bad_task;
  let module Syn = Program.Syntax in
  Program.Builder.body b [ Syn.run (Syn.call "bad" [ Syn.whole "R" ]) ];
  let prog = Program.Builder.finish b in
  let ctx = Interp.Run.create prog in
  try
    Interp.Run.run ctx;
    Alcotest.fail "privilege violation not detected"
  with Accessor.Privilege_violation _ -> ()

(* ---------- checker ---------- *)

let test_checker_rejects () =
  let fv = Test_fixtures.Fixtures.fv in
  let expect_errors name build =
    let b = Program.Builder.create ~name in
    build b;
    match Check.check (Program.Builder.finish b) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected a checker error" name
  in
  let module Syn = Program.Syntax in
  let writer =
    Task.make ~name:"w"
      ~params:[ { Task.pname = "out"; privs = [ Privilege.writes fv ] } ]
      (fun _ _ -> 0.)
  in
  expect_errors "unknown task" (fun b ->
      let _ = Program.Builder.region b ~name:"R" (Index_space.of_range 8) [ fv ] in
      Program.Builder.body b [ Syn.run (Syn.call "nope" [ Syn.whole "R" ]) ]);
  expect_errors "write through aliased partition" (fun b ->
      let r = Program.Builder.region b ~name:"R" (Index_space.of_range 8) [ fv ] in
      let p =
        Program.Builder.partition b ~name:"P" (fun ~name ->
            Partition.block ~name r ~pieces:2)
      in
      let _ =
        Program.Builder.partition b ~name:"Q" (fun ~name ->
            Partition.image ~name ~target:r ~src:p (fun e -> [ e; (e + 1) mod 8 ]))
      in
      Program.Builder.space b ~name:"I" 2;
      Program.Builder.task b writer;
      Program.Builder.body b [ Syn.forall "I" (Syn.call "w" [ Syn.part "Q" ]) ]);
  expect_errors "arity mismatch" (fun b ->
      let r = Program.Builder.region b ~name:"R" (Index_space.of_range 8) [ fv ] in
      let _ =
        Program.Builder.partition b ~name:"P" (fun ~name ->
            Partition.block ~name r ~pieces:2)
      in
      Program.Builder.space b ~name:"I" 2;
      Program.Builder.task b writer;
      Program.Builder.body b
        [ Syn.forall "I" (Syn.call "w" [ Syn.part "P"; Syn.part "P" ]) ]);
  expect_errors "unbound scalar" (fun b ->
      Program.Builder.body b [ Syn.assign "x" Syn.(!.1.0) ])

let () =
  Alcotest.run "runtime"
    [
      ( "taskpool",
        [
          Alcotest.test_case "async/await" `Quick test_pool_async;
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "exceptions" `Quick test_pool_exception;
          Alcotest.test_case "map array" `Quick test_pool_map;
        ] );
      ( "interp",
        [
          Alcotest.test_case "order invariance" `Quick test_order_invariance;
          Alcotest.test_case "fig2 functional values" `Quick
            test_fig2_functional;
          Alcotest.test_case "privilege violation detected" `Quick
            test_kernel_violation_detected;
        ] );
      ("check", [ Alcotest.test_case "rejections" `Quick test_checker_rejects ]);
    ]
