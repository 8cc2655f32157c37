(* Resilience subsystem tests: structured deadlock diagnostics under every
   scheduler, deterministic fault injection (same seed => same schedule and
   bit-identical results), leaf-task retry/rollback, checkpoint/restart at
   time-loop boundaries, the stall watchdog, and the task-pool fixes
   (backtrace preservation, concurrent shutdown). *)

open Regions
open Ir

let check = Alcotest.check
let fv = Field.make "v"
let fw = Field.make "w"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------- tiny mis-synchronized block (mirrors test_spmd's harness) ---- *)

let tiny_env () =
  let b = Program.Builder.create ~name:"tiny" in
  let r =
    Program.Builder.region b ~name:"R" (Index_space.of_range 8) [ fv; fw ]
  in
  let p =
    Program.Builder.partition b ~name:"P" (fun ~name ->
        Partition.block ~name r ~pieces:2)
  in
  let _q =
    Program.Builder.partition b ~name:"Q" (fun ~name ->
        Partition.image ~name ~target:r ~src:p (fun e -> [ (e + 4) mod 8 ]))
  in
  Program.Builder.space b ~name:"I" 2;
  let bump =
    Task.make ~name:"bump"
      ~params:[ { Task.pname = "out"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i (Accessor.get accs.(0) fv i +. 1.));
        0.)
  in
  let observe =
    Task.make ~name:"observe"
      ~params:
        [
          { Task.pname = "out"; privs = [ Privilege.writes fw ] };
          { Task.pname = "inp"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fw i
              (Accessor.get accs.(0) fw i
              +. (0.5 *. Accessor.get accs.(1) fv ((i + 4) mod 8))));
        0.)
  in
  Program.Builder.task b bump;
  Program.Builder.task b observe;
  Program.Builder.finish b

let launch task rargs =
  Spmd.Prog.Launch { space = "I"; launch = { Types.task; rargs; sargs = [||] } }

let part p = Types.Part (p, Types.Id)

let mk_copy id =
  {
    Spmd.Prog.copy_id = id;
    src = Spmd.Prog.Opart "P";
    dst = Spmd.Prog.Opart "Q";
    fields = [ fv ];
    reduce = None;
    pairs = `Sparse;
  }

let tiny_block body ~credits =
  {
    Spmd.Prog.shards = 2;
    init =
      [
        Spmd.Prog.Copy
          {
            Spmd.Prog.copy_id = 100;
            src = Spmd.Prog.Oregion "R";
            dst = Spmd.Prog.Opart "P";
            fields = [ fv; fw ];
            reduce = None;
            pairs = `Sparse;
          };
        Spmd.Prog.Copy
          {
            Spmd.Prog.copy_id = 101;
            src = Spmd.Prog.Oregion "R";
            dst = Spmd.Prog.Opart "Q";
            fields = [ fv ];
            reduce = None;
            pairs = `Sparse;
          };
      ];
    body;
    finalize = [];
    copies = [ mk_copy 0 ];
    credits;
  }

(* Second iteration's copy starves on WAR credits: the Release is missing. *)
let missing_release_body =
  [
    Spmd.Prog.For_time
      {
        var = "t";
        count = 2;
        body =
          [
            launch "bump" [ part "P" ];
            Spmd.Prog.Copy (mk_copy 0);
            Spmd.Prog.Await 0;
            launch "observe" [ part "P"; part "Q" ];
          ];
      };
  ]

let run_tiny ?watchdog ~sched body ~credits =
  let prog = tiny_env () in
  let ctx = Interp.Run.create prog in
  match sched with
  | `Loopback ->
      (* The same block as a one-block program, every shard a rank over
         the wire substrate. *)
      Net.Launch.run_loopback
        {
          Spmd.Prog.source = prog;
          items = [ Spmd.Prog.Replicated (tiny_block body ~credits) ];
        }
        ctx
  | #Spmd.Exec.sched as sched ->
      Spmd.Exec.run_block ~sched ?watchdog ~source:prog ctx
        (tiny_block body ~credits)

(* ---------- deadlock diagnostics: all three scheds and the wire -------- *)

let test_deadlock_diag sched () =
  match run_tiny ~sched ~watchdog:1.0 missing_release_body ~credits:[] with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Spmd.Exec.Deadlock d ->
      check Alcotest.int "every shard reported" 2
        (List.length d.Resilience.Diag.shards);
      List.iter
        (fun (s : Resilience.Diag.shard) ->
          check Alcotest.bool
            (Printf.sprintf "shard %d names its blocked instruction"
               s.Resilience.Diag.sid)
            true
            (s.Resilience.Diag.instr <> None))
        d.Resilience.Diag.shards;
      (* The starved channel shows up with its counters. *)
      let msg = Resilience.Diag.to_string d in
      check Alcotest.bool "message names the starved copy" true
        (contains ~sub:"copy#0" msg);
      check Alcotest.bool "message shows war counters" true
        (contains ~sub:"war=0" msg);
      (* At least one shard is stuck issuing the copy with zero credits. *)
      check Alcotest.bool "a shard is blocked at the copy" true
        (List.exists
           (fun (s : Resilience.Diag.shard) ->
             match s.Resilience.Diag.wait with
             | Resilience.Diag.At_copy chans ->
                 List.exists
                   (fun (c : Resilience.Diag.chan) ->
                     c.Resilience.Diag.copy_id = 0 && c.Resilience.Diag.war = 0)
                   chans
             | _ -> false)
           d.Resilience.Diag.shards)

(* A well-synchronized program with injected stalls must NOT trip the
   watchdog (stalled shards are slow, not dead). *)
let test_stall_is_not_deadlock () =
  let body =
    [
      Spmd.Prog.For_time
        {
          var = "t";
          count = 2;
          body =
            [
              launch "bump" [ part "P" ];
              Spmd.Prog.Copy (mk_copy 0);
              Spmd.Prog.Await 0;
              launch "observe" [ part "P"; part "Q" ];
              Spmd.Prog.Release 0;
            ];
        };
    ]
  in
  let policy =
    {
      Resilience.Fault.no_faults with
      Resilience.Fault.stall_rate = 0.4;
      stall_steps = 5;
      delay_seconds = 0.002;
    }
  in
  List.iter
    (fun sched ->
      let prog = tiny_env () in
      let ctx = Interp.Run.create prog in
      let fault = Resilience.Fault.create ~policy ~seed:3 () in
      Spmd.Exec.run_block ~sched ~watchdog:1.0 ~fault ~source:prog ctx
        (tiny_block body ~credits:[]);
      check Alcotest.bool "stalls actually fired" true
        (Resilience.Fault.injected fault > 0))
    [ `Round_robin; `Domains ]

(* ---------- satellite (d): fault-injection determinism ------------------ *)

let region_data ctx prog =
  List.concat_map
    (fun rname ->
      let r = Program.find_region prog rname in
      let inst = Interp.Run.region_instance ctx r in
      List.map
        (fun f -> (rname, Field.name f, Physical.to_alist inst f))
        r.Region.fields)
    (Program.region_names prog)

let chaos_policy =
  {
    Resilience.Fault.leaf_fail_rate = 0.15;
    leaf_retries = 6;
    release_delay_rate = 0.05;
    release_delay_steps = 2;
    stall_rate = 0.05;
    stall_steps = 2;
    net_fail_rate = 0.;
    net_retries = 0;
    delay_seconds = 0.0005;
    max_faults = 1_000_000;
  }

let run_app ?fault ?stats ~sched mk =
  let prog = mk () in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  Spmd.Exec.run ~sched ?fault ?stats compiled ctx;
  (region_data ctx prog, List.sort compare (Interp.Run.scalars ctx))

let test_fault_determinism mk () =
  let reference = run_app ~sched:`Round_robin mk in
  let with_seed sched seed =
    let fault = Resilience.Fault.create ~policy:chaos_policy ~seed () in
    let out = run_app ~fault ~sched mk in
    (out, Resilience.Fault.schedule fault, Resilience.Fault.injected fault)
  in
  let out_rr, sched_rr, fired_rr = with_seed `Round_robin 7 in
  check Alcotest.bool "faults fired at seed 7" true (fired_rr > 0);
  (* Same seed, same scheduler: identical fault schedule, twice over. *)
  let out_rr2, sched_rr2, _ = with_seed `Round_robin 7 in
  check Alcotest.bool "same seed => identical schedule" true
    (sched_rr = sched_rr2);
  check Alcotest.bool "same seed => identical results" true (out_rr = out_rr2);
  (* The schedule is a function of the seed, not of the interleaving. *)
  let out_rand, sched_rand, _ = with_seed (`Random 99) 7 in
  let out_dom, sched_dom, _ = with_seed `Domains 7 in
  check Alcotest.bool "schedule survives random interleaving" true
    (sched_rr = sched_rand);
  check Alcotest.bool "schedule survives real domains" true
    (sched_rr = sched_dom);
  (* Injected transient faults are invisible in the results: rollback plus
     re-execution reproduces the fault-free run bit for bit. *)
  check Alcotest.bool "faulty run == fault-free run (stepper)" true
    (out_rr = reference);
  check Alcotest.bool "faulty run == fault-free run (random)" true
    (out_rand = reference);
  check Alcotest.bool "faulty run == fault-free run (domains)" true
    (out_dom = reference);
  (* A different seed draws a different schedule (overwhelmingly). *)
  let _, sched_other, _ = with_seed `Round_robin 8 in
  check Alcotest.bool "different seed => different schedule" true
    (sched_rr <> sched_other)

let test_retry_counters () =
  let mk () = Apps.Stencil.program (Apps.Stencil.test_config ~nodes:2) in
  let stats = Spmd.Exec.fresh_stats () in
  let fault = Resilience.Fault.create ~policy:chaos_policy ~seed:7 () in
  let faulty = run_app ~fault ~stats ~sched:`Round_robin mk in
  let reference = run_app ~sched:`Round_robin mk in
  check Alcotest.bool "results identical" true (faulty = reference);
  let attempts = Atomic.get stats.Spmd.Exec.attempts in
  let retries = Atomic.get stats.Spmd.Exec.retries in
  check Alcotest.bool "attempts counted" true (attempts > 0);
  check Alcotest.bool "retries happened and were counted" true (retries > 0);
  check Alcotest.bool "each retry is an extra attempt" true (attempts > retries);
  check Alcotest.bool "injected >= retries" true
    (Atomic.get stats.Spmd.Exec.injected >= retries)

(* Retries exhausted: the injected fault escapes as Fault.Injected. *)
let test_retry_cap_escapes () =
  let mk () = Apps.Stencil.program (Apps.Stencil.test_config ~nodes:2) in
  let policy =
    {
      Resilience.Fault.no_faults with
      Resilience.Fault.leaf_fail_rate = 1.0;
      leaf_retries = 2;
    }
  in
  let stats = Spmd.Exec.fresh_stats () in
  let fault = Resilience.Fault.create ~policy ~seed:1 () in
  (match run_app ~fault ~stats ~sched:`Round_robin mk with
  | _ -> Alcotest.fail "expected Fault.Injected to escape"
  | exception Resilience.Fault.Injected { occurrence; _ } ->
      check Alcotest.int "failed on the last allowed attempt" 2 occurrence);
  check Alcotest.int "cap+1 attempts on the doomed task" 3
    (Atomic.get stats.Spmd.Exec.attempts)

(* A shard whose fault escapes ends the domains run at once: the survivors
   leave instead of parking until the stall watchdog (5 s here) fires. *)
let test_domains_failure_is_prompt () =
  let prog =
    Apps.Stencil.program
      { (Apps.Stencil.test_config ~nodes:4) with Apps.Stencil.timesteps = 20 }
  in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:4) prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  let policy =
    {
      Resilience.Fault.no_faults with
      Resilience.Fault.leaf_fail_rate = 0.05;
      leaf_retries = 0;
    }
  in
  let fault = Resilience.Fault.create ~policy ~seed:1 () in
  let t0 = Unix.gettimeofday () in
  (match Spmd.Exec.run ~sched:`Domains ~fault ~watchdog:5. compiled ctx with
  | () -> Alcotest.fail "expected Fault.Injected to escape"
  | exception Resilience.Fault.Injected _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed >= 1. then
    Alcotest.failf "the failing run took %.2f s to return" elapsed

(* ---------- tentpole: checkpoint/restart at time-loop boundaries -------- *)

let test_checkpoint_restart sched () =
  let mk () = Test_fixtures.Fixtures.fig2 () in
  let compile p =
    Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) p
  in
  (* Reference: plain run. *)
  let p1 = mk () in
  let c1 = compile p1 in
  let ctx1 = Interp.Run.create c1.Spmd.Prog.source in
  Spmd.Exec.run ~sched c1 ctx1;
  let want = (region_data ctx1 p1, List.sort compare (Interp.Run.scalars ctx1)) in
  (* Checkpointing run: a cut after every iteration. *)
  let p2 = mk () in
  let c2 =
    Spmd.Prog.map_blocks (Spmd.Prog.with_checkpoints ~every:1) (compile p2)
  in
  let cuts = ref [] in
  let stats = Spmd.Exec.fresh_stats () in
  let ctx2 = Interp.Run.create c2.Spmd.Prog.source in
  Spmd.Exec.run ~sched ~stats
    ~checkpoint_sink:(fun ck -> cuts := ck :: !cuts)
    c2 ctx2;
  check Alcotest.bool "checkpointing does not change results" true
    ((region_data ctx2 p2, List.sort compare (Interp.Run.scalars ctx2)) = want);
  check Alcotest.int "one cut per iteration" 3 (List.length !cuts);
  check Alcotest.int "stats counted the cuts" 3
    (Atomic.get stats.Spmd.Exec.checkpoints);
  (* Kill after iteration 1; reload the middle cut from disk and resume. *)
  let ck =
    List.find (fun ck -> ck.Resilience.Checkpoint.iter = 1) !cuts
  in
  let path = Filename.temp_file "ctrlrep" ".ckpt" in
  Resilience.Checkpoint.save ck ~path;
  let ck = Resilience.Checkpoint.load ~path in
  Sys.remove path;
  check Alcotest.int "cut round-trips through disk" 1
    ck.Resilience.Checkpoint.iter;
  let p3 = mk () in
  let c3 = compile p3 in
  let ctx3 = Interp.Run.create c3.Spmd.Prog.source in
  Spmd.Exec.run ~sched ~restore:ck c3 ctx3;
  check Alcotest.bool "restart reproduces the uninterrupted run" true
    ((region_data ctx3 p3, List.sort compare (Interp.Run.scalars ctx3)) = want)

let test_checkpoint_every_k () =
  (* every=2 over 3 iterations: exactly one cut (after iteration 1). *)
  let p = Test_fixtures.Fixtures.fig2 () in
  let c =
    Spmd.Prog.map_blocks
      (Spmd.Prog.with_checkpoints ~every:2)
      (Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) p)
  in
  let cuts = ref [] in
  let ctx = Interp.Run.create c.Spmd.Prog.source in
  Spmd.Exec.run ~checkpoint_sink:(fun ck -> cuts := ck :: !cuts) c ctx;
  check Alcotest.int "one cut" 1 (List.length !cuts);
  check Alcotest.int "taken after iteration 1" 1
    (List.hd !cuts).Resilience.Checkpoint.iter

let test_checkpoint_noop_without_sink () =
  let mk () = Test_fixtures.Fixtures.fig2 () in
  let p1 = mk () and p2 = mk () in
  let c1 = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) p1 in
  let c2 =
    Spmd.Prog.map_blocks (Spmd.Prog.with_checkpoints ~every:1)
      (Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) p2)
  in
  let ctx1 = Interp.Run.create c1.Spmd.Prog.source in
  let ctx2 = Interp.Run.create c2.Spmd.Prog.source in
  Spmd.Exec.run c1 ctx1;
  Spmd.Exec.run c2 ctx2;
  check Alcotest.bool "instrumented block without a sink is inert" true
    (region_data ctx1 p1 = region_data ctx2 p2)

(* ---------- watchdog unit behaviour ------------------------------------- *)

let test_watchdog_trips_on_quiescence () =
  let tripped = Atomic.make false in
  let dog =
    Resilience.Watchdog.start ~poll:0.005 ~timeout:0.05
      ~observe:(fun () -> `Quiescent 7)
      ~trip:(fun () -> Atomic.set tripped true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get tripped)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Resilience.Watchdog.stop dog;
  check Alcotest.bool "tripped on frozen quiescence" true (Atomic.get tripped)

let test_watchdog_ignores_progress () =
  let tripped = Atomic.make false in
  let n = Atomic.make 0 in
  let dog =
    Resilience.Watchdog.start ~poll:0.005 ~timeout:0.05
      ~observe:(fun () -> `Quiescent (Atomic.fetch_and_add n 1))
      ~trip:(fun () -> Atomic.set tripped true)
      ()
  in
  Unix.sleepf 0.25;
  Resilience.Watchdog.stop dog;
  check Alcotest.bool "no trip while the counter moves" false
    (Atomic.get tripped);
  let tripped2 = Atomic.make false in
  let dog2 =
    Resilience.Watchdog.start ~poll:0.005 ~timeout:0.05
      ~observe:(fun () -> `Running 42)
      ~trip:(fun () -> Atomic.set tripped2 true)
      ()
  in
  Unix.sleepf 0.25;
  Resilience.Watchdog.stop dog2;
  check Alcotest.bool "no trip while running" false (Atomic.get tripped2)

(* Stopping the dog must not wait out its poll interval: every domains run
   ends with a stop. *)
let test_watchdog_stops_promptly () =
  let dog =
    Resilience.Watchdog.start ~poll:0.5 ~timeout:60.
      ~observe:(fun () -> `Running 0)
      ~trip:(fun () -> Alcotest.fail "tripped")
      ()
  in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Resilience.Watchdog.stop dog;
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool (Printf.sprintf "stop took %.3fs" dt) true (dt < 0.1)

(* ---------- satellites (a) + (b): task-pool fixes ------------------------ *)

exception Boom of int

(* Non-trivial call depth so the captured backtrace has frames. *)
let rec deep n = if n = 0 then raise (Boom 42) else 1 + deep (n - 1)

let test_pool_await_backtrace () =
  Taskpool.Pool.with_pool ~domains:2 (fun p ->
      let fut =
        Taskpool.Pool.async p (fun () ->
            Printexc.record_backtrace true;
            deep 5)
      in
      match Taskpool.Pool.await fut with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 42 ->
          let bt = Printexc.get_raw_backtrace () in
          check Alcotest.bool "raise-site backtrace preserved" true
            (Printexc.raw_backtrace_length bt > 0)
      | exception e ->
          Alcotest.fail ("unexpected exception " ^ Printexc.to_string e))

let test_pool_parallel_for_backtrace () =
  Taskpool.Pool.with_pool ~domains:2 (fun p ->
      match
        Taskpool.Pool.parallel_for p ~lo:0 ~hi:200 (fun i ->
            Printexc.record_backtrace true;
            if i = 57 then ignore (deep 3))
      with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 42 ->
          let bt = Printexc.get_raw_backtrace () in
          check Alcotest.bool "raise-site backtrace preserved" true
            (Printexc.raw_backtrace_length bt > 0)
      | exception e ->
          Alcotest.fail ("unexpected exception " ^ Printexc.to_string e))

let test_pool_concurrent_shutdown () =
  (* Racing shutdowns must neither double-join a worker (fatal error) nor
     return before the pool is actually drained. *)
  for _round = 1 to 10 do
    let p = Taskpool.Pool.create ~domains:3 () in
    let counter = Atomic.make 0 in
    for _ = 1 to 50 do
      ignore (Taskpool.Pool.async p (fun () -> Atomic.incr counter))
    done;
    let closers =
      List.init 4 (fun _ -> Domain.spawn (fun () -> Taskpool.Pool.shutdown p))
    in
    Taskpool.Pool.shutdown p;
    List.iter Domain.join closers;
    (* shutdown drains queued work before joining workers. *)
    check Alcotest.int "work drained" 50 (Atomic.get counter);
    (* Idempotent after the fact, and submits are refused. *)
    Taskpool.Pool.shutdown p;
    check Alcotest.bool "submit after shutdown rejected" true
      (match Taskpool.Pool.async p (fun () -> ()) with
      | _ -> false
      | exception Invalid_argument _ -> true)
  done

(* ---------- fault primitive determinism --------------------------------- *)

let test_fault_draw_deterministic () =
  let mk () =
    Resilience.Fault.create
      ~policy:
        {
          Resilience.Fault.default_policy with
          Resilience.Fault.leaf_fail_rate = 0.3;
          stall_rate = 0.3;
        }
      ~seed:123 ()
  in
  let drain t =
    List.concat_map
      (fun shard ->
        List.init 200 (fun _ ->
            [
              Resilience.Fault.draw t (Resilience.Fault.Leaf_task "f") ~shard;
              Resilience.Fault.draw t Resilience.Fault.Shard_stall ~shard;
            ]))
      [ 0; 1; 2 ]
  in
  let a = mk () and b = mk () in
  check Alcotest.bool "identical decision streams" true (drain a = drain b);
  check Alcotest.bool "identical schedules" true
    (Resilience.Fault.schedule a = Resilience.Fault.schedule b);
  check Alcotest.bool "some faults fired" true (Resilience.Fault.injected a > 0)

(* ---------- suite -------------------------------------------------------- *)

let () =
  let stencil () = Apps.Stencil.program (Apps.Stencil.test_config ~nodes:2) in
  let circuit () = Apps.Circuit.program (Apps.Circuit.test_config ~nodes:2) in
  Alcotest.run "resilience"
    [
      ( "deadlock-diagnostics",
        [
          Alcotest.test_case "round-robin" `Quick
            (test_deadlock_diag `Round_robin);
          Alcotest.test_case "random" `Quick (test_deadlock_diag (`Random 5));
          Alcotest.test_case "domains (watchdog)" `Quick
            (test_deadlock_diag `Domains);
          Alcotest.test_case "net loopback" `Quick
            (test_deadlock_diag `Loopback);
          Alcotest.test_case "stall is not deadlock" `Quick
            test_stall_is_not_deadlock;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "draw determinism" `Quick
            test_fault_draw_deterministic;
          Alcotest.test_case "stencil determinism" `Quick
            (test_fault_determinism stencil);
          Alcotest.test_case "circuit determinism" `Quick
            (test_fault_determinism circuit);
          Alcotest.test_case "retry counters" `Quick test_retry_counters;
          Alcotest.test_case "retry cap escapes" `Quick test_retry_cap_escapes;
          Alcotest.test_case "domains failure is prompt" `Quick
            test_domains_failure_is_prompt;
        ] );
      ( "checkpoint-restart",
        [
          Alcotest.test_case "stepper" `Quick
            (test_checkpoint_restart `Round_robin);
          Alcotest.test_case "domains" `Quick (test_checkpoint_restart `Domains);
          Alcotest.test_case "every k" `Quick test_checkpoint_every_k;
          Alcotest.test_case "no-op without sink" `Quick
            test_checkpoint_noop_without_sink;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "trips on quiescence" `Quick
            test_watchdog_trips_on_quiescence;
          Alcotest.test_case "ignores progress" `Quick
            test_watchdog_ignores_progress;
          Alcotest.test_case "stops promptly" `Quick
            test_watchdog_stops_promptly;
        ] );
      ( "taskpool",
        [
          Alcotest.test_case "await preserves backtrace" `Quick
            test_pool_await_backtrace;
          Alcotest.test_case "parallel_for preserves backtrace" `Quick
            test_pool_parallel_for_backtrace;
          Alcotest.test_case "concurrent shutdown" `Quick
            test_pool_concurrent_shutdown;
        ] );
    ]
