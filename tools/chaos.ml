(* Chaos soak: random programs x fault policies x schedulers, wall-clock
   bounded. Every run arms the deterministic fault injector and requires
   the final region contents and scalars to be bitwise identical to the
   fault-free sequential reference — injected transient leaf failures
   (rolled back and retried), delayed releases and shard stalls must all
   be invisible in the results. A run whose fault schedule exhausts a
   retry cap is counted as "killed" (the expected outcome, not a bug);
   a Deadlock or a result mismatch is a bug.

     dune exec tools/chaos.exe -- [seconds] [start-seed]

   A short run is wired into `dune runtest`. Diagnostics go through the
   level-filtered {!Obs.Log} logger: mismatches and deadlocks print at
   error level, the final tally at info (set CRC_LOG=info to see it); a
   clean run is silent and exits 0. *)

open Regions
open Ir

let region_data ctx prog =
  List.concat_map
    (fun rname ->
      let r = Program.find_region prog rname in
      let inst = Interp.Run.region_instance ctx r in
      List.map
        (fun f -> (rname, Field.name f, Physical.to_alist inst f))
        r.Region.fields)
    (Program.region_names prog)

let mk_policy ~leaf ~delays =
  {
    Resilience.Fault.leaf_fail_rate = (if leaf then 0.1 else 0.);
    leaf_retries = 6;
    release_delay_rate = (if delays then 0.05 else 0.);
    release_delay_steps = 2;
    stall_rate = (if delays then 0.05 else 0.);
    stall_steps = 2;
    net_fail_rate = 0.;
    net_retries = 0;
    delay_seconds = 0.0005;
    max_faults = 1_000_000;
  }

let policies =
  [
    ("leaf", mk_policy ~leaf:true ~delays:false);
    ("delays", mk_policy ~leaf:false ~delays:true);
    ("mixed", mk_policy ~leaf:true ~delays:true);
  ]

let () =
  let argv k default =
    if Array.length Sys.argv > k then
      match float_of_string_opt Sys.argv.(k) with
      | Some v -> v
      | None ->
          Printf.eprintf "chaos: bad argument %S\nusage: chaos [seconds] [start-seed]\n"
            Sys.argv.(k);
          exit 2
    else default
  in
  let budget = argv 1 5.0 in
  let seed0 = int_of_float (argv 2 0.) in
  let deadline = Unix.gettimeofday () +. budget in
  let runs = ref 0
  and faults = ref 0
  and killed = ref 0
  and bad = ref 0
  and seed = ref seed0 in
  while Unix.gettimeofday () < deadline do
    let s = !seed in
    incr seed;
    let prog1 = Test_fixtures.Fixtures.random_program s in
    let ctx1 = Interp.Run.create prog1 in
    Interp.Run.run ctx1;
    let want =
      ( region_data ctx1 prog1,
        List.sort compare (Interp.Run.scalars ctx1) )
    in
    List.iter
      (fun shards ->
        List.iter
          (fun (pname, policy) ->
            List.iter
              (fun sched ->
                if Unix.gettimeofday () < deadline then begin
                  let prog2 = Test_fixtures.Fixtures.random_program s in
                  let compiled =
                    Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog2
                  in
                  let ctx2 = Interp.Run.create compiled.Spmd.Prog.source in
                  let fault =
                    Resilience.Fault.create ~policy ~seed:(s lxor 0x5EED) ()
                  in
                  incr runs;
                  match
                    Spmd.Exec.run ~sched ~fault ~watchdog:10. compiled ctx2
                  with
                  | () ->
                      faults := !faults + Resilience.Fault.injected fault;
                      let got =
                        ( region_data ctx2 prog2,
                          List.sort compare (Interp.Run.scalars ctx2) )
                      in
                      if got <> want then begin
                        incr bad;
                        Obs.Log.err "MISMATCH seed=%d shards=%d policy=%s" s
                          shards pname
                      end
                  | exception Resilience.Fault.Injected _ ->
                      (* The schedule exhausted a retry cap: a legitimate
                         crash, exercised separately by restart_demo. *)
                      incr killed
                  | exception Spmd.Exec.Deadlock d ->
                      incr bad;
                      Obs.Log.err "DEADLOCK seed=%d shards=%d policy=%s:\n%s" s
                        shards pname
                        (Resilience.Diag.to_string d)
                end)
              [ `Round_robin; `Random ((s * 31) + shards); `Domains ])
          policies)
      [ 2; 3 ]
  done;
  Obs.Log.info
    "chaos done: seeds [%d..%d], %d runs, %d injected faults, %d killed, %d bad"
    seed0 (!seed - 1) !runs !faults !killed !bad;
  exit (if !bad > 0 then 1 else 0)
