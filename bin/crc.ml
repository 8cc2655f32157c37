(* crc — the control replication compiler driver.

   Subcommands:
     inspect   print an application's implicit program and its compiled
               SPMD form
     run       execute an application functionally (sequential and
               control-replicated) and compare results
     simulate  estimate per-timestep cost on a simulated machine
     sweep     weak-scaling series for one application (Figures 6-9)
     table1    dynamic intersection timings (Table 1)
     fuzz      differential conformance fuzzing of the whole pipeline *)

open Cmdliner

type app = Stencil | Miniaero | Pennant | Circuit

let app_conv =
  let parse = function
    | "stencil" -> Ok Stencil
    | "miniaero" -> Ok Miniaero
    | "pennant" -> Ok Pennant
    | "circuit" -> Ok Circuit
    | s -> Error (`Msg (Printf.sprintf "unknown application %S" s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | Stencil -> "stencil"
      | Miniaero -> "miniaero"
      | Pennant -> "pennant"
      | Circuit -> "circuit")
  in
  Arg.conv (parse, print)

let app_arg =
  Arg.(
    required
    & pos 0 (some app_conv) None
    & info [] ~docv:"APP" ~doc:"Application: stencil, miniaero, pennant or circuit.")

let nodes_arg =
  Arg.(value & opt int 4 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Machine nodes.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"S" ~doc:"Shard count (defaults to nodes).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering the command \
           (compile-pipeline phases and execution on the wall clock, \
           simulated-machine timelines with a marked critical path on the \
           virtual clock). Load it at https://ui.perfetto.dev or \
           chrome://tracing.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metrics registry (counters and gauges) as a text dump \
           when the command finishes.")

(* Observability plumbing shared by run/simulate/sweep: a memory trace only
   when --trace asked for one (the null sink costs a branch per event
   otherwise), a fresh registry either way. *)
let obs_setup trace_path =
  let trace =
    match trace_path with
    | None -> Obs.Trace.null
    | Some _ -> Obs.Trace.memory ()
  in
  (trace, Obs.Metrics.create ())

let obs_finish ~trace_path ~metrics trace registry =
  (match trace_path with
  | None -> ()
  | Some path ->
      Obs.Trace.set_process_name trace ~pid:Obs.Trace.wall_pid
        "crc (wall clock)";
      Obs.Trace.set_process_name trace ~pid:Obs.Trace.virtual_pid
        "simulated machine (virtual time)";
      Obs.Trace.write_chrome_file trace path;
      Printf.printf "trace: %d events written to %s\n"
        (List.length (Obs.Trace.events trace))
        path);
  if metrics then print_string (Obs.Metrics.to_string registry)

(* Registry entries for one simulator result. *)
let record_sim_metrics registry ~prefix ~per_step ~total ~tasks_run
    ~bytes_moved ~copies_run timeline =
  let set k v = Obs.Metrics.set registry (prefix ^ "." ^ k) v in
  set "per_step_s" per_step;
  set "total_s" total;
  set "makespan_s" (Realm.Timeline.makespan timeline);
  set "critical_path_ops"
    (float_of_int (List.length (Realm.Timeline.critical_path timeline)));
  set "tasks_run" (float_of_int tasks_run);
  set "bytes_moved" bytes_moved;
  Option.iter (fun c -> set "copies_run" (float_of_int c)) copies_run

(* Small (functional) and simulator-scale program constructors. *)
let test_program app nodes =
  match app with
  | Stencil -> Apps.Stencil.program (Apps.Stencil.test_config ~nodes)
  | Miniaero -> Apps.Miniaero.program (Apps.Miniaero.test_config ~nodes)
  | Pennant -> Apps.Pennant.program (Apps.Pennant.test_config ~nodes)
  | Circuit -> Apps.Circuit.program (Apps.Circuit.test_config ~nodes)

let sim_program app nodes =
  match app with
  | Stencil ->
      let cfg = Apps.Stencil.default ~nodes in
      (Apps.Stencil.program cfg, Apps.Stencil.scale cfg, 0.)
  | Miniaero ->
      let cfg = Apps.Miniaero.sim_config ~nodes in
      (Apps.Miniaero.program cfg, Apps.Miniaero.scale cfg, 0.)
  | Pennant ->
      let cfg = Apps.Pennant.sim_config ~nodes in
      (Apps.Pennant.program cfg, Apps.Pennant.scale cfg, Apps.Pennant.task_noise)
  | Circuit ->
      let cfg = Apps.Circuit.sim_config ~nodes in
      (Apps.Circuit.program cfg, Apps.Circuit.scale cfg, 0.)

let elements_per_node app =
  match app with
  | Stencil ->
      (float_of_int (Apps.Stencil.default ~nodes:1).Apps.Stencil.points_per_node, "points")
  | Miniaero ->
      let c = Apps.Miniaero.default ~nodes:1 in
      let x, y, z = c.Apps.Miniaero.piece_cells in
      (float_of_int (c.Apps.Miniaero.pieces_per_node * x * y * z), "cells")
  | Pennant ->
      let c = Apps.Pennant.default ~nodes:1 in
      let x, y = c.Apps.Pennant.piece_zones in
      (float_of_int (c.Apps.Pennant.pieces_per_node * x * y), "zones")
  | Circuit ->
      let c = Apps.Circuit.default ~nodes:1 in
      ( float_of_int (c.Apps.Circuit.pieces_per_node * c.Apps.Circuit.cnodes_per_piece),
        "circuit nodes" )

(* ---------- inspect ---------- *)

let inspect app nodes shards stages =
  let shards = Option.value ~default:nodes shards in
  let prog = test_program app nodes in
  print_endline "==== implicit program ====";
  print_endline (Ir.Pretty.program_to_string prog);
  if stages then begin
    (* The Fig. 4 transformation stages, block by block. *)
    let staged =
      Cr.Pipeline.stage_blocks (Cr.Pipeline.default ~shards) (test_program app nodes)
    in
    List.iteri
      (fun k (st : Cr.Pipeline.staged) ->
        Format.printf "@.==== block %d: after data replication (Fig. 4a) ====@." k;
        Format.printf "@[<v>%a@]@." Spmd.Prog.pp_instrs st.Cr.Pipeline.replicated;
        Format.printf "@.==== block %d: after copy placement ====@." k;
        Format.printf "@[<v>%a@]@." Spmd.Prog.pp_instrs st.Cr.Pipeline.placed;
        Format.printf "@.==== block %d: after synchronization insertion ====@." k;
        Format.printf "@[<v>%a@]@." Spmd.Prog.pp_instrs st.Cr.Pipeline.synced)
      staged
  end;
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
  print_endline "\n==== control-replicated (SPMD) program ====";
  print_endline (Spmd.Prog.to_string compiled)

(* ---------- run ---------- *)

let run app nodes shards seed trace_path metrics =
  let shards = Option.value ~default:nodes shards in
  let trace, registry = obs_setup trace_path in
  let p1 = test_program app nodes in
  let seq = Interp.Run.create p1 in
  Interp.Run.run seq;
  let p2 = test_program app nodes in
  let compiled = Cr.Pipeline.compile ~trace (Cr.Pipeline.default ~shards) p2 in
  let spmd = Interp.Run.create compiled.Spmd.Prog.source in
  let stats = Spmd.Exec.fresh_stats ~registry () in
  Spmd.Exec.run ~sched:(`Random seed) ~stats ~trace compiled spmd;
  let data ctx prog =
    List.concat_map
      (fun rname ->
        let r = Ir.Program.find_region prog rname in
        let inst = Interp.Run.region_instance ctx r in
        List.map
          (fun f -> (rname, Regions.Field.name f, Regions.Physical.to_alist inst f))
          r.Regions.Region.fields)
      (Ir.Program.region_names prog)
  in
  let equal = data seq p1 = data spmd p2 in
  Printf.printf "functional run with %d shards (random schedule %d)\n" shards seed;
  Printf.printf "sequential == control-replicated: %b\n" equal;
  (match app with
  | Circuit ->
      Printf.printf "total charge: %.12f\n" (Apps.Circuit.total_node_charge spmd p2)
  | Miniaero ->
      Printf.printf "total mass: %.12f\n" (Apps.Miniaero.total_mass spmd p2)
  | Pennant ->
      let mx, my = Apps.Pennant.total_momentum spmd p2 in
      Printf.printf "momentum: (%.3e, %.3e), dt: %.8f\n" mx my
        (Interp.Run.scalar spmd "dt")
  | Stencil ->
      Printf.printf "checksum: %.3f\n" (Apps.Stencil.interior_checksum spmd p2));
  obs_finish ~trace_path ~metrics trace registry;
  if not equal then exit 1

(* ---------- simulate ---------- *)

let simulate app nodes no_cr trace_path metrics =
  let trace, registry = obs_setup trace_path in
  let prog, scale, noise = sim_program app nodes in
  let machine = Realm.Machine.make ~nodes ~task_noise:noise () in
  let cores = Realm.Machine.compute_cores machine in
  let per_step =
    if no_cr then begin
      let r = Legion.Sim_implicit.simulate ~machine ~scale ~steps:8 ~trace prog in
      Realm.Timeline.emit
        ~track_names:(Legion.Sim_implicit.track_names ~nodes ~cores)
        r.Legion.Sim_implicit.timeline trace;
      record_sim_metrics registry ~prefix:"sim.implicit"
        ~per_step:r.Legion.Sim_implicit.per_step
        ~total:r.Legion.Sim_implicit.total
        ~tasks_run:r.Legion.Sim_implicit.tasks_run
        ~bytes_moved:r.Legion.Sim_implicit.bytes_moved ~copies_run:None
        r.Legion.Sim_implicit.timeline;
      r.Legion.Sim_implicit.per_step
    end
    else begin
      let compiled =
        Cr.Pipeline.compile ~trace (Cr.Pipeline.default ~shards:nodes) prog
      in
      let r = Legion.Sim_spmd.simulate ~machine ~scale ~steps:8 ~trace compiled in
      Realm.Timeline.emit
        ~track_names:(Legion.Sim_spmd.track_names ~shards:nodes ~cores)
        r.Legion.Sim_spmd.timeline trace;
      record_sim_metrics registry ~prefix:"sim.spmd"
        ~per_step:r.Legion.Sim_spmd.per_step ~total:r.Legion.Sim_spmd.total
        ~tasks_run:r.Legion.Sim_spmd.tasks_run
        ~bytes_moved:r.Legion.Sim_spmd.bytes_moved
        ~copies_run:(Some r.Legion.Sim_spmd.copies_run)
        r.Legion.Sim_spmd.timeline;
      r.Legion.Sim_spmd.per_step
    end
  in
  let elems, unit_ = elements_per_node app in
  Printf.printf "%s on %d nodes (%s): %.4f s/step, %.1f %s/s per node\n"
    (if no_cr then "implicit (no CR)" else "control-replicated")
    nodes
    (match app with
    | Stencil -> "paper-scale instance"
    | _ -> "reduced instance, scaled costs")
    per_step (elems /. per_step) unit_;
  obs_finish ~trace_path ~metrics trace registry

(* ---------- sweep ---------- *)

let sweep app trace_path metrics =
  let trace, registry = obs_setup trace_path in
  let elems, unit_ = elements_per_node app in
  Printf.printf "%6s %14s %14s   (%s/s per node)\n" "nodes" "Regent+CR"
    "Regent-noCR" unit_;
  List.iter
    (fun n ->
      let prog, scale, noise = sim_program app n in
      let machine = Realm.Machine.make ~nodes:n ~task_noise:noise () in
      let cores = Realm.Machine.compute_cores machine in
      let rcr =
        Legion.Sim_spmd.simulate ~machine ~scale ~steps:8 ~trace
          (Cr.Pipeline.compile ~trace (Cr.Pipeline.default ~shards:n) prog)
      in
      let rnocr = Legion.Sim_implicit.simulate ~machine ~scale ~steps:6 ~trace prog in
      if Obs.Trace.enabled trace then begin
        (* Each machine size gets its own pair of virtual-time processes so
           the series don't overlap in the viewer. *)
        let pid_cr = 1000 + n and pid_nocr = 2000 + n in
        Obs.Trace.set_process_name trace ~pid:pid_cr
          (Printf.sprintf "sweep n=%d (CR, virtual time)" n);
        Obs.Trace.set_process_name trace ~pid:pid_nocr
          (Printf.sprintf "sweep n=%d (no CR, virtual time)" n);
        Realm.Timeline.emit ~pid:pid_cr
          ~track_names:(Legion.Sim_spmd.track_names ~shards:n ~cores)
          rcr.Legion.Sim_spmd.timeline trace;
        Realm.Timeline.emit ~pid:pid_nocr
          ~track_names:(Legion.Sim_implicit.track_names ~nodes:n ~cores)
          rnocr.Legion.Sim_implicit.timeline trace
      end;
      let prefix kind = Printf.sprintf "sweep.n%03d.%s" n kind in
      record_sim_metrics registry ~prefix:(prefix "cr")
        ~per_step:rcr.Legion.Sim_spmd.per_step ~total:rcr.Legion.Sim_spmd.total
        ~tasks_run:rcr.Legion.Sim_spmd.tasks_run
        ~bytes_moved:rcr.Legion.Sim_spmd.bytes_moved
        ~copies_run:(Some rcr.Legion.Sim_spmd.copies_run)
        rcr.Legion.Sim_spmd.timeline;
      record_sim_metrics registry ~prefix:(prefix "nocr")
        ~per_step:rnocr.Legion.Sim_implicit.per_step
        ~total:rnocr.Legion.Sim_implicit.total
        ~tasks_run:rnocr.Legion.Sim_implicit.tasks_run
        ~bytes_moved:rnocr.Legion.Sim_implicit.bytes_moved ~copies_run:None
        rnocr.Legion.Sim_implicit.timeline;
      Printf.printf "%6d %14.1f %14.1f\n%!" n
        (elems /. rcr.Legion.Sim_spmd.per_step)
        (elems /. rnocr.Legion.Sim_implicit.per_step))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  obs_finish ~trace_path ~metrics trace registry

(* ---------- table1 ---------- *)

let table1 nodes =
  Printf.printf "%10s %12s %12s %12s\n" "app" "shallow(ms)" "complete(ms)"
    "non-empty";
  List.iter
    (fun (name, app) ->
      let prog, _, _ = sim_program app nodes in
      let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:nodes) prog in
      let stats = Spmd.Intersections.fresh_stats () in
      List.iter
        (function
          | Spmd.Prog.Replicated b ->
              List.iter
                (fun (c : Spmd.Prog.copy) ->
                  match (c.Spmd.Prog.src, c.Spmd.Prog.dst) with
                  | Spmd.Prog.Opart ps, Spmd.Prog.Opart pd ->
                      ignore
                        (Spmd.Intersections.compute ~stats
                           ~src:(Ir.Program.find_partition compiled.Spmd.Prog.source ps)
                           ~dst:(Ir.Program.find_partition compiled.Spmd.Prog.source pd)
                           ())
                  | _ -> ())
                b.Spmd.Prog.copies
          | Spmd.Prog.Seq _ -> ())
        compiled.Spmd.Prog.items;
      Printf.printf "%10s %12.2f %12.2f %12d\n%!" name
        (stats.Spmd.Intersections.shallow_s *. 1e3)
        (stats.Spmd.Intersections.complete_s *. 1e3)
        stats.Spmd.Intersections.nonempty)
    [ ("circuit", Circuit); ("miniaero", Miniaero); ("pennant", Pennant);
      ("stencil", Stencil) ]

(* ---------- fuzz ---------- *)

let fuzz seed count max_tasks mutate shards no_net out replay =
  match replay with
  | Some path -> (
      match Conform.Fuzz.replay path with
      | None ->
          Printf.printf "repro %s no longer fails\n" path;
          exit 0
      | Some f ->
          Format.printf "repro %s still fails: %a@." path
            Conform.Oracle.pp_failure f;
          exit 1)
  | None -> (
      let report =
        Conform.Fuzz.campaign ~out ?max_tasks ?mutate ?shards
          ~net:(not no_net) ~log:print_endline ~seed ~count ()
      in
      match report.Conform.Fuzz.repro with
      | None ->
          Printf.printf
            "fuzz: %d case(s) passed (seed %d, all schedulers%s + faults \
             %s x every scheduler, sanitizer armed)\n"
            report.Conform.Fuzz.tested seed
            (if no_net then "" else " + net loopback")
            (String.concat "/" (List.map fst Conform.Oracle.fault_policies))
      | Some (r, path) ->
          Format.printf "fuzz: case failed after %d test(s): %a@."
            report.Conform.Fuzz.tested Conform.Oracle.pp_failure
            r.Conform.Repro.failure;
          Printf.printf "minimal repro written to %s (replay with: crc fuzz \
                         --replay %s)\n"
            path path;
          exit 1)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Base case seed.")
  in
  let count =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"N" ~doc:"Number of cases to run.")
  in
  let max_tasks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tasks" ] ~docv:"N"
          ~doc:"Cap on generated task definitions per case.")
  in
  let mutate =
    Arg.(
      value
      & opt (some int) None
      & info [ "mutate" ] ~docv:"K"
          ~doc:
            "Negative control: drop the K-th synchronization op from every \
             compiled case before executing. A completed campaign then means \
             the oracle missed the bug.")
  in
  let out =
    Arg.(
      value
      & opt string "fuzz-repro.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write a minimal repro.")
  in
  let no_net =
    Arg.(
      value & flag
      & info [ "no-net" ]
          ~doc:
            "Skip the net/loopback backend column (the distributed \
             message-passing engine over the in-process transport).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a saved repro file instead of fuzzing.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:"Shard count for every case (default: cycles 2, 3, 4 by case).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: random well-privileged programs \
          run through the implicit interpreter and through the full \
          compile+SPMD pipeline under every scheduler (plus \
          the distributed loopback backend, and every scheduler again under \
          each fault policy: leaf, delays, mixed) with the race sanitizer \
          armed; failures are auto-shrunk to a replayable repro file.")
    Term.(
      const fuzz $ seed $ count $ max_tasks $ mutate $ shards $ no_net $ out
      $ replay)

(* ---------- launch ---------- *)

let transport_conv =
  let parse = function
    | "loopback" -> Ok `Loopback
    | "unix" -> Ok `Unix
    | "tcp" -> Ok `Tcp
    | s -> Error (`Msg (Printf.sprintf "unknown transport %S" s))
  in
  let print ppf t =
    Format.pp_print_string ppf
      (match t with `Loopback -> "loopback" | `Unix -> "unix" | `Tcp -> "tcp")
  in
  Arg.conv (parse, print)

let launch app nodes shards transport watchdog fail_rate fault_seed kill
    trace_path metrics =
  let shards = Option.value ~default:nodes shards in
  let trace, registry = obs_setup trace_path in
  let reference =
    let p = test_program app nodes in
    let ctx = Interp.Run.create p in
    Interp.Run.run ctx;
    Net.Launch.snapshot_state ctx
  in
  let compiled =
    Cr.Pipeline.compile ~trace (Cr.Pipeline.default ~shards)
      (test_program app nodes)
  in
  let stats = Spmd.Exec.fresh_stats ~registry () in
  let fault =
    if fail_rate > 0. then
      Some
        (Resilience.Fault.create
           ~policy:
             {
               Resilience.Fault.no_faults with
               net_fail_rate = fail_rate;
               net_retries = 5;
               max_faults = 10_000;
             }
           ~seed:fault_seed ())
    else None
  in
  let tname =
    match transport with `Loopback -> "loopback" | `Unix -> "unix" | `Tcp -> "tcp"
  in
  Printf.printf "distributed run: %d shard(s) over %s\n%!" shards tname;
  let finish ~ok ~matched ~msgs ~bytes ~retries =
    Printf.printf "snapshot == sequential reference: %b\n" matched;
    Printf.printf "frames sent: %d, bytes on wire: %d, send retries: %d\n" msgs
      bytes retries;
    obs_finish ~trace_path ~metrics trace registry;
    if not (ok && matched) then exit 1
  in
  match transport with
  | `Loopback -> (
      (match kill with
      | Some _ ->
          prerr_endline "crc launch: --kill requires a socket transport";
          exit 2
      | None -> ());
      let ctx = Interp.Run.create compiled.Spmd.Prog.source in
      match Net.Launch.run_loopback ?fault ~stats ~trace compiled ctx with
      | () ->
          let matched =
            Net.Launch.states_equal reference (Net.Launch.snapshot_state ctx)
          in
          finish ~ok:true ~matched
            ~msgs:(Atomic.get stats.Spmd.Exec.msgs_sent)
            ~bytes:(Atomic.get stats.Spmd.Exec.bytes_on_wire)
            ~retries:0
      | exception Spmd.Exec.Deadlock d ->
          print_string (Resilience.Diag.to_string d);
          obs_finish ~trace_path ~metrics trace registry;
          exit 3)
  | (`Unix | `Tcp) as transport ->
      let o =
        Net.Launch.launch ~transport ?fault ?kill ~watchdog ~stats ~trace
          compiled
      in
      List.iter (fun line -> Printf.printf "  %s\n" line) o.Net.Launch.detail;
      (match o.Net.Launch.diag with
      | Some d -> print_string (Resilience.Diag.to_string d)
      | None -> ());
      List.iter
        (fun (rank, status) ->
          if status <> "exit 0" then
            Printf.printf "  rank %d: %s\n" rank status)
        o.Net.Launch.exits;
      let matched =
        match o.Net.Launch.state with
        | Some st -> Net.Launch.states_equal reference st
        | None -> false
      in
      finish ~ok:o.Net.Launch.ok ~matched ~msgs:o.Net.Launch.msgs
        ~bytes:o.Net.Launch.bytes_on_wire ~retries:o.Net.Launch.send_retries

let launch_cmd =
  let transport =
    Arg.(
      value
      & opt transport_conv `Unix
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Transport: $(b,loopback) (deterministic in-process), $(b,unix) \
             (one OS process per shard over Unix-domain socketpairs) or \
             $(b,tcp) (processes over 127.0.0.1).")
  in
  let watchdog =
    Arg.(
      value & opt float 30.
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "How long a rank may sit blocked without receiving a frame \
             before it reports a structured deadlock instead of hanging.")
  in
  let fail_rate =
    Arg.(
      value & opt float 0.
      & info [ "net-fail-rate" ] ~docv:"P"
          ~doc:
            "Arm fault injection: probability that any single transport \
             send fails transiently (retried with reconnect, up to 5 \
             attempts).")
  in
  let fault_seed =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ] ~docv:"N" ~doc:"Fault-injection schedule seed.")
  in
  let kill =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "kill" ] ~docv:"RANK:N"
          ~doc:
            "Hard-kill the given child rank at its N-th physical send \
             (crash testing; sockets only, rank 0 not killable).")
  in
  Cmd.v
    (Cmd.info "launch"
       ~doc:
         "Run the compiled SPMD program distributed: one rank per shard \
          exchanging region fragments, credits and tree collectives as \
          wire messages; every rank's final-state digest must equal rank \
          0's, and rank 0's state is verified bitwise against the \
          sequential interpreter.")
    Term.(
      const launch $ app_arg $ nodes_arg $ shards_arg $ transport $ watchdog
      $ fail_rate $ fault_seed $ kill $ trace_arg $ metrics_arg)

(* ---------- command wiring ---------- *)

let inspect_cmd =
  let stages =
    Arg.(
      value & flag
      & info [ "stages" ]
          ~doc:"Also print the Fig. 4 transformation stages of each block.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print the implicit program and its SPMD form.")
    Term.(const inspect $ app_arg $ nodes_arg $ shards_arg $ stages)

let run_cmd =
  let seed =
    Arg.(value & opt int 17 & info [ "seed" ] ~doc:"Random schedule seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute functionally and compare to sequential.")
    Term.(
      const run $ app_arg $ nodes_arg $ shards_arg $ seed $ trace_arg
      $ metrics_arg)

let simulate_cmd =
  let no_cr =
    Arg.(value & flag & info [ "no-cr" ] ~doc:"Simulate without control replication.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Per-timestep cost on the simulated machine.")
    Term.(
      const simulate $ app_arg $ nodes_arg $ no_cr $ trace_arg $ metrics_arg)

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Weak-scaling series (Figures 6-9 shape).")
    Term.(const sweep $ app_arg $ trace_arg $ metrics_arg)

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Dynamic intersection timings (Table 1).")
    Term.(const table1 $ nodes_arg)

let () =
  let doc = "control replication compiler and simulator driver" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "crc" ~version:"1.0.0" ~doc)
          [
            inspect_cmd;
            run_cmd;
            launch_cmd;
            simulate_cmd;
            sweep_cmd;
            table1_cmd;
            fuzz_cmd;
          ]))
