(* Measurement worker of the wall-clock benchmark (driven by run.py).

   Each subcommand measures one layer of one workload by timing calls into
   the repository's public entry points from outside, and prints one JSON
   object per sample on stdout, flushed at once, so run.py keeps every
   sample taken before it kills a worker at a deadline.

     bench.exe analysis WORKLOAD SEED SAMPLES TRACE  (time budgets on stdin)
     bench.exe reference WORKLOAD SEED
     bench.exe inproc   WORKLOAD SEED SECONDS TRACE DIGEST_SHORT DIGEST_LONG
     bench.exe launch   WORKLOAD SEED unix|tcp SECONDS DIGEST_SHORT DIGEST_LONG
     bench.exe info

   Every execution is verified bitwise against the sequential interpreter:
   the final state ([Net.Launch.snapshot_state]) is marshalled and digested,
   and the digest must equal the reference run's. Socket launches fork, and
   OCaml forbids [Unix.fork] once a domain has been spawned, so they run in
   their own [launch] worker, which never spawns one. *)

module J = Obs.Json

let now = Unix.gettimeofday

(* CPU time the hypervisor gave to other tenants of the host so far, in
   ticks summed over this machine's CPUs (the steal column of /proc/stat);
   0 where it is not available. A sample during which it grows was slowed
   by the host, not by the program, and run.py weighs it accordingly. *)
let steal () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: ticks when List.length ticks > 7 -> (
          try int_of_string (List.nth ticks 7) with Failure _ -> 0)
      | _ -> 0)
  | None | (exception Sys_error _) -> 0

let emit fields =
  print_string (J.to_string (J.Obj fields));
  print_newline ()

let num x = J.Float x
let int x = J.Int x
let str x = J.Str x

(* ---------- workloads ---------- *)

(* Two shards everywhere: the host has two cores, so two domains or two
   processes with one connection between them. *)
let shards = 2

type exec_workload = {
  build : seed:int -> steps:int -> Ir.Program.t;
  short : int;  (** step count of the short run *)
  long : int;  (** step count of the long run; marginal = difference *)
}

let exec_workload = function
  | "stencil-halo" ->
      (* 32x32 points per node in 64 tiles of 4x4, radius-2 halo: the
         least kernel work per copy, credit and halo message. Steps are a
         few ms, so the long run is long enough that a sample spans more
         than a burst of load from other tenants of the host. *)
      {
        build =
          (fun ~seed:_ ~steps ->
            Apps.Stencil.program
              {
                (Apps.Stencil.test_config ~nodes:shards) with
                points_per_node = 32 * 32;
                tiles_per_node = 64;
                radius = 2;
                timesteps = steps;
              });
        short = 2;
        long = 42;
      }
  | "pennant-bulk" ->
      (* 2 pieces of 64x64 zones per node: kernel- and allocation-bound,
         with a dt min-collective every step. *)
      {
        build =
          (fun ~seed:_ ~steps ->
            Apps.Pennant.program
              {
                (Apps.Pennant.test_config ~nodes:shards) with
                pieces_per_node = 2;
                piece_zones = (64, 64);
                timesteps = steps;
              });
        short = 1;
        long = 5;
      }
  | "circuit-irregular" ->
      (* 4 pieces of 1024 circuit nodes and 4096 wires per node, graph
         drawn from the workload seed: reduction copies into shared/ghost
         nodes over scattered sparse intersections. *)
      {
        build =
          (fun ~seed ~steps ->
            Apps.Circuit.program
              {
                (Apps.Circuit.test_config ~nodes:shards) with
                pieces_per_node = 4;
                cnodes_per_piece = 1024;
                wires_per_piece = 4096;
                timesteps = steps;
                seed;
              });
        short = 2;
        long = 8;
      }
  | w -> invalid_arg ("not an execution workload: " ^ w)

(* The 256-node analysis instances (sim-scale geometry; stencil is
   structured, so its paper-scale [default] costs no more to analyse). *)
let analysis_nodes = 256

let analysis_program ~seed = function
  | "stencil" -> Apps.Stencil.program (Apps.Stencil.default ~nodes:analysis_nodes)
  | "pennant" ->
      Apps.Pennant.program (Apps.Pennant.sim_config ~nodes:analysis_nodes)
  | "circuit" ->
      Apps.Circuit.program
        { (Apps.Circuit.sim_config ~nodes:analysis_nodes) with seed }
  | "miniaero" ->
      Apps.Miniaero.program (Apps.Miniaero.sim_config ~nodes:analysis_nodes)
  | app -> invalid_arg ("unknown app " ^ app)

let analysis_apps = function
  | "stencil-halo" -> [ "stencil" ]
  | "pennant-bulk" -> [ "pennant" ]
  | "circuit-irregular" -> [ "circuit" ]
  | "analysis-256" -> [ "stencil"; "pennant"; "circuit"; "miniaero" ]
  | w -> invalid_arg ("unknown workload " ^ w)

let compile ?trace ~shards prog =
  Cr.Pipeline.compile ?trace (Cr.Pipeline.default ~shards) prog

(* ---------- compiled-program counts ---------- *)

let blocks (p : Spmd.Prog.t) =
  List.filter_map
    (function Spmd.Prog.Replicated b -> Some b | Spmd.Prog.Seq _ -> None)
    p.Spmd.Prog.items

let rec count_sync instrs =
  List.fold_left
    (fun n -> function
      | Spmd.Prog.Await _ | Spmd.Prog.Release _ | Spmd.Prog.Barrier -> n + 1
      | Spmd.Prog.For_time { body; _ } -> n + count_sync body
      | _ -> n)
    0 instrs

let compile_counts p =
  let bs = blocks p in
  [
    ( "copies",
      int (List.fold_left (fun n b -> n + List.length b.Spmd.Prog.copies) 0 bs)
    );
    ("sync_ops", int (List.fold_left (fun n b -> n + count_sync b.Spmd.Prog.body) 0 bs));
  ]

(* Leaf tasks per time step over all shards: the launch-space colors of
   every launch inside a time loop. *)
let tasks_per_step (p : Spmd.Prog.t) =
  let rec go in_loop instrs =
    List.fold_left
      (fun n -> function
        | (Spmd.Prog.Launch { space; _ } | Spmd.Prog.Launch_collective { space; _ })
          when in_loop ->
            n + Ir.Program.find_space p.Spmd.Prog.source space
        | Spmd.Prog.For_time { body; _ } -> n + go true body
        | _ -> n)
      0 instrs
  in
  List.fold_left (fun n b -> n + go false b.Spmd.Prog.body) 0 (blocks p)

(* Distinct (src, dst) partition pairs of the sparse copies: what
   [Spmd.Exec] analyses (it caches per partition pair). *)
let sparse_pairs (p : Spmd.Prog.t) =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun b ->
      List.filter_map
        (fun (c : Spmd.Prog.copy) ->
          match (c.Spmd.Prog.src, c.Spmd.Prog.dst, c.Spmd.Prog.pairs) with
          | Spmd.Prog.Opart s, Spmd.Prog.Opart d, `Sparse
            when not (Hashtbl.mem seen (s, d)) ->
              Hashtbl.add seen (s, d) ();
              let find = Ir.Program.find_partition p.Spmd.Prog.source in
              Some (find s, find d)
          | _ -> None)
        b.Spmd.Prog.copies)
    (blocks p)

(* Per-name self time (us) of a trace's complete spans: a span's duration
   minus the part of it its children on the same track cover. *)
let self_times (events : Obs.Trace.event list) =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.ph with
      | Obs.Trace.X dur ->
          let l = Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[] in
          Hashtbl.replace by_tid e.tid ((e.ts, dur, e.name) :: l)
      | _ -> ())
    events;
  let acc = ref [] in
  Hashtbl.iter
    (fun _ spans ->
      let spans =
        List.sort
          (fun (t1, d1, _) (t2, d2, _) -> compare (t1, -.d1) (t2, -.d2))
          spans
      in
      let self = Array.of_list (List.map (fun (_, d, _) -> d) spans) in
      let arr = Array.of_list spans in
      let stack = ref [] in
      Array.iteri
        (fun i (ts, dur, _) ->
          let rec pop () =
            match !stack with
            | (stop, _) :: rest when stop <= ts -> stack := rest; pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, parent) :: _ -> self.(parent) <- self.(parent) -. dur
          | [] -> ());
          stack := (ts +. dur, i) :: !stack)
        arr;
      Array.iteri (fun i (_, _, name) -> acc := (name, self.(i)) :: !acc) arr)
    by_tid;
  !acc

(* ---------- setup ---------- *)

let setup_rep w ~seed =
  Gc.full_major ();
  let s0 = steal () in
  let t0 = now () in
  let prog = w.build ~seed ~steps:w.long in
  let t1 = now () in
  let _ = compile ~shards prog in
  let t2 = now () in
  let _ = Interp.Run.create prog in
  let t3 = now () in
  let s1 = steal () in
  emit
    [
      ("kind", str "setup");
      ("steal", int (s1 - s0));
      ("build_s", num (t1 -. t0));
      ("compile_s", num (t2 -. t1));
      ("create_s", num (t3 -. t2));
    ]

(* ---------- analysis: compile + cold intersections at 256 nodes ---------- *)

(* Seeded sample of color pairs checked against a direct
   [Index_space.inter]; half drawn uniformly, half from the computed
   non-empty pairs (uniform pairs are almost all empty). *)
let check_pair rng ~samples (src, dst) (r : Spmd.Intersections.pairs) =
  let found = Hashtbl.create 64 in
  List.iter (fun (i, j, s) -> Hashtbl.replace found (i, j) s) r.items;
  let items = Array.of_list r.items in
  let ns = Regions.Partition.color_count src
  and nd = Regions.Partition.color_count dst in
  let ok = ref true in
  for k = 1 to samples do
    let i, j =
      if k mod 2 = 0 && Array.length items > 0 then
        let i, j, _ = items.(Random.State.int rng (Array.length items)) in
        (i, j)
      else (Random.State.int rng ns, Random.State.int rng nd)
    in
    let expected =
      Regions.Index_space.inter
        (Regions.Partition.sub src i).Regions.Region.ispace
        (Regions.Partition.sub dst j).Regions.Region.ispace
    in
    let agrees =
      match Hashtbl.find_opt found (i, j) with
      | None -> Regions.Index_space.is_empty expected
      | Some s -> Regions.Index_space.equal s expected
    in
    if not agrees then ok := false
  done;
  !ok

(* One timed compile + cold intersections of an app's 256-node program;
   with [check], also a verification per partition pair, which fails when
   any sampled color pair disagrees. *)
let analysis_rep ~rng ~samples ~check app (prog, build_s) =
  Gc.full_major ();
  let s0 = steal () in
  let t0 = now () in
  let comp = compile ~shards:analysis_nodes prog in
  let t1 = now () in
  let st = Spmd.Intersections.fresh_stats () in
  let pairs = sparse_pairs comp in
  let results =
    List.map
      (fun (src, dst) -> Spmd.Intersections.compute ~stats:st ~src ~dst ())
      pairs
  in
  let t2 = now () in
  let s1 = steal () in
  emit
    ([
       ("kind", str "analysis");
       ("app", str app);
       ("steal", int (s1 - s0));
       ("build_s", num build_s);
       ("compile_s", num (t1 -. t0));
       ("isect_s", num (t2 -. t1));
       ("shallow_s", num st.Spmd.Intersections.shallow_s);
       ("complete_s", num st.Spmd.Intersections.complete_s);
       ("candidates", int st.Spmd.Intersections.candidates);
       ("nonempty", int st.Spmd.Intersections.nonempty);
     ]
    @ compile_counts comp);
  if check then begin
    let failed =
      List.fold_left2
        (fun n p r -> if check_pair rng ~samples p r then n else n + 1)
        0 pairs results
    in
    emit
      [
        ("kind", str "check");
        ("app", str app);
        ("attempted", int (List.length pairs));
        ("failed", int failed);
      ]
  end

(* Self times of the compiler's phases in one traced compile. *)
let cr_phases app (prog, _) =
  let tr = Obs.Trace.memory () in
  ignore (compile ~trace:tr ~shards:analysis_nodes prog);
  emit
    [
      ("kind", str "cr_phases");
      ("app", str app);
      ( "self_us",
        J.Obj
          (List.filter_map
             (fun (n, us) ->
               if String.length n > 3 && String.sub n 0 3 = "cr." then
                 Some (n, num us)
               else None)
             (self_times (Obs.Trace.events tr))) );
    ]

(* Windows of the 256-node analysis, one per line on stdin giving its time
   budget in seconds: each app gets an equal share of it and at least one
   repetition, then a "done" record follows. An app's program is built on
   first use and kept, so that the worker serves windows spread over a run
   without rebuilding; its first repetition also checks the intersections,
   and with [trace] its compile phases are traced once. *)
let analysis name ~seed ~samples ~trace =
  let rng = Random.State.make [| seed |] in
  let apps = analysis_apps name in
  let built = Hashtbl.create 4 in
  let rec serve () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some budget ->
        let share = float_of_string budget /. float_of_int (List.length apps) in
        List.iter
          (fun app ->
            let first = not (Hashtbl.mem built app) in
            if first then begin
              Gc.full_major ();
              let t0 = now () in
              let prog = analysis_program ~seed app in
              Hashtbl.add built app (prog, now () -. t0)
            end;
            let b = Hashtbl.find built app in
            let until = now () +. share in
            let rec reps k =
              if k = 0 || now () < until then begin
                analysis_rep ~rng ~samples ~check:(first && k = 0) app b;
                reps (k + 1)
              end
            in
            reps 0;
            if first && trace then cr_phases app b)
          apps;
        emit [ ("kind", str "done") ];
        serve ()
  in
  serve ()

(* ---------- executions ---------- *)

let digest_state st = Digest.to_hex (Digest.string (Marshal.to_string st []))
let digest_ctx ctx = digest_state (Net.Launch.snapshot_state ctx)

type instance = { steps : int; prog : Ir.Program.t; comp : Spmd.Prog.t }

let instance w ~seed steps =
  let prog = w.build ~seed ~steps in
  { steps; prog; comp = compile ~shards prog }

(* Run one in-process execution against a fresh context; only the run is
   timed. Returns the wall time, the host's steal over it, the GC counters
   before and after, and the outcome against the reference digest. *)
let execute ~digest f ctx =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let s0 = steal () in
  let t0 = now () in
  let r = match f ctx with () -> Ok () | exception e -> Error e in
  let wall = now () -. t0 in
  let stolen = steal () - s0 in
  let g1 = Gc.quick_stat () in
  let outcome =
    match r with
    | Ok () -> if digest_ctx ctx = digest then ("matched", "") else ("mismatch", "")
    | Error (Spmd.Exec.Deadlock d) -> ("deadlock", Resilience.Diag.to_string d)
    | Error e -> ("crash", Printexc.to_string e)
  in
  ((wall, stolen), g0, g1, outcome)

let run_backend ?trace ?stats backend inst ctx =
  match backend with
  | "interp" -> Interp.Run.run ctx
  | "rr" -> Spmd.Exec.run ~sched:`Round_robin ?stats ?trace inst.comp ctx
  | "domains" ->
      (* The stall watchdog polls every 50 ms and is joined at the end of
         the run, which quantizes wall time to its poll period; a hang is
         bounded by run.py's deadline instead. *)
      Spmd.Exec.run ~sched:`Domains ~watchdog:0. ?stats ?trace inst.comp ctx
  | "loopback" -> Net.Launch.run_loopback ?stats ?trace inst.comp ctx
  | b -> invalid_arg ("unknown backend " ^ b)

let exec_record ~backend ~inst ~wall:(wall, stolen) (outcome, detail) extra =
  emit
    ([
       ("kind", str "exec");
       ("backend", str backend);
       ("steps", int inst.steps);
       ("wall_s", num wall);
       ("steal", int stolen);
       ("outcome", str outcome);
       ("detail", str detail);
     ]
    @ extra)

(* One untraced, timed execution with counters. *)
let timed backend inst ~digest =
  let ctx = Interp.Run.create inst.prog in
  let stats = Spmd.Exec.fresh_stats () in
  emit [ ("kind", str "start"); ("backend", str backend); ("steps", int inst.steps) ];
  let wall, g0, g1, res = execute ~digest (run_backend ~stats backend inst) ctx in
  let a f = int (Atomic.get (f stats)) in
  exec_record ~backend ~inst ~wall res
    [
      ("minor_words", num (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("minor_gcs", int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_gcs", int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("plan_builds", a (fun s -> s.Spmd.Exec.plan_builds));
      ("plan_replays", a (fun s -> s.Spmd.Exec.plan_replays));
      ("blit_volume", a (fun s -> s.Spmd.Exec.blit_volume));
      ("msgs", a (fun s -> s.Spmd.Exec.msgs_sent));
      ("bytes", a (fun s -> s.Spmd.Exec.bytes_on_wire));
    ]

(* Span categories of the per-layer breakdown. *)
let category name =
  let has p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  if has "launch:" then Some "kernel"
  else if has "copy#" then Some "copy"
  else if has "await#" || name = "barrier" || has "collective:" then Some "sync_wait"
  else if has "release#" then Some "release"
  else if name = "exec.analyze" then Some "analyze"
  else if name = "exec.init" || name = "net.init" then Some "init"
  else if name = "exec.finalize" then Some "finalize"
  else None

(* One traced execution: per-category self time (us) summed over tracks,
   per-task kernel time, ring drops. *)
let traced backend inst ~digest =
  let ctx = Interp.Run.create inst.prog in
  let tr = Obs.Trace.memory () in
  emit [ ("kind", str "start"); ("backend", str backend); ("steps", int inst.steps) ];
  let wall, _, _, res = execute ~digest (run_backend ~trace:tr backend inst) ctx in
  let cats = Hashtbl.create 8 and tasks = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  List.iter
    (fun (name, us) ->
      match category name with
      | Some c ->
          add cats c us;
          if c = "kernel" then
            add tasks (String.sub name 7 (String.length name - 7)) us
      | None -> ())
    (self_times (Obs.Trace.events tr));
  let obj tbl = J.Obj (Hashtbl.fold (fun k v l -> (k, num v) :: l) tbl []) in
  exec_record ~backend ~inst ~wall res
    [
      ("traced", J.Bool true);
      ("dropped", int (Obs.Trace.dropped tr));
      ("self_us", obj cats);
      ("task_us", obj tasks);
    ]

(* The sequential interpreter's final state at both step counts: the
   reference every other execution is checked against. *)
let reference name ~seed =
  let w = exec_workload name in
  List.iter
    (fun inst ->
      Gc.full_major ();
      let ctx = Interp.Run.create inst.prog in
      let s0 = steal () in
      let t0 = now () in
      Interp.Run.run ctx;
      let wall = now () -. t0 in
      let s1 = steal () in
      emit
        [
          ("kind", str "reference");
          ("steps", int inst.steps);
          ("wall_s", num wall);
          ("steal", int (s1 - s0));
          ("digest", str (digest_ctx ctx));
          ("tasks_per_step", int (tasks_per_step inst.comp));
        ])
    [ instance w ~seed w.short; instance w ~seed w.long ]

(* Pairs of (short, long) runs of one instance, the first of each pair
   alternating. *)
let pair_runner name ~seed ~digests =
  let w = exec_workload name in
  let insts = [ instance w ~seed w.short; instance w ~seed w.long ] in
  let digest inst = List.assoc inst.steps (List.combine [ w.short; w.long ] digests) in
  let pair k f =
    List.iter (fun inst -> f inst ~digest:(digest inst))
      (if k mod 2 = 0 then insts else List.rev insts)
  in
  pair

(* Rounds of one set-up, then one pair per backend; each backend gets an
   equal share of the time, and at least two pairs however slow it is, so
   that a run of four workers has eight. Set-up takes its samples between
   the pairs, so that they spread over the whole of [seconds] rather than
   one stretch of host load. *)
let inproc name ~seed ~seconds ~trace ~digests =
  let w = exec_workload name in
  let pair = pair_runner name ~seed ~digests in
  let backends = [ "interp"; "rr"; "domains"; "loopback" ] in
  let share = seconds /. float_of_int (List.length backends) in
  let spent = Hashtbl.create 4 in
  let rec round k =
    let live =
      List.filter
        (fun b -> Option.value (Hashtbl.find_opt spent b) ~default:0. < share || k < 2)
        backends
    in
    if live <> [] then begin
      setup_rep w ~seed;
      List.iter
        (fun b ->
          let t0 = now () in
          pair k (timed b);
          let s = Option.value (Hashtbl.find_opt spent b) ~default:0. in
          Hashtbl.replace spent b (s +. now () -. t0))
        live;
      round (k + 1)
    end
  in
  round 0;
  if trace then
    for k = 0 to 1 do
      List.iter (fun b -> pair k (traced b)) [ "rr"; "domains"; "loopback" ]
    done

(* ---------- socket launches ---------- *)

let launch name ~seed ~transport ~seconds ~digests =
  let pair = pair_runner name ~seed ~digests in
  let tname = transport in
  let transport =
    match transport with "unix" -> `Unix | "tcp" -> `Tcp | t -> invalid_arg t
  in
  let deadline = now () +. seconds in
  let one (inst : instance) ~digest =
    emit [ ("kind", str "start"); ("backend", str tname); ("steps", int inst.steps) ];
    let s0 = steal () in
    let t0 = now () in
    let o = Net.Launch.launch ~transport inst.comp in
    let wall = (now () -. t0, steal () - s0) in
    let outcome =
      match o.Net.Launch.state with
      | Some st when o.Net.Launch.ok ->
          if digest_state st = digest then "matched" else "mismatch"
      | Some _ -> "mismatch"
      | None when o.Net.Launch.diag <> None -> "deadlock"
      | None -> "crash"
    in
    exec_record ~backend:tname ~inst ~wall
      (outcome, String.concat "; " o.Net.Launch.detail)
      [
        ("msgs", int o.Net.Launch.msgs);
        ("bytes", int o.Net.Launch.bytes_on_wire);
        ("retries", int o.Net.Launch.send_retries);
      ]
  in
  let rec go k =
    if k = 0 || now () < deadline then begin
      pair k one;
      go (k + 1)
    end
  in
  go 0

(* ---------- entry ---------- *)

let () =
  let a = Sys.argv in
  let i k = int_of_string a.(k) and f k = float_of_string a.(k) in
  let b k = a.(k) = "1" in
  match Array.to_list a |> List.tl with
  | [ "analysis"; w; _; _; _ ] -> analysis w ~seed:(i 3) ~samples:(i 4) ~trace:(b 5)
  | [ "reference"; w; _ ] -> reference w ~seed:(i 3)
  | [ "inproc"; w; _; _; _; d1; d2 ] ->
      inproc w ~seed:(i 3) ~seconds:(f 4) ~trace:(b 5) ~digests:[ d1; d2 ]
  | [ "launch"; w; _; t; _; d1; d2 ] ->
      launch w ~seed:(i 3) ~transport:t ~seconds:(f 5) ~digests:[ d1; d2 ]
  | [ "info" ] -> emit [ ("kind", str "info"); ("ocaml", str Sys.ocaml_version) ]
  | _ ->
      prerr_endline
        "usage: bench.exe (analysis|reference|inproc|launch|info) ...";
      exit 2
