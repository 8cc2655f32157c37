(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (SC'17, §5) plus the ablations DESIGN.md calls out.

   - Figures 6-9: weak-scaling sweeps for Stencil, MiniAero, PENNANT and
     Circuit — Regent with and without control replication on the machine
     simulator, plus the reference step-time models — printed as the same
     series the paper plots (throughput per node vs. nodes).
   - Table 1: shallow and complete dynamic intersection times at 64 and
     1024 nodes, measured on this machine.
   - Ablations: §3.2 copy placement, §3.3 intersection optimization, §3.4
     barrier vs point-to-point synchronisation, §4.5 hierarchical region
     trees.
   - §Data plane (PR3): compiled copy plans vs the per-element baseline,
     bulk accessor kernels vs per-element get/set, and the partition-pair
     intersection cache, cold vs cached.

   Pass --fast to sweep fewer node counts, --quick to run only the
   data-plane section (CI smoke: writes the artifact, then schema-checks
   it and exits non-zero on failure), --out PATH to redirect the JSON
   artifact. *)

let quick = Array.exists (( = ) "--quick") Sys.argv
let fast = quick || Array.exists (( = ) "--fast") Sys.argv

let json_path =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--out" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  Option.value (find 1) ~default:"BENCH_pr3.json"

let node_counts =
  if fast then [ 1; 4; 16; 64 ]
  else [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let table1_nodes = if fast then [ 16; 64 ] else [ 64; 1024 ]

let header title = Printf.printf "\n=== %s ===\n%!" title

(* Machine-readable results, accumulated as sections run and written to
   BENCH_pr3.json at the end (schema "crc-bench/1"). *)
let registry = Obs.Metrics.create ()
let json_figures : Obs.Json.t list ref = ref []
let json_table1 : Obs.Json.t list ref = ref []
let json_ablations : Obs.Json.t ref = ref Obs.Json.Null
let json_resilience : Obs.Json.t list ref = ref []
let json_data_plane : Obs.Json.t ref = ref Obs.Json.Null

(* ---------- weak scaling sweeps (Figures 6-9) ---------- *)

type variant = { vname : string; per_step : int -> float }

let print_figure ~name ~title ~unit_ ~elements_per_node variants =
  header title;
  Printf.printf "%6s" "nodes";
  List.iter (fun v -> Printf.printf " %14s" v.vname) variants;
  Printf.printf "   (%s per node)\n" unit_;
  (* One simulation per (node count, variant): the matrix feeds the printed
     table, the efficiency row and the JSON series. *)
  let matrix =
    List.map (fun n -> (n, List.map (fun v -> v.per_step n) variants)) node_counts
  in
  List.iter
    (fun (n, row) ->
      Printf.printf "%6d" n;
      List.iter (fun ps -> Printf.printf " %14.1f" (elements_per_node /. ps)) row;
      Printf.printf "\n%!")
    matrix;
  (* Parallel efficiency at the largest sweep point, as the paper quotes. *)
  let singles = snd (List.hd matrix) in
  let last, last_row = List.hd (List.rev matrix) in
  Printf.printf "%6s" "eff%";
  List.iter2
    (fun single at_last -> Printf.printf " %14.1f" (100. *. single /. at_last))
    singles last_row;
  Printf.printf "   (at %d nodes)\n%!" last;
  let series =
    List.mapi
      (fun i v ->
        let eff =
          100. *. List.nth singles i /. List.nth last_row i
        in
        Obs.Metrics.set registry
          (Printf.sprintf "bench.%s.%s.eff_pct" name v.vname)
          eff;
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str v.vname);
            ("efficiency_pct", Obs.Json.Float eff);
            ( "points",
              Obs.Json.List
                (List.map
                   (fun (n, row) ->
                     let ps = List.nth row i in
                     Obs.Json.Obj
                       [
                         ("nodes", Obs.Json.Int n);
                         ("per_step_s", Obs.Json.Float ps);
                         ( "throughput_per_node",
                           Obs.Json.Float (elements_per_node /. ps) );
                       ])
                   matrix) );
          ])
      variants
  in
  json_figures :=
    !json_figures
    @ [
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str name);
            ("title", Obs.Json.Str title);
            ("unit", Obs.Json.Str unit_);
            ("elements_per_node", Obs.Json.Float elements_per_node);
            ("series", Obs.Json.List series);
          ];
      ]

let cr_per_step ~mk_program ~mk_scale ?task_noise () n =
  let machine = Realm.Machine.make ~nodes:n ?task_noise () in
  let prog = mk_program n in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:n) prog in
  (Legion.Sim_spmd.simulate ~machine ~scale:(mk_scale n) ~steps:8 compiled)
    .Legion.Sim_spmd.per_step

let nocr_per_step ~mk_program ~mk_scale ?task_noise () n =
  let machine = Realm.Machine.make ~nodes:n ?task_noise () in
  let prog = mk_program n in
  (Legion.Sim_implicit.simulate ~machine ~scale:(mk_scale n) ~steps:6 prog)
    .Legion.Sim_implicit.per_step

let fig6 () =
  let mk_program n = Apps.Stencil.program (Apps.Stencil.default ~nodes:n) in
  let mk_scale n = Apps.Stencil.scale (Apps.Stencil.default ~nodes:n) in
  let reference variant n =
    Apps.Stencil.Reference.per_step
      (Realm.Machine.make ~nodes:n ())
      (Apps.Stencil.default ~nodes:n)
      variant
  in
  print_figure ~name:"fig6" ~title:"Figure 6: Stencil weak scaling" ~unit_:"10^6 points/s"
    ~elements_per_node:
      (float_of_int (Apps.Stencil.default ~nodes:1).Apps.Stencil.points_per_node
      /. 1e6)
    [
      { vname = "Regent+CR"; per_step = cr_per_step ~mk_program ~mk_scale () };
      { vname = "Regent-noCR"; per_step = nocr_per_step ~mk_program ~mk_scale () };
      { vname = "MPI"; per_step = reference Apps.Stencil.Reference.Mpi };
      {
        vname = "MPI+OpenMP";
        per_step = reference Apps.Stencil.Reference.Mpi_openmp;
      };
    ]

let fig7 () =
  let mk_program n = Apps.Miniaero.program (Apps.Miniaero.sim_config ~nodes:n) in
  let mk_scale n = Apps.Miniaero.scale (Apps.Miniaero.sim_config ~nodes:n) in
  let full = Apps.Miniaero.default ~nodes:1 in
  let x, y, z = full.Apps.Miniaero.piece_cells in
  let cells_per_node = full.Apps.Miniaero.pieces_per_node * x * y * z in
  let reference variant n =
    Apps.Miniaero.Reference.per_step
      (Realm.Machine.make ~nodes:n ())
      (Apps.Miniaero.default ~nodes:n)
      variant
  in
  print_figure ~name:"fig7" ~title:"Figure 7: MiniAero weak scaling" ~unit_:"10^3 cells/s"
    ~elements_per_node:(float_of_int cells_per_node /. 1e3)
    [
      { vname = "Regent+CR"; per_step = cr_per_step ~mk_program ~mk_scale () };
      { vname = "Regent-noCR"; per_step = nocr_per_step ~mk_program ~mk_scale () };
      {
        vname = "MPI+K(core)";
        per_step = reference Apps.Miniaero.Reference.Rank_per_core;
      };
      {
        vname = "MPI+K(node)";
        per_step = reference Apps.Miniaero.Reference.Rank_per_node;
      };
    ]

let fig8 () =
  let mk_program n = Apps.Pennant.program (Apps.Pennant.sim_config ~nodes:n) in
  let mk_scale n = Apps.Pennant.scale (Apps.Pennant.sim_config ~nodes:n) in
  let noise = Apps.Pennant.task_noise in
  let full = Apps.Pennant.default ~nodes:1 in
  let zx, zy = full.Apps.Pennant.piece_zones in
  let zones_per_node = full.Apps.Pennant.pieces_per_node * zx * zy in
  let reference variant n =
    Apps.Pennant.Reference.per_step
      (Realm.Machine.make ~nodes:n ~task_noise:noise ())
      (Apps.Pennant.default ~nodes:n)
      variant
  in
  print_figure ~name:"fig8" ~title:"Figure 8: PENNANT weak scaling" ~unit_:"10^6 zones/s"
    ~elements_per_node:(float_of_int zones_per_node /. 1e6)
    [
      {
        vname = "Regent+CR";
        per_step = cr_per_step ~mk_program ~mk_scale ~task_noise:noise ();
      };
      {
        vname = "Regent-noCR";
        per_step = nocr_per_step ~mk_program ~mk_scale ~task_noise:noise ();
      };
      { vname = "MPI"; per_step = reference Apps.Pennant.Reference.Mpi };
      {
        vname = "MPI+OpenMP";
        per_step = reference Apps.Pennant.Reference.Mpi_openmp;
      };
    ]

let fig9 () =
  let mk_program n = Apps.Circuit.program (Apps.Circuit.sim_config ~nodes:n) in
  let mk_scale n = Apps.Circuit.scale (Apps.Circuit.sim_config ~nodes:n) in
  let full = Apps.Circuit.default ~nodes:1 in
  let cnodes_per_node =
    full.Apps.Circuit.pieces_per_node * full.Apps.Circuit.cnodes_per_piece
  in
  print_figure ~name:"fig9" ~title:"Figure 9: Circuit weak scaling"
    ~unit_:"10^3 circuit nodes/s"
    ~elements_per_node:(float_of_int cnodes_per_node /. 1e3)
    [
      { vname = "Regent+CR"; per_step = cr_per_step ~mk_program ~mk_scale () };
      { vname = "Regent-noCR"; per_step = nocr_per_step ~mk_program ~mk_scale () };
    ]

(* ---------- Table 1: dynamic intersection times ---------- *)

(* Partition pairs of every sparse copy of the compiled program. *)
let sparse_pairs compiled =
  List.concat_map
    (function
      | Spmd.Prog.Replicated b ->
          List.filter_map
            (fun (c : Spmd.Prog.copy) ->
              match (c.Spmd.Prog.src, c.Spmd.Prog.dst) with
              | Spmd.Prog.Opart ps, Spmd.Prog.Opart pd ->
                  Some
                    ( Ir.Program.find_partition compiled.Spmd.Prog.source ps,
                      Ir.Program.find_partition compiled.Spmd.Prog.source pd )
              | _ -> None)
            b.Spmd.Prog.copies
      | Spmd.Prog.Seq _ -> [])
    compiled.Spmd.Prog.items

(* Run the dynamic analysis for every sparse copy of the compiled program,
   accumulating shallow and complete times (§3.3). *)
let measure_intersections prog shards =
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
  let stats = Spmd.Intersections.fresh_stats () in
  List.iter
    (fun (src, dst) -> ignore (Spmd.Intersections.compute ~stats ~src ~dst ()))
    (sparse_pairs compiled);
  stats

(* The same pass through the partition-pair cache: one cold pass (misses,
   computed and inserted) and one hot pass (pure lookups). *)
let measure_cached prog shards =
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
  let pairs = sparse_pairs compiled in
  Spmd.Intersections.clear_cache ();
  let stats = Spmd.Intersections.fresh_stats () in
  let pass () =
    List.iter
      (fun (src, dst) ->
        ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst ()))
      pairs
  in
  let t0 = Unix.gettimeofday () in
  pass ();
  let cold = Unix.gettimeofday () -. t0 in
  let reps = 10 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to reps do
    pass ()
  done;
  let cached = (Unix.gettimeofday () -. t1) /. float_of_int reps in
  (cold, cached, stats.Spmd.Intersections.cache_hits)

let table1 () =
  header "Table 1: dynamic region intersection times";
  Printf.printf "%10s %6s %12s %12s %12s %12s %10s %10s\n" "app" "nodes"
    "shallow(ms)" "complete(ms)" "candidates" "non-empty" "cold(ms)"
    "cached(ms)";
  let apps =
    [
      ( "Circuit",
        fun n -> Apps.Circuit.program (Apps.Circuit.sim_config ~nodes:n) );
      ( "MiniAero",
        fun n -> Apps.Miniaero.program (Apps.Miniaero.sim_config ~nodes:n) );
      ( "PENNANT",
        fun n -> Apps.Pennant.program (Apps.Pennant.sim_config ~nodes:n) );
      ("Stencil", fun n -> Apps.Stencil.program (Apps.Stencil.default ~nodes:n));
    ]
  in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun n ->
          let stats = measure_intersections (mk n) n in
          let cold, cached, hits = measure_cached (mk n) n in
          Printf.printf "%10s %6d %12.2f %12.2f %12d %12d %10.2f %10.4f\n%!"
            name n
            (stats.Spmd.Intersections.shallow_s *. 1e3)
            (stats.Spmd.Intersections.complete_s *. 1e3)
            stats.Spmd.Intersections.candidates
            stats.Spmd.Intersections.nonempty (cold *. 1e3) (cached *. 1e3);
          json_table1 :=
            !json_table1
            @ [
                Obs.Json.Obj
                  [
                    ("app", Obs.Json.Str name);
                    ("nodes", Obs.Json.Int n);
                    ( "shallow_ms",
                      Obs.Json.Float (stats.Spmd.Intersections.shallow_s *. 1e3)
                    );
                    ( "complete_ms",
                      Obs.Json.Float (stats.Spmd.Intersections.complete_s *. 1e3)
                    );
                    ( "candidates",
                      Obs.Json.Int stats.Spmd.Intersections.candidates );
                    ("nonempty", Obs.Json.Int stats.Spmd.Intersections.nonempty);
                    ("cold_ms", Obs.Json.Float (cold *. 1e3));
                    ("cached_ms", Obs.Json.Float (cached *. 1e3));
                    ("cache_hits", Obs.Json.Int hits);
                  ];
              ])
        table1_nodes)
    apps

(* ---------- ablations ---------- *)

(* Dynamic-analysis cost of one configuration: (seconds, candidate pairs,
   pair-set computations). *)
let measure_intersections_with config prog =
  let compiled = Cr.Pipeline.compile config prog in
  let stats = Spmd.Intersections.fresh_stats () in
  let sets = ref 0 in
  List.iter
    (function
      | Spmd.Prog.Replicated b ->
          List.iter
            (fun (c : Spmd.Prog.copy) ->
              match (c.Spmd.Prog.src, c.Spmd.Prog.dst) with
              | Spmd.Prog.Opart ps, Spmd.Prog.Opart pd ->
                  incr sets;
                  ignore
                    (Spmd.Intersections.compute ~stats
                       ~src:(Ir.Program.find_partition compiled.Spmd.Prog.source ps)
                       ~dst:(Ir.Program.find_partition compiled.Spmd.Prog.source pd)
                       ())
              | _ -> ())
            b.Spmd.Prog.copies
      | Spmd.Prog.Seq _ -> ())
    compiled.Spmd.Prog.items;
  ( stats.Spmd.Intersections.shallow_s +. stats.Spmd.Intersections.complete_s,
    stats.Spmd.Intersections.candidates,
    !sets )

(* A three-phase update chain: each phase rewrites the same partition; only
   the last value is read through the aliased halo, so the first two
   write-propagation copies are redundant — the §3.2 pattern. *)
let placement_chain_program ~pieces =
  let open Regions in
  let open Ir in
  let module Syn = Program.Syntax in
  let fv = Field.make "v" in
  let n = pieces * 4 in
  let b = Program.Builder.create ~name:"chain" in
  let r1 = Program.Builder.region b ~name:"R1" (Index_space.of_range n) [ fv ] in
  let r2 = Program.Builder.region b ~name:"R2" (Index_space.of_range n) [ fv ] in
  let p =
    Program.Builder.partition b ~name:"P" (fun ~name ->
        Partition.block ~name r1 ~pieces)
  in
  let _q =
    Program.Builder.partition b ~name:"Q" (fun ~name ->
        Partition.image ~name ~target:r1 ~src:p (fun e -> [ (e + 1) mod n ]))
  in
  let _s =
    Program.Builder.partition b ~name:"S" (fun ~name ->
        Partition.block ~name r2 ~pieces)
  in
  Program.Builder.space b ~name:"I" pieces;
  let phase name delta =
    Task.make ~name
      ~params:[ { Task.pname = "out"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i (Accessor.get accs.(0) fv i +. delta));
        0.)
  in
  let consume =
    Task.make ~name:"consume"
      ~params:
        [
          { Task.pname = "out"; privs = [ Privilege.writes fv ] };
          { Task.pname = "inp"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i
              (Accessor.get accs.(1) fv ((i + 1) mod n) *. 0.5));
        0.)
  in
  List.iter (Program.Builder.task b)
    [ phase "phase1" 1.; phase "phase2" 2.; phase "phase3" 3.; consume ];
  Program.Builder.body b
    [
      Syn.for_time "t" 2
        [
          Syn.forall "I" (Syn.call "phase1" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "phase2" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "phase3" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "consume" [ Syn.part "S"; Syn.part "Q" ]);
        ];
    ];
  Program.Builder.finish b

let simulate_with config ~scale n prog =
  let machine = Realm.Machine.make ~nodes:n () in
  let compiled = Cr.Pipeline.compile config prog in
  Legion.Sim_spmd.simulate ~machine ~scale ~steps:8 compiled

let ablations () =
  header "Ablations (simulated per-step seconds at 64 nodes)";
  let n = 64 in
  let cases =
    [
      ( "Stencil",
        (fun () -> Apps.Stencil.program (Apps.Stencil.default ~nodes:n)),
        Apps.Stencil.scale (Apps.Stencil.default ~nodes:n) );
      ( "Circuit",
        (fun () -> Apps.Circuit.program (Apps.Circuit.sim_config ~nodes:n)),
        Apps.Circuit.scale (Apps.Circuit.sim_config ~nodes:n) );
      ( "MiniAero",
        (fun () -> Apps.Miniaero.program (Apps.Miniaero.sim_config ~nodes:n)),
        Apps.Miniaero.scale (Apps.Miniaero.sim_config ~nodes:n) );
    ]
  in
  Printf.printf "%10s %12s %12s %12s %12s %12s\n" "app" "default" "barriers"
    "all-pairs" "no-placemt" "flat-tree";
  let json_per_step = ref [] in
  List.iter
    (fun (name, mk, scale) ->
      let d = Cr.Pipeline.default ~shards:n in
      let run config =
        (simulate_with config ~scale n (mk ())).Legion.Sim_spmd.per_step
      in
      let vd = run d in
      let vbar = run { d with Cr.Pipeline.sync = `Barrier } in
      let vdense = run { d with Cr.Pipeline.intersections = `Dense } in
      let vnoplace = run { d with Cr.Pipeline.placement = false } in
      let vflat = run { d with Cr.Pipeline.hierarchical = false } in
      Printf.printf "%10s %12.4f %12.4f %12.4f %12.4f %12.4f\n%!" name vd vbar
        vdense vnoplace vflat;
      json_per_step :=
        !json_per_step
        @ [
            Obs.Json.Obj
              [
                ("app", Obs.Json.Str name);
                ("default", Obs.Json.Float vd);
                ("barriers", Obs.Json.Float vbar);
                ("all_pairs", Obs.Json.Float vdense);
                ("no_placement", Obs.Json.Float vnoplace);
                ("flat_tree", Obs.Json.Float vflat);
              ];
          ])
    cases;
  (* The §4.5 benefit is in the dynamic analysis, not the executed copies:
     a flat tree cannot prove the private partitions disjoint from the
     ghosts, so the runtime computes intersections for partition pairs that
     never exchange data. *)
  Printf.printf
    "\n%10s | %10s %10s %12s | %10s %10s %12s   (dynamic intersections)\n"
    "app" "pairsets" "candidates" "analysis(ms)" "pairsets" "candidates"
    "analysis(ms)";
  Printf.printf "%10s | %36s | %36s\n" "" "hierarchical (default)"
    "flat tree (no §4.5)";
  let json_analysis = ref [] in
  List.iter
    (fun (name, mk, _scale) ->
      let d = Cr.Pipeline.default ~shards:n in
      let measure config =
        let prog = mk () in
        let stats = measure_intersections_with config prog in
        stats
      in
      let h = measure d
      and f = measure { d with Cr.Pipeline.hierarchical = false } in
      let ms (a, _, _) = a *. 1e3
      and cand (_, c, _) = c
      and sets (_, _, s) = s in
      Printf.printf "%10s | %10d %10d %12.2f | %10d %10d %12.2f\n%!" name
        (sets h) (cand h) (ms h) (sets f) (cand f) (ms f);
      let side v =
        Obs.Json.Obj
          [
            ("pairsets", Obs.Json.Int (sets v));
            ("candidates", Obs.Json.Int (cand v));
            ("analysis_ms", Obs.Json.Float (ms v));
          ]
      in
      json_analysis :=
        !json_analysis
        @ [
            Obs.Json.Obj
              [
                ("app", Obs.Json.Str name);
                ("hierarchical", side h);
                ("flat_tree", side f);
              ];
          ])
    cases;
  (* §3.2 copy placement: the four applications write each partition once
     per aliased-reader use, so placement is already optimal there (as the
     paper notes for Fig. 4a); a multi-phase update chain shows the
     optimization at work. *)
  let chain = placement_chain_program ~pieces:(n * 4) in
  let copies config =
    let compiled = Cr.Pipeline.compile config chain in
    List.fold_left
      (fun acc -> function
        | Spmd.Prog.Replicated b ->
            let rec count = function
              | [] -> 0
              | Spmd.Prog.For_time { body; _ } :: rest -> count body + count rest
              | Spmd.Prog.Copy _ :: rest -> 1 + count rest
              | _ :: rest -> count rest
            in
            acc + count b.Spmd.Prog.body
        | Spmd.Prog.Seq _ -> acc)
      0 compiled.Spmd.Prog.items
  in
  let d = Cr.Pipeline.default ~shards:n in
  let with_p = copies d
  and without_p = copies { d with Cr.Pipeline.placement = false } in
  Printf.printf
    "\nplacement ablation (3-phase update chain): %d copy statements per step with placement, %d without\n%!"
    with_p without_p;
  json_ablations :=
    Obs.Json.Obj
      [
        ("nodes", Obs.Json.Int n);
        ("per_step_s", Obs.Json.List !json_per_step);
        ("intersection_analysis", Obs.Json.List !json_analysis);
        ( "placement_chain",
          Obs.Json.Obj
            [
              ("with_placement_copies", Obs.Json.Int with_p);
              ("without_placement_copies", Obs.Json.Int without_p);
            ] );
      ]

(* ---------- resilience overhead ---------- *)

(* What arming the fault injector (per-attempt rollback snapshots), firing
   actual faults, and cutting checkpoints cost on a real (non-simulated)
   SPMD execution. *)
let resilience_overhead () =
  header "Resilience overhead (stencil, real SPMD execution, 3 shards)";
  let mk () = Apps.Stencil.program (Apps.Stencil.test_config ~nodes:3) in
  let time f =
    let reps = if fast then 3 else 10 in
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e3
  in
  let run ?policy ?checkpoint () =
    let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) (mk ()) in
    let compiled =
      match checkpoint with
      | Some every ->
          Spmd.Prog.map_blocks (Spmd.Prog.with_checkpoints ~every) compiled
      | None -> compiled
    in
    let ctx = Interp.Run.create compiled.Spmd.Prog.source in
    let fault =
      Option.map (fun policy -> Resilience.Fault.create ~policy ~seed:7 ()) policy
    in
    let checkpoint_sink =
      Option.map (fun _ (_ : Resilience.Checkpoint.t) -> ()) checkpoint
    in
    Spmd.Exec.run ?fault ?checkpoint_sink compiled ctx
  in
  let leaf =
    {
      Resilience.Fault.no_faults with
      Resilience.Fault.leaf_fail_rate = 0.1;
      leaf_retries = 6;
    }
  in
  List.iter
    (fun (name, f) ->
      let ms = time f in
      Printf.printf "%30s %10.3f ms/run\n%!" name ms;
      json_resilience :=
        !json_resilience
        @ [
            Obs.Json.Obj
              [ ("case", Obs.Json.Str name); ("ms_per_run", Obs.Json.Float ms) ];
          ])
    [
      ("baseline", fun () -> run ());
      ( "armed, zero rates (snapshots)",
        fun () -> run ~policy:Resilience.Fault.no_faults () );
      ("10% leaf faults + rollback", fun () -> run ~policy:leaf ());
      ("checkpoint every iteration", fun () -> run ~checkpoint:1 ());
    ]

(* ---------- §Data plane: plans, bulk accessors, intersection cache ---------- *)

let time_per_run ~reps f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Ghost exchange between neighbouring structured tiles: the left tile's
   instance feeds a halo slab owned by its neighbour — the copy shape the
   SPMD executor replays every time step. [`Rows] slabs cut across the slow
   axis (full-row runs, the stencil x-halo); [`Cols] slabs cut the fast
   axis (short runs, the y-halo — the plan's worst case). *)
let copy_microbench shape =
  let open Geometry in
  let open Regions in
  let fa = Field.make "dp_a" and fb = Field.make "dp_b" in
  let fl = [ fa; fb ] in
  let side = 512 in
  let depth = 8 in
  let u = Rect.make2 ~lo:(0, 0) ~hi:((side - 1), (side - 1)) in
  let half = side / 2 in
  let tile =
    Index_space.of_rects ~universe:u
      [ Rect.make2 ~lo:(0, 0) ~hi:(half - 1, side - 1) ]
  in
  let halo_rect =
    match shape with
    | `Rows -> Rect.make2 ~lo:(half - depth, 0) ~hi:(half + depth - 1, side - 1)
    | `Cols -> Rect.make2 ~lo:(0, half - depth) ~hi:(side - 1, half + depth - 1)
  in
  let halo = Index_space.of_rects ~universe:u [ halo_rect ] in
  let src = Physical.create_over tile fl in
  let dst = Physical.create_over halo fl in
  List.iter (fun f -> Physical.fill src f 1.5) fl;
  let volume =
    Index_space.cardinal (Index_space.inter tile halo) * List.length fl
  in
  let reps_scalar = if fast then 20 else 100 in
  let reps_plan = reps_scalar * 10 in
  let scalar_s =
    time_per_run ~reps:reps_scalar (fun () ->
        Physical.copy_into ~fields:fl ~src ~dst ())
  in
  let plan = Spmd.Copy_plan.build ~src ~dst ~fields:fl () in
  let plan_s =
    time_per_run ~reps:reps_plan (fun () -> Spmd.Copy_plan.copy plan ~src ~dst)
  in
  let scalar_red_s =
    time_per_run ~reps:reps_scalar (fun () ->
        Physical.reduce_into ~op:Privilege.Sum ~fields:fl ~src ~dst ())
  in
  let plan_red_s =
    time_per_run ~reps:reps_plan (fun () ->
        Spmd.Copy_plan.reduce plan ~op:Privilege.Sum ~src ~dst)
  in
  (volume, Spmd.Copy_plan.nruns plan, scalar_s, plan_s, scalar_red_s, plan_red_s)

(* Per-element [Accessor.get]/[set] vs the hoisted bulk closures over the
   same full-view instance — the saxpy-shaped loop every app kernel runs. *)
let kernel_microbench () =
  let open Geometry in
  let open Regions in
  let fx = Field.make "dp_x" and fy = Field.make "dp_y" in
  let side = 512 in
  let space = Index_space.of_rect (Rect.make2 ~lo:(0, 0) ~hi:(side - 1, side - 1)) in
  let inst = Physical.create_over space [ fx; fy ] in
  Physical.fill inst fx 2.0;
  let acc =
    Accessor.make inst ~space [ Privilege.reads fx; Privilege.writes fy ]
  in
  let n = Index_space.cardinal space in
  let reps = if fast then 20 else 100 in
  let scalar_s =
    time_per_run ~reps (fun () ->
        Accessor.iter acc (fun id ->
            Accessor.set acc fy id ((2.5 *. Accessor.get acc fx id) +. 1.)))
  in
  let bulk_s =
    time_per_run ~reps (fun () ->
        let rx = Accessor.reader acc fx and wy = Accessor.writer acc fy in
        Accessor.iter_runs acc (fun lo hi ->
            for id = lo to hi do
              wy id ((2.5 *. rx id) +. 1.)
            done))
  in
  (n, scalar_s, bulk_s)

(* Cold vs cached dynamic analysis on Circuit's shr -> ghost exchange (the
   partition pair Table 1 measures), through the partition-pair cache. *)
let isect_cold_cached () =
  let nodes = 16 in
  let prog = Apps.Circuit.program (Apps.Circuit.sim_config ~nodes) in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:nodes) prog in
  let src = Ir.Program.find_partition compiled.Spmd.Prog.source "shr"
  and dst = Ir.Program.find_partition compiled.Spmd.Prog.source "ghost" in
  Spmd.Intersections.clear_cache ();
  let stats = Spmd.Intersections.fresh_stats () in
  let t0 = Unix.gettimeofday () in
  ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst ());
  let cold = Unix.gettimeofday () -. t0 in
  let reps = 1000 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst ())
  done;
  let cached = (Unix.gettimeofday () -. t1) /. float_of_int reps in
  (cold, cached, stats.Spmd.Intersections.cache_hits)

let data_plane () =
  header "Data plane: copy plans, bulk accessors, intersection cache";
  let copy_case name shape =
    let volume, nruns, scalar_s, plan_s, scalar_red_s, plan_red_s =
      copy_microbench shape
    in
    let speedup = scalar_s /. plan_s in
    let red_speedup = scalar_red_s /. plan_red_s in
    Printf.printf
      "%-22s %8d elems %6d runs  copy %10.1f -> %10.1f Melem/s (%5.1fx)  reduce %9.1f -> %9.1f Melem/s (%5.1fx)\n%!"
      name volume nruns
      (float_of_int volume /. scalar_s /. 1e6)
      (float_of_int volume /. plan_s /. 1e6)
      speedup
      (float_of_int volume /. scalar_red_s /. 1e6)
      (float_of_int volume /. plan_red_s /. 1e6)
      red_speedup;
    ( Obs.Json.Obj
        [
          ("case", Obs.Json.Str name);
          ("volume_elems", Obs.Json.Int volume);
          ("runs", Obs.Json.Int nruns);
          ("scalar_s_per_copy", Obs.Json.Float scalar_s);
          ("plan_s_per_copy", Obs.Json.Float plan_s);
          ("copy_speedup", Obs.Json.Float speedup);
          ("scalar_s_per_reduce", Obs.Json.Float scalar_red_s);
          ("plan_s_per_reduce", Obs.Json.Float plan_red_s);
          ("reduce_speedup", Obs.Json.Float red_speedup);
        ],
      speedup )
  in
  let ghost, ghost_speedup = copy_case "ghost-exchange(rows)" `Rows in
  let ghost_cols, _ = copy_case "ghost-exchange(cols)" `Cols in
  let n, scalar_s, bulk_s = kernel_microbench () in
  let kernel_speedup = scalar_s /. bulk_s in
  Printf.printf
    "%-22s %8d elems            saxpy %9.1f -> %10.1f Melem/s (%5.1fx)\n%!"
    "kernel(bulk accessor)" n
    (float_of_int n /. scalar_s /. 1e6)
    (float_of_int n /. bulk_s /. 1e6)
    kernel_speedup;
  let cold, cached, hits = isect_cold_cached () in
  let isect_speedup = cold /. cached in
  Printf.printf
    "%-22s cold %8.3f ms -> cached %8.5f ms (%7.1fx, %d hits)\n%!"
    "intersections(circuit)" (cold *. 1e3) (cached *. 1e3) isect_speedup hits;
  List.iter
    (fun (k, v) -> Obs.Metrics.set registry ("bench.data_plane." ^ k) v)
    [
      ("copy_speedup", ghost_speedup);
      ("isect_speedup", isect_speedup);
      ("kernel_speedup", kernel_speedup);
    ];
  json_data_plane :=
    Obs.Json.Obj
      [
        ("copy", Obs.Json.List [ ghost; ghost_cols ]);
        ( "kernel",
          Obs.Json.Obj
            [
              ("elems", Obs.Json.Int n);
              ("scalar_s", Obs.Json.Float scalar_s);
              ("bulk_s", Obs.Json.Float bulk_s);
              ("speedup", Obs.Json.Float kernel_speedup);
            ] );
        ( "intersections",
          Obs.Json.Obj
            [
              ("cold_ms", Obs.Json.Float (cold *. 1e3));
              ("cached_ms", Obs.Json.Float (cached *. 1e3));
              ("speedup", Obs.Json.Float isect_speedup);
              ("cache_hits", Obs.Json.Int hits);
            ] );
      ]

(* ---------- machine-readable artifact ---------- *)

let write_json () =
  let j =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "crc-bench/1");
        ("fast", Obs.Json.Bool fast);
        ("quick", Obs.Json.Bool quick);
        ( "node_counts",
          Obs.Json.List (List.map (fun n -> Obs.Json.Int n) node_counts) );
        ("figures", Obs.Json.List !json_figures);
        ("table1", Obs.Json.List !json_table1);
        ("ablations", !json_ablations);
        ("resilience_overhead", Obs.Json.List !json_resilience);
        ("data_plane", !json_data_plane);
        ("metrics", Obs.Metrics.to_json registry);
      ]
  in
  let oc = open_out json_path in
  Obs.Json.to_channel ~indent:2 oc j;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path

(* Read the artifact back and check schema + the PR3 acceptance thresholds
   (copy plans >= 5x the per-element baseline, cached intersections >= 10x
   cold). Exits non-zero on failure — the CI smoke gate. *)
let self_check () =
  let fail msg =
    Printf.eprintf "bench artifact check FAILED: %s\n%!" msg;
    exit 1
  in
  let s =
    let ic = open_in json_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let j =
    match Obs.Json.of_string s with
    | Ok j -> j
    | Error e -> fail ("unparseable artifact: " ^ e)
  in
  (match Option.bind (Obs.Json.member "schema" j) Obs.Json.string_value with
  | Some "crc-bench/1" -> ()
  | _ -> fail "schema is not crc-bench/1");
  List.iter
    (fun k ->
      if Obs.Json.member k j = None then fail (Printf.sprintf "missing key %S" k))
    [ "figures"; "table1"; "ablations"; "resilience_overhead"; "data_plane"; "metrics" ];
  let dp =
    match Obs.Json.member "data_plane" j with
    | Some (Obs.Json.Obj _ as d) -> d
    | _ -> fail "data_plane section missing or not an object"
  in
  let num path v =
    match Option.bind v Obs.Json.number with
    | Some x -> x
    | None -> fail (Printf.sprintf "missing number %s" path)
  in
  let copy_speedup =
    match Option.bind (Obs.Json.member "copy" dp) Obs.Json.to_list with
    | Some (first :: _) ->
        num "data_plane.copy[0].copy_speedup"
          (Obs.Json.member "copy_speedup" first)
    | _ -> fail "data_plane.copy is empty"
  in
  let isect_speedup =
    num "data_plane.intersections.speedup"
      (Option.bind (Obs.Json.member "intersections" dp) (Obs.Json.member "speedup"))
  in
  if copy_speedup < 5. then
    fail (Printf.sprintf "copy plan speedup %.2fx < 5x" copy_speedup);
  if isect_speedup < 10. then
    fail (Printf.sprintf "cached intersection speedup %.2fx < 10x" isect_speedup);
  Printf.printf
    "artifact %s: schema + thresholds OK (copy %.1fx, intersections %.1fx)\n%!"
    json_path copy_speedup isect_speedup

let () =
  if not quick then begin
    fig6 ();
    fig7 ();
    fig8 ();
    fig9 ();
    table1 ();
    ablations ();
    resilience_overhead ()
  end;
  data_plane ();
  write_json ();
  self_check ();
  Printf.printf "\nAll experiments complete.\n"
