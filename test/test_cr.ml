(* Tests for the control replication pipeline: golden structure tests on the
   paper's Fig. 2 program and end-to-end equivalence between sequential
   execution and SPMD execution of the compiled program, across shard
   counts, schedules and optimization configurations. *)

open Regions
open Ir

let check = Alcotest.check

(* ---------- helpers ---------- *)

let run_seq prog =
  let ctx = Interp.Run.create prog in
  Interp.Run.run ctx;
  ctx

let run_spmd ?sched config prog =
  let compiled = Cr.Pipeline.compile config prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  Spmd.Exec.run ?sched compiled ctx;
  (ctx, compiled)

(* Two instantiations of the same program build distinct region objects,
   so compare final states keyed by region, field and scalar names. *)
let equivalent ?sched config mkprog =
  let seq_ctx = run_seq (mkprog ()) in
  let spmd_ctx, _ = run_spmd ?sched config (mkprog ()) in
  Conform.Oracle.(same_state (snapshot seq_ctx) (snapshot spmd_ctx))

let equivalence_case name ?sched config mkprog =
  Alcotest.test_case name `Quick (fun () ->
      check Alcotest.bool
        (name ^ ": SPMD result equals sequential")
        true
        (equivalent ?sched config mkprog))

(* ---------- golden structure tests on Fig. 2 ---------- *)

let fig2_block config =
  let prog = Test_fixtures.Fixtures.fig2 () in
  let compiled = Cr.Pipeline.compile config prog in
  let blocks =
    List.filter_map
      (function Spmd.Prog.Replicated b -> Some b | Spmd.Prog.Seq _ -> None)
      compiled.Spmd.Prog.items
  in
  match blocks with
  | [ b ] -> (compiled, b)
  | l -> Alcotest.failf "expected exactly one replicated block, got %d" (List.length l)

let rec count_instrs pred instrs =
  List.fold_left
    (fun acc i ->
      let nested =
        match i with Spmd.Prog.For_time { body; _ } -> count_instrs pred body | _ -> 0
      in
      acc + nested + if pred i then 1 else 0)
    0 instrs

let is_copy = function Spmd.Prog.Copy _ -> true | _ -> false
let is_launch = function Spmd.Prog.Launch _ -> true | _ -> false
let is_await = function Spmd.Prog.Await _ -> true | _ -> false
let is_release = function Spmd.Prog.Release _ -> true | _ -> false
let is_barrier = function Spmd.Prog.Barrier -> true | _ -> false

let test_fig2_structure () =
  let _, b = fig2_block (Cr.Pipeline.default ~shards:2) in
  (* Fig. 4b/4d: inits for PA, PB, QB; one intersection copy PB -> QB in the
     loop; finalizes for the written partitions PA and PB. *)
  check Alcotest.int "init copies" 3 (count_instrs is_copy b.Spmd.Prog.init);
  check Alcotest.int "loop copies" 1 (count_instrs is_copy b.Spmd.Prog.body);
  check Alcotest.int "finalize copies" 2
    (count_instrs is_copy b.Spmd.Prog.finalize);
  check Alcotest.int "launches" 2 (count_instrs is_launch b.Spmd.Prog.body);
  (* §3.4: one await after the copy, one release after the last consumer. *)
  check Alcotest.int "awaits" 1 (count_instrs is_await b.Spmd.Prog.body);
  check Alcotest.int "releases" 1 (count_instrs is_release b.Spmd.Prog.body);
  check Alcotest.int "no barriers in p2p mode" 0
    (count_instrs is_barrier b.Spmd.Prog.body);
  (* The loop copy goes PB -> QB with sparse intersections. *)
  let copy =
    List.find_map
      (function
        | Spmd.Prog.For_time { body; _ } ->
            List.find_map
              (function Spmd.Prog.Copy c -> Some c | _ -> None)
              body
        | _ -> None)
      b.Spmd.Prog.body
  in
  match copy with
  | None -> Alcotest.fail "no loop copy"
  | Some c ->
      check Alcotest.bool "src PB" true (c.Spmd.Prog.src = Spmd.Prog.Opart "PB");
      check Alcotest.bool "dst QB" true (c.Spmd.Prog.dst = Spmd.Prog.Opart "QB");
      check Alcotest.bool "sparse" true (c.Spmd.Prog.pairs = `Sparse)

let test_fig2_barrier_mode () =
  let config =
    { (Cr.Pipeline.default ~shards:2) with Cr.Pipeline.sync = `Barrier }
  in
  let _, b = fig2_block config in
  (* Fig. 4c: two barriers around the single loop copy. *)
  check Alcotest.int "barriers" 2 (count_instrs is_barrier b.Spmd.Prog.body)

let test_fig2_no_placement_has_more_copies () =
  let on = Cr.Pipeline.default ~shards:2 in
  let off = { on with Cr.Pipeline.placement = false } in
  let _, bon = fig2_block on in
  let _, boff = fig2_block off in
  (* Without placement, the write to PA also copies (PA aliases nothing, so
     here counts coincide) — the real difference shows on programs with
     repeated writes; at minimum placement never adds copies. *)
  check Alcotest.bool "placement does not add copies" true
    (count_instrs is_copy bon.Spmd.Prog.body
    <= count_instrs is_copy boff.Spmd.Prog.body)

let test_fig2_intersections_nonempty () =
  let prog = Test_fixtures.Fixtures.fig2 () in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:4) prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  let stats = Spmd.Exec.fresh_stats () in
  Spmd.Exec.run ~stats compiled ctx;
  check Alcotest.bool "some non-empty intersections" true
    (stats.Spmd.Exec.isect.Spmd.Intersections.nonempty > 0);
  check Alcotest.bool "shallow phase pruned or kept pairs" true
    (stats.Spmd.Exec.isect.Spmd.Intersections.candidates
    >= stats.Spmd.Exec.isect.Spmd.Intersections.nonempty)

(* The dead/redundant copy elimination: write the same partition twice with
   no reads of the aliased reader in between — placement must drop the first
   copy. The consumer writes a second region so the launch stays free of
   loop-carried dependencies. *)
let double_write_program () =
  let fv = Test_fixtures.Fixtures.fv in
  let b = Program.Builder.create ~name:"double-write" in
  let r1 = Program.Builder.region b ~name:"R1" (Index_space.of_range 12) [ fv ] in
  let r2 = Program.Builder.region b ~name:"R2" (Index_space.of_range 12) [ fv ] in
  let pa =
    Program.Builder.partition b ~name:"P" (fun ~name ->
        Partition.block ~name r1 ~pieces:3)
  in
  let _q =
    Program.Builder.partition b ~name:"Q" (fun ~name ->
        Partition.image ~name ~target:r1 ~src:pa (fun e -> [ (e + 1) mod 12 ]))
  in
  let _s =
    Program.Builder.partition b ~name:"S" (fun ~name ->
        Partition.block ~name r2 ~pieces:3)
  in
  Program.Builder.space b ~name:"I" 3;
  let bump name delta =
    Task.make ~name
      ~params:[ { Task.pname = "out"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun id ->
            Accessor.set accs.(0) fv id (Accessor.get accs.(0) fv id +. delta));
        0.)
  in
  let reader =
    Task.make ~name:"consume"
      ~params:
        [
          { Task.pname = "out"; privs = [ Privilege.writes fv ] };
          { Task.pname = "inp"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        let out = accs.(0) and inp = accs.(1) in
        Accessor.iter out (fun id ->
            let other = (id + 1) mod 12 in
            Accessor.set out fv id
              ((Accessor.get out fv id *. 0.5)
              +. (Accessor.get inp fv other *. 0.25)));
        0.)
  in
  Program.Builder.task b (bump "bump1" 1.);
  Program.Builder.task b (bump "bump2" 2.);
  Program.Builder.task b reader;
  let module Syn = Program.Syntax in
  Program.Builder.body b
    [
      Syn.for_time "t" 2
        [
          Syn.forall "I" (Syn.call "bump1" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "bump2" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "consume" [ Syn.part "S"; Syn.part "Q" ]);
        ];
    ];
  Program.Builder.finish b

let test_placement_removes_redundant_copy () =
  let on = Cr.Pipeline.default ~shards:2 in
  let off = { on with Cr.Pipeline.placement = false } in
  let compile cfg =
    let compiled = Cr.Pipeline.compile cfg (double_write_program ()) in
    match
      List.find_map
        (function Spmd.Prog.Replicated b -> Some b | _ -> None)
        compiled.Spmd.Prog.items
    with
    | Some b -> count_instrs is_copy b.Spmd.Prog.body
    | None -> Alcotest.fail "no block"
  in
  (* Naive: a copy P->Q after each of the two bumps. Placed: the copy after
     bump1 is redundant (Q unread until consume). *)
  check Alcotest.int "naive copies" 2 (compile off);
  check Alcotest.int "placed copies" 1 (compile on)

(* ---------- equivalence: Fig. 2 ---------- *)

let fig2_equivalences =
  let mk () = Test_fixtures.Fixtures.fig2 ~n:24 ~nt:6 ~timesteps:4 () in
  let d s = Cr.Pipeline.default ~shards:s in
  [
    equivalence_case "fig2 1 shard" (d 1) mk;
    equivalence_case "fig2 2 shards" (d 2) mk;
    equivalence_case "fig2 3 shards (uneven)" (d 3) mk;
    equivalence_case "fig2 6 shards" (d 6) mk;
    equivalence_case "fig2 random schedule" ~sched:(`Random 42) (d 4) mk;
    equivalence_case "fig2 barrier sync"
      { (d 4) with Cr.Pipeline.sync = `Barrier }
      mk;
    equivalence_case "fig2 dense intersections"
      { (d 4) with Cr.Pipeline.intersections = `Dense }
      mk;
    equivalence_case "fig2 no placement"
      { (d 4) with Cr.Pipeline.placement = false }
      mk;
    equivalence_case "fig2 flat trees"
      { (d 4) with Cr.Pipeline.hierarchical = false }
      mk;
    equivalence_case "fig2 on real domains" ~sched:`Domains (d 4) mk;
  ]

(* ---------- equivalence: random programs ---------- *)

let random_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"random programs: SPMD == sequential"
       ~print:(fun (seed, shards, sched_seed) ->
         Printf.sprintf "seed=%d shards=%d sched=%d" seed shards sched_seed)
       QCheck2.Gen.(
         let* seed = int_range 0 100000 in
         let* shards = int_range 1 5 in
         let* sched_seed = int_range 0 1000 in
         return (seed, shards, sched_seed))
       (fun (seed, shards, sched_seed) ->
         let mk () = Conform.Gen.program seed in
         (match Check.check (mk ()) with
         | Ok () -> ()
         | Error es ->
             QCheck2.Test.fail_reportf "generated program ill-formed: %s"
               (String.concat "; "
                  (List.map (Format.asprintf "%a" Check.pp_error) es)));
         equivalent ~sched:(`Random sched_seed) (Cr.Pipeline.default ~shards) mk))

let random_equivalence_domains =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"random programs: domains == sequential"
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         equivalent ~sched:`Domains (Cr.Pipeline.default ~shards:4) (fun () ->
             Conform.Gen.program seed)))

let random_equivalence_configs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"random programs: all configs agree"
       ~print:(fun (seed, barrier, dense, placement, hier) ->
         Printf.sprintf "seed=%d barrier=%b dense=%b placement=%b hier=%b"
           seed barrier dense placement hier)
       QCheck2.Gen.(
         let* seed = int_range 0 100000 in
         let* barrier = bool in
         let* dense = bool in
         let* placement = bool in
         let* hier = bool in
         return (seed, barrier, dense, placement, hier))
       (fun (seed, barrier, dense, placement, hier) ->
         let config =
           {
             Cr.Pipeline.shards = 3;
             sync = (if barrier then `Barrier else `P2p);
             intersections = (if dense then `Dense else `Sparse);
             placement;
             hierarchical = hier;
           }
         in
         equivalent config (fun () -> Conform.Gen.program seed)))

(* ---------- locality: multiple independent blocks ---------- *)

(* Control replication is a local transformation (§2.2): a program with two
   separate time loops, with sequential statements between them, gets two
   independent replicated blocks and still matches sequential execution. *)
let two_block_program () =
  let fv = Test_fixtures.Fixtures.fv in
  let fw = Test_fixtures.Fixtures.fw in
  let b = Program.Builder.create ~name:"two-blocks" in
  let r1 =
    Program.Builder.region b ~name:"R1" (Index_space.of_range 16) [ fv; fw ]
  in
  let r2 = Program.Builder.region b ~name:"R2" (Index_space.of_range 16) [ fv ] in
  let p1 =
    Program.Builder.partition b ~name:"P1" (fun ~name ->
        Partition.block ~name r1 ~pieces:4)
  in
  let _q1 =
    Program.Builder.partition b ~name:"Q1" (fun ~name ->
        Partition.image ~name ~target:r1 ~src:p1 (fun e -> [ (e + 5) mod 16 ]))
  in
  let _p2 =
    Program.Builder.partition b ~name:"P2" (fun ~name ->
        Partition.block ~name r2 ~pieces:4)
  in
  Program.Builder.space b ~name:"I" 4;
  (* Writes v reading w through the aliased halo (field-disjoint, so
     iterations are independent); a second diagonal task refreshes w. *)
  let stepper =
    Task.make ~name:"stepper"
      ~params:
        [
          { Task.pname = "out"; privs = [ Privilege.writes fv ] };
          { Task.pname = "inp"; privs = [ Privilege.reads fw ] };
        ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i
              ((Accessor.get accs.(0) fv i *. 0.5)
              +. Accessor.get accs.(1) fw ((i + 5) mod 16)));
        0.)
  in
  let refresh =
    Task.make ~name:"refresh"
      ~params:
        [ { Task.pname = "out"; privs = [ Privilege.writes fw; Privilege.reads fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fw i (Accessor.get accs.(0) fv i +. 0.25));
        0.)
  in
  let seed2 =
    Task.make ~name:"seed2"
      ~params:
        [
          { Task.pname = "dst"; privs = [ Privilege.writes fv ] };
          { Task.pname = "src"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i (Accessor.get accs.(1) fv i +. 10.));
        0.)
  in
  let bump2 =
    Task.make ~name:"bump2"
      ~params:[ { Task.pname = "out"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i (Accessor.get accs.(0) fv i *. 1.25));
        0.)
  in
  let init =
    Task.make ~name:"init"
      ~params:[ { Task.pname = "r"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun i ->
            Accessor.set accs.(0) fv i (float_of_int (i + 1)));
        0.)
  in
  List.iter (Program.Builder.task b) [ stepper; refresh; seed2; bump2; init ];
  let module Syn = Program.Syntax in
  Program.Builder.body b
    [
      Syn.run (Syn.call "init" [ Syn.whole "R1" ]);
      Syn.for_time "t" 3
        [
          Syn.forall "I" (Syn.call "stepper" [ Syn.part "P1"; Syn.part "Q1" ]);
          Syn.forall "I" (Syn.call "refresh" [ Syn.part "P1" ]);
        ];
      (* Sequential statement between the two replicated blocks. *)
      Syn.run (Syn.call "seed2" [ Syn.whole "R2"; Syn.whole "R1" ]);
      Syn.for_time "u" 2 [ Syn.forall "I" (Syn.call "bump2" [ Syn.part "P2" ]) ];
    ];
  Program.Builder.finish b

let test_two_blocks () =
  let compiled =
    Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) (two_block_program ())
  in
  let blocks =
    List.filter
      (function Spmd.Prog.Replicated _ -> true | Spmd.Prog.Seq _ -> false)
      compiled.Spmd.Prog.items
  in
  check Alcotest.int "two independent replicated blocks" 2 (List.length blocks);
  check Alcotest.bool "two-block program equivalent" true
    (equivalent ~sched:(`Random 3) (Cr.Pipeline.default ~shards:2)
       two_block_program)

(* ---------- normalization ---------- *)

(* Generated program whose loop reads through three rotated projections
   (Fn projections that normalization must replace by derived
   partitions). *)
let rotated_program () = Conform.Gen.program 15

let rec launches stmts =
  List.concat_map
    (function
      | Types.Index_launch { launch; _ } | Types.Index_launch_reduce { launch; _ }
        ->
          [ launch ]
      | Types.For_time { body; _ } -> launches body
      | Types.If { then_; else_; _ } -> launches then_ @ launches else_
      | _ -> [])
    stmts

let fn_args (prog : Program.t) =
  List.concat_map
    (fun (l : Types.launch) ->
      List.filter
        (function Types.Part (_, Types.Fn _) -> true | _ -> false)
        l.Types.rargs)
    (launches prog.Program.body)

let test_normalize_creates_partition () =
  let prog = rotated_program () in
  check Alcotest.bool "input has Fn projections" true (fn_args prog <> []);
  let norm = Cr.Normalize.program prog in
  check Alcotest.bool "derived partitions added" true
    (List.length norm.Program.decls > List.length prog.Program.decls);
  check Alcotest.int "no Fn projection survives" 0 (List.length (fn_args norm))

let test_normalize_idempotent () =
  let prog = rotated_program () in
  let once = Cr.Normalize.program prog in
  check Alcotest.bool "first pass adds partitions" true
    (List.length once.Program.decls > List.length prog.Program.decls);
  let twice = Cr.Normalize.program once in
  check Alcotest.int "same decl count"
    (List.length once.Program.decls)
    (List.length twice.Program.decls)

(* ---------- printed SPMD form ---------- *)

let test_fig2_pretty_printed () =
  (* The printed SPMD form carries the Fig. 4d structure: shard-relative
     launches, the intersection copy, and its synchronisation. *)
  let compiled, _ = (fun () ->
      let prog = Test_fixtures.Fixtures.fig2 () in
      let c = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) prog in
      (c, prog)) ()
  in
  let text = Spmd.Prog.to_string compiled in
  List.iter
    (fun needle ->
      check Alcotest.bool ("contains " ^ needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re text 0); true
         with Not_found -> false))
    [ "for i in my(I)"; "QB[*] <- PB[*]"; "await copy#"; "release copy#";
      "intersections" ]

(* ---------- credits ---------- *)

let test_credits_recorded () =
  (* A copy whose Release precedes it in program order (reader-before-copy)
     must start with zero credits; fig2's copy has its reader after it, so
     all credits default to 1 (none recorded). *)
  let prog = Test_fixtures.Fixtures.fig2 () in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) prog in
  List.iter
    (function
      | Spmd.Prog.Replicated b ->
          check Alcotest.bool "all fig2 credits default" true
            (List.for_all (fun (_, c) -> c = 1) b.Spmd.Prog.credits
            || b.Spmd.Prog.credits = [])
      | Spmd.Prog.Seq _ -> ())
    compiled.Spmd.Prog.items;
  (* The two-block program's first loop reads the halo before the copy in
     body order on the w field... verify at least that executing with the
     recorded credits terminates (covered above) and that credits only
     mention body copies. *)
  let prog2 = two_block_program () in
  let compiled2 = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) prog2 in
  List.iter
    (function
      | Spmd.Prog.Replicated b ->
          List.iter
            (fun (id, credit) ->
              check Alcotest.bool "credit is 0 or 1" true (credit = 0 || credit = 1);
              check Alcotest.bool "credit refers to a known copy" true
                (List.exists
                   (fun (c : Spmd.Prog.copy) -> c.Spmd.Prog.copy_id = id)
                   b.Spmd.Prog.copies))
            b.Spmd.Prog.credits
      | Spmd.Prog.Seq _ -> ())
    compiled2.Spmd.Prog.items

(* ---------- alias analysis ---------- *)

let test_alias_hierarchical () =
  let fv = Test_fixtures.Fixtures.fv in
  let b = Program.Builder.create ~name:"hier" in
  let r = Program.Builder.region b ~name:"B" (Index_space.of_range 40) [ fv ] in
  let split =
    Program.Builder.partition b ~name:"split" (fun ~name ->
        Partition.of_coloring ~name r ~colors:2 (fun e ->
            if e mod 10 < 8 then 0 else 1))
  in
  let prog_private = Partition.sub split 0
  and prog_ghost = Partition.sub split 1 in
  let prog = Program.Builder.finish b in
  let tree = prog.Program.tree in
  let pb = Partition.block ~name:"PB" prog_private ~pieces:4 in
  let sb = Partition.block ~name:"SB" prog_ghost ~pieces:4 in
  Region_tree.register_partition tree pb;
  Region_tree.register_partition tree sb;
  check Alcotest.bool "hierarchical proves disjoint" false
    (Cr.Alias.may_alias ~hierarchical:true tree pb sb);
  check Alcotest.bool "flat says aliased" true
    (Cr.Alias.may_alias ~hierarchical:false tree pb sb)

let () =
  Alcotest.run "control-replication"
    [
      ( "golden",
        [
          Alcotest.test_case "fig2 structure" `Quick test_fig2_structure;
          Alcotest.test_case "fig2 barrier mode" `Quick test_fig2_barrier_mode;
          Alcotest.test_case "placement monotone" `Quick
            test_fig2_no_placement_has_more_copies;
          Alcotest.test_case "dynamic intersections" `Quick
            test_fig2_intersections_nonempty;
          Alcotest.test_case "placement removes redundant copies" `Quick
            test_placement_removes_redundant_copy;
        ] );
      ("fig2-equivalence", fig2_equivalences);
      ( "random-equivalence",
        [ random_equivalence; random_equivalence_configs;
          random_equivalence_domains ] );
      ( "locality",
        [ Alcotest.test_case "two replicated blocks" `Quick test_two_blocks ] );
      ( "normalize",
        [
          Alcotest.test_case "no Fn projections survive" `Quick
            test_normalize_creates_partition;
          Alcotest.test_case "idempotent" `Quick test_normalize_idempotent;
        ] );
      ( "alias",
        [ Alcotest.test_case "hierarchical vs flat" `Quick test_alias_hierarchical ] );
      ( "spmd-form",
        [
          Alcotest.test_case "fig2 pretty printed" `Quick
            test_fig2_pretty_printed;
          Alcotest.test_case "credits well-formed" `Quick test_credits_recorded;
        ] );
    ]
