(* Tests for the SPMD layer: dynamic intersections (shallow + complete)
   against brute force, ownership maps, executor synchronisation semantics
   (including deadlock detection on deliberately broken programs), and the
   synchronisation-insertion invariants. *)

open Geometry
open Regions
open Ir

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fv = Field.make "v"
let fw = Field.make "w"

(* ---------- intersections vs brute force ---------- *)

let gen_unstructured_partition =
  QCheck2.Gen.(
    let* colors = int_range 1 6 in
    let* sets =
      array_size (return colors)
        (let* l = list_size (int_range 0 20) (int_range 0 59) in
         return (Sorted_iset.of_list l))
    in
    return sets)

let mk_unstructured_partition name sets =
  let r = Region.create ~name:(name ^ "_r") (Index_space.of_range 60) [ fv ] in
  Partition.of_explicit ~name ~disjoint:false r
    (Array.map (fun s -> Index_space.of_iset ~universe_size:60 s) sets)

let brute_force_pairs src dst =
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j ->
          let inter =
            Index_space.inter
              (Partition.sub src i).Region.ispace
              (Partition.sub dst j).Region.ispace
          in
          if Index_space.is_empty inter then None
          else Some (i, j, Sorted_iset.to_array (Index_space.ids inter)))
        (List.init (Partition.color_count dst) Fun.id))
    (List.init (Partition.color_count src) Fun.id)

let normalize items =
  List.sort compare
    (List.map
       (fun (i, j, sp) -> (i, j, Sorted_iset.to_array (Index_space.ids sp)))
       items)

let prop_intersections_exact =
  qtest "sparse intersections = brute force"
    QCheck2.Gen.(pair gen_unstructured_partition gen_unstructured_partition)
    (fun (a, b) ->
      let src = mk_unstructured_partition "src" a
      and dst = mk_unstructured_partition "dst" b in
      let got = Spmd.Intersections.compute ~src ~dst () in
      normalize got.Spmd.Intersections.items
      = List.sort compare (brute_force_pairs src dst))

let prop_all_pairs_same_nonempty =
  qtest "all-pairs finds the same non-empty set"
    QCheck2.Gen.(pair gen_unstructured_partition gen_unstructured_partition)
    (fun (a, b) ->
      let src = mk_unstructured_partition "src" a
      and dst = mk_unstructured_partition "dst" b in
      let sparse = Spmd.Intersections.compute ~src ~dst ()
      and dense = Spmd.Intersections.compute_all_pairs ~src ~dst () in
      normalize sparse.Spmd.Intersections.items
      = normalize dense.Spmd.Intersections.items)

let test_intersections_structured () =
  (* Structured path through the BVH: block tiles vs their one-cell halos
     on a 12x12 grid. *)
  let u = Rect.make2 ~lo:(0, 0) ~hi:(11, 11) in
  let r = Region.create ~name:"g" (Index_space.of_rect u) [ fv ] in
  let tiles = Partition.block_grid ~name:"tiles" r ~grid:[| 2; 2 |] in
  let halos =
    Partition.image_rects ~name:"halos" ~target:r ~src:tiles (fun rc ->
        [
          Rect.make2
            ~lo:(rc.Rect.lo.(0) - 1, rc.Rect.lo.(1) - 1)
            ~hi:(rc.Rect.hi.(0) + 1, rc.Rect.hi.(1) + 1);
        ])
  in
  let got = Spmd.Intersections.compute ~src:tiles ~dst:halos () in
  let brute = brute_force_pairs tiles halos in
  check Alcotest.bool "matches brute force" true
    (normalize got.Spmd.Intersections.items = List.sort compare brute);
  (* Every tile overlaps every halo on a 2x2 tiling (corners touch). *)
  check Alcotest.int "pair count" 16 (List.length got.Spmd.Intersections.items)

(* ---------- ownership ---------- *)

let prop_ownership_consistent =
  qtest "owner_of_color inverts colors_of_shard"
    QCheck2.Gen.(
      let* shards = int_range 1 12 in
      let* colors = int_range 1 40 in
      return (shards, colors))
    (fun (shards, colors) ->
      List.for_all
        (fun s ->
          List.for_all
            (fun c -> Spmd.Prog.owner_of_color ~shards ~colors c = s)
            (Spmd.Prog.colors_of_shard ~shards ~colors s))
        (List.init shards Fun.id)
      &&
      (* every color owned exactly once *)
      List.length
        (List.concat_map
           (fun s -> Spmd.Prog.colors_of_shard ~shards ~colors s)
           (List.init shards Fun.id))
      = colors)

(* ---------- executor semantics ---------- *)

(* A minimal hand-built block: one partition, one launch writing it, one
   copy to an overlapping partition, proper sync. Executing it must move
   the data; breaking the sync must deadlock. *)
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
  (* Writes a different field than it reads, so launch iterations stay
     independent (the CR precondition). *)
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
  Spmd.Prog.Launch
    {
      space = "I";
      launch = { Types.task; rargs; sargs = [||] };
    }

let mk_copy id =
  {
    Spmd.Prog.copy_id = id;
    src = Spmd.Prog.Opart "P";
    dst = Spmd.Prog.Opart "Q";
    fields = [ fv ];
    reduce = None;
    pairs = `Sparse;
  }

let part p = Types.Part (p, Types.Id)

let run_tiny body ~credits ~copies =
  let prog = tiny_env () in
  let block =
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
      finalize =
        [
          Spmd.Prog.Copy
            {
              Spmd.Prog.copy_id = 102;
              src = Spmd.Prog.Opart "P";
              dst = Spmd.Prog.Oregion "R";
              fields = [ fv; fw ];
              reduce = None;
              pairs = `Sparse;
            };
        ];
      copies =
        [
          mk_copy 0;
          {
            Spmd.Prog.copy_id = 100;
            src = Spmd.Prog.Oregion "R";
            dst = Spmd.Prog.Opart "P";
            fields = [ fv; fw ];
            reduce = None;
            pairs = `Sparse;
          };
          {
            Spmd.Prog.copy_id = 101;
            src = Spmd.Prog.Oregion "R";
            dst = Spmd.Prog.Opart "Q";
            fields = [ fv ];
            reduce = None;
            pairs = `Sparse;
          };
          {
            Spmd.Prog.copy_id = 102;
            src = Spmd.Prog.Opart "P";
            dst = Spmd.Prog.Oregion "R";
            fields = [ fv; fw ];
            reduce = None;
            pairs = `Sparse;
          };
        ]
        @ copies;
      credits;
    }
  in
  let ctx = Interp.Run.create prog in
  Spmd.Exec.run_block ~sched:`Round_robin ~source:prog ctx block;
  (prog, ctx)

let test_exec_copy_moves_data () =
  (* bump P; copy P->Q; await; observe(P, Q); release — two iterations. *)
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
  let prog, ctx = run_tiny body ~credits:[] ~copies:[] in
  (* Sequential reference: R starts at 0; after t iterations each element is
     bump+observe composed. Just compare against the interpreter on an
     equivalent implicit program. *)
  let b = Program.Builder.create ~name:"tiny-ref" in
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
  List.iter (Program.Builder.task b) (List.map (Program.find_task prog) [ "bump"; "observe" ]);
  let module Syn = Program.Syntax in
  Program.Builder.body b
    [
      Syn.for_time "t" 2
        [
          Syn.forall "I" (Syn.call "bump" [ Syn.part "P" ]);
          Syn.forall "I" (Syn.call "observe" [ Syn.part "P"; Syn.part "Q" ]);
        ];
    ];
  let ref_prog = Program.Builder.finish b in
  let ref_ctx = Interp.Run.create ref_prog in
  Interp.Run.run ref_ctx;
  let dump c pr =
    let inst = Interp.Run.region_instance c (Program.find_region pr "R") in
    (Physical.to_alist inst fv, Physical.to_alist inst fw)
  in
  check Alcotest.bool "matches implicit execution" true
    (dump ctx prog = dump ref_ctx ref_prog)

let test_exec_missing_release_deadlocks () =
  (* Without the Release, the second iteration's copy starves on WAR
     credits. *)
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
            ];
        };
    ]
  in
  try
    ignore (run_tiny body ~credits:[] ~copies:[]);
    Alcotest.fail "expected deadlock"
  with Spmd.Exec.Deadlock _ -> ()

let test_exec_zero_credit_blocks_first_copy () =
  (* With zero initial credit and no preceding Release, even the first
     iteration cannot issue the copy. *)
  let body =
    [
      Spmd.Prog.For_time
        {
          var = "t";
          count = 1;
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
  try
    ignore (run_tiny body ~credits:[ (0, 0) ] ~copies:[]);
    Alcotest.fail "expected deadlock"
  with Spmd.Exec.Deadlock _ -> ()

let test_exec_barrier_roundtrip () =
  (* Barriers bracketing the copy (Fig. 4c mode) also execute correctly. *)
  let body =
    [
      Spmd.Prog.For_time
        {
          var = "t";
          count = 2;
          body =
            [
              launch "bump" [ part "P" ];
              Spmd.Prog.Barrier;
              Spmd.Prog.Copy (mk_copy 0);
              Spmd.Prog.Barrier;
              Spmd.Prog.Await 0;
              launch "observe" [ part "P"; part "Q" ];
              Spmd.Prog.Release 0;
            ];
        };
    ]
  in
  let _, ctx = run_tiny body ~credits:[] ~copies:[] in
  (* Smoke: it terminated and produced non-zero data. *)
  let any_nonzero =
    List.exists
      (fun (_, v) -> v <> 0.)
      (Physical.to_alist (Interp.Run.instance ctx "R") fv)
  in
  check Alcotest.bool "terminated with data" true any_nonzero

(* ---------- sync insertion invariants ---------- *)

(* Regression (seed 951): a consumer must apply a copy's incoming data
   before granting the next overwrite of the same destination — every
   Copy's Await must precede any Release at the same body position. *)
let prop_release_never_splits_copy_await =
  qtest "no Release between a Copy and its Await" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prog = Conform.Gen.program seed in
      let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) prog in
      let rec flatten = function
        | [] -> []
        | Spmd.Prog.For_time { body; _ } :: rest -> flatten body @ flatten rest
        | i :: rest -> i :: flatten rest
      in
      let rec scan = function
        | [] -> true
        | Spmd.Prog.Copy c :: rest ->
            let rec until_await = function
              | Spmd.Prog.Await id :: rest' when id = c.Spmd.Prog.copy_id ->
                  scan rest'
              | Spmd.Prog.Release _ :: _ -> false
              | _ :: rest' -> until_await rest'
              | [] -> false
            in
            until_await rest
        | _ :: rest -> scan rest
      in
      List.for_all
        (function
          | Spmd.Prog.Seq _ -> true
          | Spmd.Prog.Replicated b -> scan (flatten b.Spmd.Prog.body))
        compiled.Spmd.Prog.items)

let test_seed_951_domains_regression () =
  (* The schedule-dependent write-after-apply race found by the soak: fixed
     by the two-pass synchronisation insertion. *)
  let spec = (Conform.Repro.load "repro951.json").Conform.Repro.spec in
  let c1 = Interp.Run.create (Conform.Gen.build spec) in
  Interp.Run.run c1;
  let reference = Conform.Oracle.snapshot c1 in
  for _trial = 1 to 5 do
    let compiled =
      Cr.Pipeline.compile (Cr.Pipeline.default ~shards:7) (Conform.Gen.build spec)
    in
    let c2 = Interp.Run.create compiled.Spmd.Prog.source in
    Spmd.Exec.run ~sched:`Domains compiled c2;
    check Alcotest.bool "domains run matches sequential" true
      (Conform.Oracle.same_state (Conform.Oracle.snapshot c2) reference)
  done

let prop_sync_one_await_release_per_copy =
  qtest "sync inserts exactly one await and release per copy" ~count:40
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prog = Conform.Gen.program seed in
      let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:3) prog in
      List.for_all
        (function
          | Spmd.Prog.Seq _ -> true
          | Spmd.Prog.Replicated b ->
              let rec count pred = function
                | [] -> 0
                | Spmd.Prog.For_time { body; _ } :: rest ->
                    count pred body + count pred rest
                | i :: rest -> (if pred i then 1 else 0) + count pred rest
              in
              let body_copies =
                count (function Spmd.Prog.Copy _ -> true | _ -> false) b.Spmd.Prog.body
              in
              count (function Spmd.Prog.Await _ -> true | _ -> false) b.Spmd.Prog.body
              = body_copies
              && count (function Spmd.Prog.Release _ -> true | _ -> false) b.Spmd.Prog.body
                 = body_copies)
        compiled.Spmd.Prog.items)

let () =
  Alcotest.run "spmd"
    [
      ( "intersections",
        [
          prop_intersections_exact;
          prop_all_pairs_same_nonempty;
          Alcotest.test_case "structured BVH path" `Quick
            test_intersections_structured;
        ] );
      ("ownership", [ prop_ownership_consistent ]);
      ( "executor",
        [
          Alcotest.test_case "copy moves data" `Quick test_exec_copy_moves_data;
          Alcotest.test_case "missing release deadlocks" `Quick
            test_exec_missing_release_deadlocks;
          Alcotest.test_case "zero credit blocks" `Quick
            test_exec_zero_credit_blocks_first_copy;
          Alcotest.test_case "barrier mode runs" `Quick
            test_exec_barrier_roundtrip;
        ] );
      ( "sync-insertion",
        [
          prop_sync_one_await_release_per_copy;
          prop_release_never_splits_copy_await;
          Alcotest.test_case "seed 951 domains regression" `Quick
            test_seed_951_domains_regression;
        ] );
    ]
