(* Tests for the fast data plane: copy plans vs the per-element baseline
   (bitwise, on random sparse/aliased/non-covering index sets), whole
   random programs under all three schedulers vs the sequential
   interpreter, O(1) instance
   addressing (including the no-per-access-allocation regression for the
   binary-search mode), the bulk accessor closures' privilege and view
   containment checks, and the partition-pair intersection cache. *)

open Geometry
open Regions

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fv = Field.make "v"
let fw = Field.make "w"

(* ---------- copy plans vs per-element transfer ---------- *)

let clone inst =
  let c = Physical.create_over (Physical.ispace inst) (Physical.fields inst) in
  List.iter
    (fun f ->
      let s = Physical.column inst f and d = Physical.column c f in
      Array.blit s 0 d 0 (Array.length s))
    (Physical.fields inst);
  c

let redops = [ Privilege.Sum; Privilege.Prod; Privilege.Min; Privilege.Max ]

(* Index-space pairs come from the conformance generator: structured
   (rectangle unions) and unstructured (sparse id sets) over one shared
   universe — aliased, non-covering, possibly empty intersections. *)
let prop_plan_matches_transfer =
  qtest "plan replay = per-element transfer (copy + reduce)" ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, opi) ->
      let sa, sb =
        Conform.Gen.random_space_pair (Random.State.make [| 0xDA7A; seed |])
      in
      let src = Physical.create_over sa [ fv; fw ]
      and dst0 = Physical.create_over sb [ fv; fw ] in
      List.iter
        (fun f ->
          Index_space.iter_ids
            (fun id -> Physical.set src f id (Float.of_int id +. 0.25))
            sa)
        [ fv; fw ];
      Index_space.iter_ids
        (fun id -> Physical.set dst0 fv id (-3.5 -. Float.of_int id))
        sb;
      let op = List.nth redops opi in
      let d1 = clone dst0 and d2 = clone dst0 in
      Physical.copy_into ~fields:[ fv ] ~src ~dst:d1 ();
      let plan = Spmd.Copy_plan.build ~src ~dst:d2 ~fields:[ fv ] () in
      Spmd.Copy_plan.copy plan ~src ~dst:d2;
      let r1 = clone dst0 and r2 = clone dst0 in
      Physical.reduce_into ~op ~fields:[ fv; fw ] ~src ~dst:r1 ();
      let rplan = Spmd.Copy_plan.build ~src ~dst:r2 ~fields:[ fv; fw ] () in
      Spmd.Copy_plan.reduce rplan ~op ~src ~dst:r2;
      Physical.to_alist d1 fv = Physical.to_alist d2 fv
      && Physical.to_alist d1 fw = Physical.to_alist d2 fw
      && Physical.to_alist r1 fv = Physical.to_alist r2 fv
      && Physical.to_alist r1 fw = Physical.to_alist r2 fw)

let test_plan_structured_halo () =
  (* The ghost-exchange shape: a structured tile feeding a neighbour's halo
     slab, both cut from the same 2-d universe. *)
  let u = Rect.make2 ~lo:(0, 0) ~hi:(31, 31) in
  let tile =
    Index_space.of_rects ~universe:u [ Rect.make2 ~lo:(0, 0) ~hi:(15, 31) ]
  in
  let halo =
    Index_space.of_rects ~universe:u [ Rect.make2 ~lo:(14, 0) ~hi:(17, 31) ]
  in
  let src = Physical.create_over tile [ fv ]
  and dst0 = Physical.create_over halo [ fv ] in
  Index_space.iter_ids
    (fun id -> Physical.set src fv id (Float.of_int (id * 7))) tile;
  let d1 = clone dst0 and d2 = clone dst0 in
  Physical.copy_into ~fields:[ fv ] ~src ~dst:d1 ();
  let plan = Spmd.Copy_plan.build ~src ~dst:d2 ~fields:[ fv ] () in
  Spmd.Copy_plan.copy plan ~src ~dst:d2;
  check Alcotest.bool "structured halo copy matches" true
    (Physical.to_alist d1 fv = Physical.to_alist d2 fv);
  (* Two rows of 32 intersect; runs are maximal, so they fuse into one. *)
  check Alcotest.int "volume" 64 (Spmd.Copy_plan.volume plan);
  check Alcotest.int "fused runs" 1 (Spmd.Copy_plan.nruns plan)

(* Whole-program equivalence: every scheduler's plan-replayed copies vs
   the sequential interpreter, on conformance-generated
   programs (sparse/aliased partitions, ghost exchanges, reductions).
   Snapshot every root region and all scalars — field identities are
   minted fresh per build, so key on names. *)
let prop_plans_match_sequential =
  let snapshot ctx =
    ( List.sort compare (Interp.Run.scalars ctx),
      List.map
        (fun (name, inst) ->
          ( name,
            List.sort compare
              (List.map
                 (fun f -> (Field.name f, Physical.to_alist inst f))
                 (Physical.fields inst)) ))
        (Interp.Run.root_instances ctx) )
  in
  qtest "Plans = sequential under all schedulers" ~count:20
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let spec = Conform.Gen.spec seed in
      let spmd sched =
        let compiled =
          Cr.Pipeline.compile
            (Cr.Pipeline.default ~shards:3)
            (Conform.Gen.build spec)
        in
        let ctx = Interp.Run.create compiled.Spmd.Prog.source in
        Spmd.Exec.run ~sched compiled ctx;
        snapshot ctx
      in
      let reference =
        let ctx = Interp.Run.create (Conform.Gen.build spec) in
        Interp.Run.run ctx;
        snapshot ctx
      in
      let agrees st = compare st reference = 0 in
      List.for_all
        (fun sched -> agrees (spmd sched))
        [ `Round_robin; `Random (seed land 0xff); `Domains ])

let test_plan_stats () =
  let stats =
    let prog = Test_fixtures.Fixtures.fig2 () in
    let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:2) prog in
    let ctx = Interp.Run.create compiled.Spmd.Prog.source in
    let stats = Spmd.Exec.fresh_stats () in
    Spmd.Exec.run ~stats compiled ctx;
    stats
  in
  let builds = Atomic.get stats.Spmd.Exec.plan_builds
  and replays = Atomic.get stats.Spmd.Exec.plan_replays
  and volume = Atomic.get stats.Spmd.Exec.blit_volume in
  check Alcotest.bool "plans compiled" true (builds > 0);
  (* The time loop re-executes each copy against its memoized plan. *)
  check Alcotest.bool "replays exceed builds" true (replays > builds);
  check Alcotest.bool "blit volume counted" true (volume > 0)

(* ---------- O(1) addressing ---------- *)

let test_get_allocation_free () =
  (* Wide-span sparse ids force the binary-search addressing mode — the
     one that used to rebuild the id array on every access. Per-access
     minor allocation must now be a small size-independent constant (the
     boxed float results), not O(n). *)
  let n = 200 in
  let ids = Sorted_iset.of_list (List.init n (fun i -> i * 1000)) in
  let space = Index_space.of_iset ~universe_size:(n * 1000) ids in
  let inst = Physical.create_over space [ fv ] in
  let acc = ref 0. in
  for r = 0 to 99 do
    acc := !acc +. Physical.get inst fv (r mod n * 1000)
  done;
  let reps = 10_000 in
  let w0 = Gc.minor_words () in
  for r = 0 to reps - 1 do
    acc := !acc +. Physical.get inst fv (r mod n * 1000)
  done;
  let per = (Gc.minor_words () -. w0) /. Float.of_int reps in
  (* O(n) per-access copying would cost ~n+1 = 201 words. *)
  check Alcotest.bool
    (Printf.sprintf "per-access minor words small (%.2f)" per)
    true (per < 16.);
  check Alcotest.bool "sum sane" true (Float.is_finite !acc)

let test_addressing_modes () =
  (* Contiguous, dense-span and search instances agree on membership and
     values. *)
  let mk ids universe =
    let space = Index_space.of_iset ~universe_size:universe ids in
    let inst = Physical.create_over space [ fv ] in
    Sorted_iset.iter
      (fun id -> Physical.set inst fv id (Float.of_int (id + 1)))
      ids;
    inst
  in
  let cases =
    [
      ("contiguous", Sorted_iset.of_list (List.init 50 (fun i -> i + 10)), 100);
      ( "dense",
        Sorted_iset.of_list
          (List.filter (fun i -> i mod 3 <> 1) (List.init 60 Fun.id)),
        100 );
      ("search", Sorted_iset.of_list (List.init 20 (fun i -> i * 700)), 20_000);
    ]
  in
  List.iter
    (fun (name, ids, universe) ->
      let inst = mk ids universe in
      for id = 0 to universe - 1 do
        let expect = Sorted_iset.mem ids id in
        if Physical.mem inst id <> expect then
          Alcotest.failf "%s: mem %d wrong" name id;
        if expect && Physical.get inst fv id <> Float.of_int (id + 1) then
          Alcotest.failf "%s: get %d wrong" name id
      done)
    cases

(* ---------- bulk accessor closures ---------- *)

let raises_violation f =
  match f () with
  | _ -> false
  | exception Accessor.Privilege_violation _ -> true

let test_bulk_privileges () =
  let space = Index_space.of_range 10 in
  let inst = Physical.create_over space [ fv; fw ] in
  let acc =
    Accessor.make inst ~space
      [ Privilege.reads fv; Privilege.reduces Privilege.Sum fw ]
  in
  check Alcotest.bool "writer under read-only refused" true
    (raises_violation (fun () -> Accessor.writer acc fv));
  check Alcotest.bool "reader under reduce-only refused" true
    (raises_violation (fun () -> Accessor.reader acc fw));
  check Alcotest.bool "reducer of undeclared field refused" true
    (raises_violation (fun () -> Accessor.reducer acc fv));
  check Alcotest.bool "mismatched reducer_op refused" true
    (raises_violation (fun () -> Accessor.reducer_op acc ~op:Privilege.Max fw));
  let red = Accessor.reducer acc fw in
  red 3 2.5;
  red 3 1.5;
  check (Alcotest.float 0.) "reducer folds" 4. (Physical.get inst fw 3);
  let rw = Accessor.make inst ~space [ Privilege.writes fv ] in
  check Alcotest.bool "anonymous reducer under reads-writes refused" true
    (raises_violation (fun () -> Accessor.reducer rw fv));
  let red_op = Accessor.reducer_op rw ~op:Privilege.Sum fv in
  red_op 1 2.;
  red_op 1 3.;
  check (Alcotest.float 0.) "reducer_op under reads-writes folds" 5.
    (Physical.get inst fv 1)

let test_bulk_view_containment () =
  (* A strict subview over a bigger instance: the bulk closures must refuse
     ids stored in the instance but outside the view. *)
  let whole = Index_space.of_range 20 in
  let sub =
    Index_space.of_iset ~universe_size:20
      (Sorted_iset.of_list [ 2; 3; 4; 11; 12 ])
  in
  let inst = Physical.create_over whole [ fv ] in
  Physical.set inst fv 3 7.5;
  Physical.set inst fv 9 1.0;
  let acc = Accessor.make inst ~space:sub [ Privilege.writes fv ] in
  let r = Accessor.reader acc fv and w = Accessor.writer acc fv in
  check (Alcotest.float 0.) "read inside view" 7.5 (r 3);
  check Alcotest.bool "read outside view refused" true
    (raises_violation (fun () -> r 9));
  check Alcotest.bool "write outside view refused" true
    (raises_violation (fun () -> w 9 0.));
  check Alcotest.bool "read outside instance refused" true
    (raises_violation (fun () -> r 25));
  check Alcotest.bool "mem tracks the view, not the instance" true
    (Accessor.mem acc 11 && not (Accessor.mem acc 9));
  (* iter_runs covers exactly the view. *)
  let seen = ref [] in
  Accessor.iter_runs acc (fun lo hi ->
      for id = lo to hi do
        seen := id :: !seen
      done);
  check (Alcotest.list Alcotest.int) "iter_runs = view" [ 2; 3; 4; 11; 12 ]
    (List.rev !seen)

(* ---------- equal_on ---------- *)

let test_equal_on () =
  let space = Index_space.of_range 32 in
  let a = Physical.create_over space [ fv; fw ]
  and b = Physical.create_over space [ fv; fw ] in
  Index_space.iter_ids
    (fun id ->
      Physical.set a fv id (Float.of_int id);
      Physical.set b fv id (Float.of_int id))
    space;
  check Alcotest.bool "equal instances" true (Physical.equal_on a b space [ fv; fw ]);
  Physical.set b fw 31 1e-9;
  check Alcotest.bool "last-element difference detected" false
    (Physical.equal_on a b space [ fv; fw ]);
  check Alcotest.bool "difference outside field list ignored" true
    (Physical.equal_on a b space [ fv ])

(* ---------- intersection cache ---------- *)

let mk_unstructured_partition name sets =
  let r = Region.create ~name:(name ^ "_r") (Index_space.of_range 60) [ fv ] in
  Partition.of_explicit ~name ~disjoint:false r
    (Array.map (fun s -> Index_space.of_iset ~universe_size:60 s) sets)

let normalize items =
  List.sort compare
    (List.map
       (fun (i, j, sp) -> (i, j, Sorted_iset.to_array (Index_space.ids sp)))
       items)

let test_isect_cache () =
  let src =
    mk_unstructured_partition "csrc"
      [|
        Sorted_iset.of_list [ 1; 2; 3; 40 ];
        Sorted_iset.of_list [ 10; 11 ];
        Sorted_iset.of_list [ 55 ];
      |]
  and dst =
    mk_unstructured_partition "cdst"
      [| Sorted_iset.of_list [ 2; 10; 55 ]; Sorted_iset.of_list [ 41; 42 ] |]
  in
  Spmd.Intersections.clear_cache ();
  let stats = Spmd.Intersections.fresh_stats () in
  let a = Spmd.Intersections.compute_cached ~stats ~src ~dst () in
  check Alcotest.int "first lookup misses" 0
    stats.Spmd.Intersections.cache_hits;
  let b = Spmd.Intersections.compute_cached ~stats ~src ~dst () in
  check Alcotest.int "second lookup hits" 1 stats.Spmd.Intersections.cache_hits;
  check Alcotest.bool "cached result shared" true (a == b);
  let fresh = Spmd.Intersections.compute ~src ~dst () in
  check Alcotest.bool "cached result = fresh compute" true
    (normalize a.Spmd.Intersections.items
    = normalize fresh.Spmd.Intersections.items);
  (* The cache keys on partition identity: a different pair recomputes. *)
  let c = Spmd.Intersections.compute_cached ~stats ~src:dst ~dst:src () in
  check Alcotest.int "reversed pair is a miss" 1
    stats.Spmd.Intersections.cache_hits;
  check Alcotest.bool "reversed result distinct" true (c != a);
  Spmd.Intersections.clear_cache ();
  let d = Spmd.Intersections.compute_cached ~stats ~src ~dst () in
  check Alcotest.int "cleared cache misses again" 1
    stats.Spmd.Intersections.cache_hits;
  check Alcotest.bool "recompute after clear still right" true
    (normalize d.Spmd.Intersections.items
    = normalize fresh.Spmd.Intersections.items)

let test_isect_cache_cap_and_stats_reset () =
  (* [fresh_stats] starts zeroed — the only reset mechanism there is. *)
  let z = Spmd.Intersections.fresh_stats () in
  check Alcotest.int "fresh stats: hits zero" 0 z.Spmd.Intersections.cache_hits;
  check Alcotest.int "fresh stats: candidates zero" 0
    z.Spmd.Intersections.candidates;
  (* The cache is bounded: filling past [cache_cap] blows the whole table
     away, so early entries are misses again while late ones stay hot, and
     the cache keeps functioning afterwards. *)
  Spmd.Intersections.clear_cache ();
  let sets = [| Sorted_iset.of_list [ 1; 2; 3 ] |] in
  let src = mk_unstructured_partition "capsrc" sets in
  let n = Spmd.Intersections.cache_cap + 60 in
  let dsts =
    Array.init n (fun i ->
        mk_unstructured_partition (Printf.sprintf "capdst%d" i) sets)
  in
  Array.iter
    (fun dst -> ignore (Spmd.Intersections.compute_cached ~src ~dst ()))
    dsts;
  let stats = Spmd.Intersections.fresh_stats () in
  ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst:dsts.(n - 1) ());
  check Alcotest.int "survivor after eviction hits" 1
    stats.Spmd.Intersections.cache_hits;
  ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst:dsts.(0) ());
  check Alcotest.int "evicted entry misses" 1
    stats.Spmd.Intersections.cache_hits;
  ignore (Spmd.Intersections.compute_cached ~stats ~src ~dst:dsts.(0) ());
  check Alcotest.int "re-inserted entry hits again" 2
    stats.Spmd.Intersections.cache_hits;
  Spmd.Intersections.clear_cache ()

let prop_cached_equals_compute =
  qtest "compute_cached = compute on random partition pairs" ~count:60
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 5)
           (list_size (int_range 0 20) (int_range 0 59) >|= Sorted_iset.of_list))
        (array_size (int_range 1 5)
           (list_size (int_range 0 20) (int_range 0 59) >|= Sorted_iset.of_list)))
    (fun (a, b) ->
      let src = mk_unstructured_partition "qsrc" a
      and dst = mk_unstructured_partition "qdst" b in
      let cached = Spmd.Intersections.compute_cached ~src ~dst ()
      and fresh = Spmd.Intersections.compute ~src ~dst () in
      normalize cached.Spmd.Intersections.items
      = normalize fresh.Spmd.Intersections.items)

let () =
  Alcotest.run "dataplane"
    [
      ( "copy plans",
        [
          prop_plan_matches_transfer;
          Alcotest.test_case "structured halo" `Quick test_plan_structured_halo;
          prop_plans_match_sequential;
          Alcotest.test_case "executor plan stats" `Quick test_plan_stats;
        ] );
      ( "addressing",
        [
          Alcotest.test_case "get allocates O(1)" `Quick
            test_get_allocation_free;
          Alcotest.test_case "modes agree" `Quick test_addressing_modes;
        ] );
      ( "bulk accessors",
        [
          Alcotest.test_case "privilege checks" `Quick test_bulk_privileges;
          Alcotest.test_case "view containment" `Quick
            test_bulk_view_containment;
        ] );
      ("equal_on", [ Alcotest.test_case "short-circuit" `Quick test_equal_on ]);
      ( "intersection cache",
        [
          Alcotest.test_case "hits and clears" `Quick test_isect_cache;
          Alcotest.test_case "cap eviction and stats reset" `Quick
            test_isect_cache_cap_and_stats_reset;
          prop_cached_equals_compute;
        ] );
    ]
