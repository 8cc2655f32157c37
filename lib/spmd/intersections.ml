(* Dynamic computation of copy intersections (paper §3.3).

   Copies are issued between pairs of source and destination subregions, but
   only their intersections must move. The computation runs in two phases:

   - a *shallow* phase that finds candidate overlapping pairs from subregion
     bounds alone — an interval tree over identifier bounds for unstructured
     partitions, a bounding-volume hierarchy for structured ones — avoiding
     the O(N^2) all-pairs comparison;
   - a *complete* phase computing the exact element intersection of each
     candidate pair, discarding the empty ones.

   Both phases are timed; the per-phase totals reproduce Table 1. *)

open Geometry
open Regions

type stats = {
  mutable shallow_s : float; (* seconds in the shallow phase *)
  mutable complete_s : float; (* seconds in the complete phase *)
  mutable candidates : int; (* pairs surviving the shallow phase *)
  mutable nonempty : int; (* pairs surviving the complete phase *)
  mutable cache_hits : int; (* lookups served by the partition-pair cache *)
}

let fresh_stats () =
  { shallow_s = 0.; complete_s = 0.; candidates = 0; nonempty = 0; cache_hits = 0 }

(* The non-empty intersections between two partitions' subregions:
   (source color, destination color, shared elements). *)
type pairs = {
  src : Partition.t;
  dst : Partition.t;
  items : (int * int * Index_space.t) list;
}

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := !cell +. (Unix.gettimeofday () -. t0);
  r

(* The index is built from every rectangle (structured) or identifier run
   (unstructured) of each destination subregion, not from whole-subregion
   bounds: halo subregions are unions of scattered pieces whose bounding
   box would overlap nearly everything. Queries deduplicate candidate
   colors through a seen-set keyed by the source color being queried. *)
(* Per-source-color query against the prebuilt index: dedup is local to
   the color, so colors can be queried independently (and in parallel). *)
let shallow_candidates ?pool ~(src : Partition.t) ~(dst : Partition.t) () =
  let n_src = Partition.color_count src
  and n_dst = Partition.color_count dst in
  let structured =
    n_dst > 0
    && Index_space.is_structured (Partition.sub dst 0).Region.ispace
  in
  let query =
    if structured then begin
      let items =
        List.concat_map
          (fun j ->
            List.map
              (fun r -> (r, j))
              (Index_space.rects (Partition.sub dst j).Region.ispace))
          (List.init n_dst Fun.id)
      in
      let bvh = Bvh.build items in
      fun i add ->
        List.iter
          (fun r -> Bvh.iter_overlapping bvh r (fun _ j -> add i j))
          (Index_space.rects (Partition.sub src i).Region.ispace)
    end
    else begin
      let items =
        List.concat_map
          (fun j ->
            List.map
              (fun run -> (run, j))
              (Index_space.id_runs (Partition.sub dst j).Region.ispace))
          (List.init n_dst Fun.id)
      in
      let tree = Interval_tree.build items in
      fun i add ->
        List.iter
          (fun run ->
            Interval_tree.iter_overlapping tree run (fun _ j -> add i j))
          (Index_space.id_runs (Partition.sub src i).Region.ispace)
    end
  in
  let one_color i =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    query i (fun i j ->
        if not (Hashtbl.mem seen j) then begin
          Hashtbl.add seen j ();
          out := (i, j) :: !out
        end);
    List.rev !out
  in
  let per_color =
    match pool with
    | Some p -> Taskpool.Pool.parallel_map_array p one_color (Array.init n_src Fun.id)
    | None -> Array.init n_src one_color
  in
  List.concat (Array.to_list per_color)

let complete_one ~(src : Partition.t) ~(dst : Partition.t) (i, j) =
  let inter =
    Index_space.inter
      (Partition.sub src i).Region.ispace
      (Partition.sub dst j).Region.ispace
  in
  if Index_space.is_empty inter then None else Some (i, j, inter)

let complete_pairs ?pool ~(src : Partition.t) ~(dst : Partition.t) candidates =
  match pool with
  | None -> List.filter_map (complete_one ~src ~dst) candidates
  | Some p ->
      Taskpool.Pool.parallel_map_array p
        (complete_one ~src ~dst)
        (Array.of_list candidates)
      |> Array.to_list
      |> List.filter_map Fun.id

let compute ?stats ?pool ~src ~dst () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let sh = ref 0. and co = ref 0. in
  let candidates = timed sh (fun () -> shallow_candidates ?pool ~src ~dst ()) in
  let items = timed co (fun () -> complete_pairs ?pool ~src ~dst candidates) in
  stats.shallow_s <- stats.shallow_s +. !sh;
  stats.complete_s <- stats.complete_s +. !co;
  stats.candidates <- stats.candidates + List.length candidates;
  stats.nonempty <- stats.nonempty + List.length items;
  { src; dst; items }

(* Partition-pair cache. Partitions are immutable and carry unique ids,
   so (src id, dst id) keys need no invalidation: a cached entry is valid
   forever. The table is bounded — long fuzz soaks mint thousands of
   fresh partitions, and an unbounded cache would pin all their index
   spaces; blowing the whole table away at the cap keeps the common case
   (a program's copies recomputed every run/iteration) hot without a
   retention policy. *)
let cache : (int * int, pairs) Hashtbl.t = Hashtbl.create 64
let cache_mu = Mutex.create ()
let cache_cap = 512

let clear_cache () = Mutex.protect cache_mu (fun () -> Hashtbl.reset cache)

let compute_cached ?stats ?pool ~src ~dst () =
  let key = (src.Partition.id, dst.Partition.id) in
  match Mutex.protect cache_mu (fun () -> Hashtbl.find_opt cache key) with
  | Some p ->
      (match stats with Some s -> s.cache_hits <- s.cache_hits + 1 | None -> ());
      p
  | None ->
      let p = compute ?stats ?pool ~src ~dst () in
      Mutex.protect cache_mu (fun () ->
          if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
          Hashtbl.replace cache key p);
      p

(* The naive all-pairs computation (what §3.3 optimizes away) — kept for the
   ablation benchmark. *)
let compute_all_pairs ?stats ~src ~dst () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let n_src = Partition.color_count src
  and n_dst = Partition.color_count dst in
  let candidates =
    List.concat_map
      (fun i -> List.init n_dst (fun j -> (i, j)))
      (List.init n_src Fun.id)
  in
  let co = ref 0. in
  let items = timed co (fun () -> complete_pairs ~src ~dst candidates) in
  stats.complete_s <- stats.complete_s +. !co;
  stats.candidates <- stats.candidates + List.length candidates;
  stats.nonempty <- stats.nonempty + List.length items;
  { src; dst; items }
