(* The fuzzing campaign: seed-deterministic case generation, the
   differential oracle on every case, and on failure a greedy shrink to a
   minimal spec saved as a replayable repro file. *)

type report = {
  tested : int; (* cases that ran before stopping *)
  repro : (Repro.t * string) option; (* saved minimal repro, its path *)
}

let shards_of_case i = 2 + (i mod 3)

(* Shrink against the configuration that failed, alone, with a short
   watchdog: deadlock-kind failures re-run on every candidate, and the
   sanitizer catches dropped syncs long before a 60 s stall would. *)
let shrink ~shards ~mutate (f : Oracle.failure) spec =
  let recheck = Oracle.check_config ~shards ~mutate ~watchdog:2. f.Oracle.config in
  let still_fails candidate =
    match recheck candidate with
    | Some f' -> f'.Oracle.kind = f.Oracle.kind
    | None -> false
    | exception _ -> false
  in
  let shrunk = Shrink.run still_fails spec in
  let failure =
    match recheck shrunk with Some f' -> f' | None | (exception _) -> f
  in
  (shrunk, failure)

(* Run [count] cases from [seed]; stop at the first failure, shrink it and
   save the repro to [out]. [log] receives one line per event. *)
let campaign ?(out = "fuzz-repro.json") ?max_tasks ?mutate ?shards ?net
    ?(log = fun _ -> ()) ~seed ~count () =
  let rec go i =
    if i >= count then { tested = count; repro = None }
    else begin
      let case_seed = seed + i in
      let nshards =
        match shards with Some s -> s | None -> shards_of_case i
      in
      let spec = Gen.spec ?max_tasks case_seed in
      match Oracle.check ~shards:nshards ?mutate ?net spec with
      | None ->
          if (i + 1) mod 25 = 0 then
            log (Printf.sprintf "%d/%d cases passed" (i + 1) count);
          go (i + 1)
      | Some f ->
          log
            (Printf.sprintf "case %d (seed %d, %d shards) failed: %s"
               i case_seed nshards
               (Format.asprintf "%a" Oracle.pp_failure f));
          log
            (Printf.sprintf "shrinking (initial size %d)..."
               (Spec.size spec));
          let shrunk, failure = shrink ~shards:nshards ~mutate f spec in
          log
            (Printf.sprintf "shrunk to size %d (%d tasks)" (Spec.size shrunk)
               (Spec.task_count shrunk));
          let r =
            {
              Repro.seed = Some case_seed;
              shards = nshards;
              mutate;
              failure;
              spec = shrunk;
            }
          in
          Repro.save out r;
          log (Printf.sprintf "repro written to %s" out);
          { tested = i + 1; repro = Some (r, out) }
    end
  in
  go 0

(* Re-run a saved repro; [None] means it no longer fails. *)
let replay path =
  let r = Repro.load path in
  Oracle.check ~shards:r.Repro.shards ?mutate:r.Repro.mutate r.Repro.spec
