(* The differential oracle: one spec, run once under the implicit
   shared-memory semantics (the reference) and once per executor
   configuration — every scheduler, the net loopback backend, and every
   scheduler again under each fault policy, race sanitizer armed —
   asserting bitwise-equal final region contents and scalars. Each
   configuration rebuilds the program from the spec: the compile pipeline
   and the executors mutate derived state (partition ids, physical
   instances), so sharing one build across runs would alias results. *)

type kind = Mismatch | Race | Deadlock | Crash

type failure = { config : string; kind : kind; detail : string }

let kind_to_string = function
  | Mismatch -> "mismatch"
  | Race -> "race"
  | Deadlock -> "deadlock"
  | Crash -> "crash"

let kind_of_string = function
  | "mismatch" -> Mismatch
  | "race" -> Race
  | "deadlock" -> Deadlock
  | "crash" -> Crash
  | s -> invalid_arg ("Oracle.kind_of_string: " ^ s)

let pp_failure ppf f =
  Format.fprintf ppf "%s under %s: %s" (kind_to_string f.kind) f.config
    f.detail

(* Final observable state, keyed by names only: field and region values
   are minted fresh on every [Gen.build], so identity does not transfer
   across builds but names do. Polymorphic [compare] handles NaN (equal to
   itself), unlike [=]. *)
type state =
  (string * float) list * (string * (string * (int * float) list) list) list

let snapshot ctx : state =
  let scalars = List.sort compare (Interp.Run.scalars ctx) in
  let regions =
    List.map
      (fun (name, inst) ->
        ( name,
          List.sort compare
            (List.map
               (fun f ->
                 (Regions.Field.name f, Regions.Physical.to_alist inst f))
               (Regions.Physical.fields inst)) ))
      (Interp.Run.root_instances ctx)
    |> List.sort compare
  in
  (scalars, regions)

(* First coordinate at which two states differ, for the failure report. *)
let first_diff (exp_s, exp_r) (got_s, got_r) =
  let scalar_diff =
    List.find_map
      (fun (k, v) ->
        match List.assoc_opt k got_s with
        | Some v' when compare v v' = 0 -> None
        | Some v' -> Some (Printf.sprintf "scalar %s: %.17g vs %.17g" k v v')
        | None -> Some (Printf.sprintf "scalar %s missing" k))
      exp_s
  in
  match scalar_diff with
  | Some d -> d
  | None -> (
      let region_diff =
        List.find_map
          (fun (rname, fields) ->
            match List.assoc_opt rname got_r with
            | None -> Some (Printf.sprintf "region %s missing" rname)
            | Some fields' ->
                List.find_map
                  (fun (fname, cells) ->
                    match List.assoc_opt fname fields' with
                    | None ->
                        Some
                          (Printf.sprintf "region %s field %s missing" rname
                             fname)
                    | Some cells' ->
                        List.find_map
                          (fun (id, v) ->
                            match List.assoc_opt id cells' with
                            | Some v' when compare v v' = 0 -> None
                            | Some v' ->
                                Some
                                  (Printf.sprintf
                                     "region %s.%s[%d]: %.17g vs %.17g" rname
                                     fname id v v')
                            | None ->
                                Some
                                  (Printf.sprintf "region %s.%s[%d] missing"
                                     rname fname id))
                          cells)
                  fields)
          exp_r
      in
      match region_diff with
      | Some d -> d
      | None -> "states differ (structure)")

let same_state a b = compare a b = 0

let stepper_scheds = [ ("round_robin", `Round_robin); ("random", `Random 1) ]
let all_scheds = stepper_scheds @ [ ("domains", `Domains) ]

(* Transient leaf failures (rolled back and retried), delayed credit
   grants and shard stalls — each must be invisible in the results. *)
let fault_policies =
  let mk ~leaf ~delays =
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
  in
  [
    ("leaf", mk ~leaf:true ~delays:false);
    ("delays", mk ~leaf:false ~delays:true);
    ("mixed", mk ~leaf:true ~delays:true);
  ]

(* The fault schedule is a pure function of the spec, so a repro file
   replays a fault-column failure exactly. *)
let fault_seed spec = Hashtbl.hash (Obs.Json.to_string (Spec.to_json spec))

let columns ~scheds ~net =
  List.map (fun (name, sched) -> (name, `Exec sched)) scheds
  @ (if net then [ ("net/loopback", `Net) ] else [])
  @ List.concat_map
      (fun (pname, policy) ->
        List.map
          (fun (name, sched) ->
            ("faults/" ^ pname ^ "/" ^ name, `Faults (policy, sched)))
          scheds)
      fault_policies

(* Run the compiled program under one configuration and snapshot: a
   scheduler of the shared-memory executor, the same with the fault
   injector armed, or the message-passing backend's column — every shard
   a simulated rank over [Net.Launch.run_loopback], copies and credits as
   wire frames, collectives over the tree (deadlock detection is exact
   under loopback, so it needs no watchdog). *)
let run_config ~shards ~backend ~watchdog ?mutate spec =
  let prog = Gen.build spec in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards) prog in
  (* The context comes from the *compiled* source: normalization registers
     derived projection partitions there. *)
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  let compiled =
    match Option.bind mutate (Mutate.drop_nth_sync compiled) with
    | Some (p, _) -> p
    | None -> compiled
  in
  (match backend with
  | `Exec sched -> Spmd.Exec.run ~sched ~sanitize:true ~watchdog compiled ctx
  | `Net -> Net.Launch.run_loopback ~sanitize:true compiled ctx
  | `Faults (policy, sched) ->
      let fault = Resilience.Fault.create ~policy ~seed:(fault_seed spec) () in
      Spmd.Exec.run ~sched ~fault ~sanitize:true ~watchdog compiled ctx);
  snapshot ctx

(* Run the reference, then the columns in order; [None] when every column
   matches the reference, the first failure otherwise. With [?mutate],
   the named sync op is dropped from each compiled program before
   execution — a passing result then means the harness failed its
   negative control. A fault column whose schedule exhausts a retry cap
   ([Fault.Injected]) passes: the run crashed as the policy allows. *)
let run_columns ~shards ?mutate ~watchdog columns (spec : Spec.t) =
  let reference =
    try
      let prog = Gen.build spec in
      let ctx = Interp.Run.create prog in
      Interp.Run.run ctx;
      Ok (snapshot ctx)
    with e ->
      Error
        { config = "reference"; kind = Crash; detail = Printexc.to_string e }
  in
  match reference with
  | Error f -> Some f
  | Ok expected ->
      List.fold_left
        (fun acc (config, backend) ->
          match acc with
          | Some _ -> acc
          | None -> (
              match run_config ~shards ~backend ~watchdog ?mutate spec with
              | got when same_state got expected -> None
              | got -> Some { config; kind = Mismatch; detail = first_diff expected got }
              | exception Resilience.Fault.Injected _ -> None
              | exception Spmd.Sanitizer.Race msg ->
                  Some { config; kind = Race; detail = msg }
              | exception Spmd.Exec.Deadlock d ->
                  Some { config; kind = Deadlock; detail = d.Resilience.Diag.reason }
              | exception e ->
                  Some { config; kind = Crash; detail = Printexc.to_string e }))
        None columns

let check ?(shards = 3) ?mutate ?(scheds = all_scheds) ?(watchdog = 10.)
    ?(net = true) spec =
  run_columns ~shards ?mutate ~watchdog (columns ~scheds ~net) spec

(* One named column alone (["reference"] runs no column at all) — what
   the shrinker re-checks candidates against. *)
let check_config ~shards ~mutate ~watchdog config spec =
  let cols =
    List.filter
      (fun (name, _) -> name = config)
      (columns ~scheds:all_scheds ~net:true)
  in
  if cols = [] && config <> "reference" then
    invalid_arg ("Oracle.check_config: unknown config " ^ config);
  run_columns ~shards ?mutate ~watchdog cols spec
