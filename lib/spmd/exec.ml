open Regions
open Ir

exception Deadlock of Resilience.Diag.t

let () =
  Printexc.register_printer (function
    | Deadlock d ->
        Some ("Spmd.Exec.Deadlock:\n" ^ Resilience.Diag.to_string d)
    | _ -> None)

type sched = [ `Round_robin | `Random of int | `Domains ]

(* Execution statistics: the intersection timings (paper Table 1) plus the
   resilience counters (leaf-task attempts, rollback retries, injected
   faults, checkpoints taken). Counters are atomic so the domains backend
   can bump them without the monitor lock. *)
type stats = {
  isect : Intersections.stats;
  attempts : int Atomic.t;
  retries : int Atomic.t;
  injected : int Atomic.t;
  checkpoints : int Atomic.t;
  plan_builds : int Atomic.t;
  plan_replays : int Atomic.t;
  blit_volume : int Atomic.t;
  msgs_sent : int Atomic.t;
  bytes_on_wire : int Atomic.t;
}

(* Without a registry the counters are plain private atomics; with one they
   *are* registry counters (the record fields alias the registered cells),
   so existing [Atomic.get stats.attempts] callers and `--metrics` dumps
   read the same numbers. The intersection timings stay mutable floats in
   [Intersections.stats] and surface as gauge views. *)
let fresh_stats ?registry () =
  match registry with
  | None ->
      {
        isect = Intersections.fresh_stats ();
        attempts = Atomic.make 0;
        retries = Atomic.make 0;
        injected = Atomic.make 0;
        checkpoints = Atomic.make 0;
        plan_builds = Atomic.make 0;
        plan_replays = Atomic.make 0;
        blit_volume = Atomic.make 0;
        msgs_sent = Atomic.make 0;
        bytes_on_wire = Atomic.make 0;
      }
  | Some reg ->
      let isect = Intersections.fresh_stats () in
      Obs.Metrics.gauge reg "exec.isect.shallow_s" (fun () ->
          isect.Intersections.shallow_s);
      Obs.Metrics.gauge reg "exec.isect.complete_s" (fun () ->
          isect.Intersections.complete_s);
      Obs.Metrics.gauge reg "exec.isect.candidates" (fun () ->
          float_of_int isect.Intersections.candidates);
      Obs.Metrics.gauge reg "exec.isect.nonempty" (fun () ->
          float_of_int isect.Intersections.nonempty);
      Obs.Metrics.gauge reg "exec.isect.cache_hits" (fun () ->
          float_of_int isect.Intersections.cache_hits);
      let cell name = Obs.Metrics.cell (Obs.Metrics.counter reg name) in
      {
        isect;
        attempts = cell "exec.attempts";
        retries = cell "exec.retries";
        injected = cell "exec.injected";
        checkpoints = cell "exec.checkpoints";
        plan_builds = cell "exec.plan.builds";
        plan_replays = cell "exec.plan.replays";
        blit_volume = cell "exec.plan.blit_volume";
        msgs_sent = cell "exec.net.msgs_sent";
        bytes_on_wire = cell "exec.net.bytes_on_wire";
      }

(* ---------- per-block runtime state ----------

   What every substrate shares: the replicated instances, the dynamic
   intersection pairs, the copy-plan memo and the instruments. The
   synchronisation state itself (credit and token counters, barrier and
   collective slots) belongs to the substrate, see [sync] below. *)

type state = {
  source : Program.t;
  ctx : Interp.Run.context;
  block : Prog.block;
  insts : (string * int, Physical.t) Hashtbl.t; (* (partition, color) *)
  pairs : (int, Intersections.pairs) Hashtbl.t; (* copy_id -> pairs *)
  fault : Resilience.Fault.t option;
  rstats : stats option;
  ckpt_sink : (Resilience.Checkpoint.t -> unit) option;
  trace : Obs.Trace.t;
  plans : (int * int * int * int, Copy_plan.t) Hashtbl.t;
      (* (role, copy_id, src color, dst color) -> compiled plan; role
         distinguishes the direct move, the reduction staging copy and the
         reduction apply of the same logical copy. -1 stands for "the root
         region" on master-side copies. *)
  plan_mu : Mutex.t;
      (* Guards [plans] only: under [`Domains] copies run outside the
         monitor (data movement off the lock), so the memo table needs its
         own mutual exclusion; per-pair plans themselves are single-owner. *)
  san : Sanitizer.t option;
      (* Armed by [~sanitize:true]: every instruction reports its declared
         footprint and every sync primitive its acquire/release edges. *)
}

(* Trace tids: one track per shard (tids 0..9 are reserved for the driver
   and compile pipeline). *)
let shard_tid sid = 10 + sid

(* Deterministic span label for an instruction — a function of the shard's
   instruction stream only, never of scheduling, so per-tid event
   sequences are identical across schedulers. *)
let instr_label = function
  | Prog.Assign (v, _) -> "assign:" ^ v
  | Prog.For_time _ -> "for_time"
  | Prog.Launch { launch; _ } -> "launch:" ^ launch.Types.task
  | Prog.Launch_collective { launch; _ } -> "collective:" ^ launch.Types.task
  | Prog.Fill { part; _ } -> "fill:" ^ part
  | Prog.Copy c -> Printf.sprintf "copy#%d" c.Prog.copy_id
  | Prog.Await id -> Printf.sprintf "await#%d" id
  | Prog.Release id -> Printf.sprintf "release#%d" id
  | Prog.Barrier -> "barrier"
  | Prog.Checkpoint _ -> "checkpoint"

let bump st f = match st.rstats with None -> () | Some s -> Atomic.incr (f s)

let part_of_operand source = function
  | Prog.Opart p -> Some (Program.find_partition source p)
  | Prog.Oregion _ -> None

let part_name = function
  | Prog.Opart p -> p
  | Prog.Oregion r ->
      invalid_arg ("Spmd.Exec: region operand " ^ r ^ " in a shard copy")

let instance st pname color =
  match Hashtbl.find_opt st.insts (pname, color) with
  | Some inst -> inst
  | None ->
      invalid_arg
        (Printf.sprintf "Spmd.Exec: no instance for %s[%d]" pname color)

let pairs st cid = Hashtbl.find st.pairs cid

(* Partitions mentioned anywhere in the block (launch arguments, copies,
   fills) — each of their subregions gets its own storage (§3.1). *)
let partitions_used (source : Program.t) (b : Prog.block) =
  let acc = Hashtbl.create 16 in
  let add name = Hashtbl.replace acc name () in
  let add_operand = function
    | Prog.Opart p -> add p
    | Prog.Oregion _ -> ()
  in
  let add_launch (l : Types.launch) =
    List.iter
      (function Types.Part (p, _) -> add p | Types.Whole _ -> ())
      l.Types.rargs
  in
  let rec go instrs =
    List.iter
      (function
        | Prog.Launch { launch; _ } -> add_launch launch
        | Prog.Launch_collective { launch; _ } -> add_launch launch
        | Prog.Copy c ->
            add_operand c.Prog.src;
            add_operand c.Prog.dst
        | Prog.Fill { part; _ } -> add part
        | Prog.Await _ | Prog.Release _ | Prog.Barrier | Prog.Assign _
        | Prog.Checkpoint _ -> ()
        | Prog.For_time { body; _ } -> go body)
      instrs
  in
  go b.Prog.init;
  go b.Prog.body;
  go b.Prog.finalize;
  Hashtbl.fold
    (fun name () l -> (name, Program.find_partition source name) :: l)
    acc []

let fields_used_of_partition (source : Program.t) (b : Prog.block) pname =
  (* Union of fields the block touches on this partition, for sizing the
     replicated instances. *)
  let acc = ref [] in
  let add f = if not (List.exists (Field.equal f) !acc) then acc := f :: !acc in
  let add_launch (l : Types.launch) =
    let task = Program.find_task source l.Types.task in
    List.iteri
      (fun i rarg ->
        match rarg with
        | Types.Part (p, _) when p = pname ->
            List.iter
              (fun (pr : Privilege.t) -> add pr.Privilege.field)
              (Task.param_privs task i)
        | Types.Part _ | Types.Whole _ -> ())
      l.Types.rargs
  in
  let add_copy (c : Prog.copy) op =
    match op with
    | Prog.Opart p when p = pname -> List.iter add c.Prog.fields
    | Prog.Opart _ | Prog.Oregion _ -> ()
  in
  let rec go instrs =
    List.iter
      (function
        | Prog.Launch { launch; _ } -> add_launch launch
        | Prog.Launch_collective { launch; _ } -> add_launch launch
        | Prog.Copy c ->
            add_copy c c.Prog.src;
            add_copy c c.Prog.dst
        | Prog.Fill { part; fields; _ } ->
            if part = pname then List.iter add fields
        | Prog.Await _ | Prog.Release _ | Prog.Barrier | Prog.Assign _
        | Prog.Checkpoint _ -> ()
        | Prog.For_time { body; _ } -> go body)
      instrs
  in
  go b.Prog.init;
  go b.Prog.body;
  go b.Prog.finalize;
  !acc

let create_state ?stats ?fault ?ckpt_sink ?(trace = Obs.Trace.null) ?san
    ?(pool = false) ~(source : Program.t) ctx (b : Prog.block) =
  let isect = Option.map (fun s -> s.isect) stats in
  let st =
    {
      source;
      ctx;
      block = b;
      insts = Hashtbl.create 64;
      pairs = Hashtbl.create 16;
      fault;
      rstats = stats;
      ckpt_sink;
      trace;
      plans = Hashtbl.create 32;
      plan_mu = Mutex.create ();
      san;
    }
  in
  List.iter
    (fun (pname, (p : Partition.t)) ->
      let fields = fields_used_of_partition source b pname in
      for c = 0 to Partition.color_count p - 1 do
        let sub = Partition.sub p c in
        Hashtbl.replace st.insts (pname, c)
          (Physical.create_over sub.Region.ispace fields)
      done)
    (partitions_used source b);
  (* Dynamic analysis (§3.3): pair sets for partition-to-partition copies. *)
  List.iter
    (fun (c : Prog.copy) ->
      match (part_of_operand source c.Prog.src, part_of_operand source c.Prog.dst) with
      | Some src, Some dst ->
          let pairs =
            match c.Prog.pairs with
            | `Sparse ->
                (* Cached per partition pair (partitions are immutable, so
                   re-running a program re-uses the analysis); with [pool],
                   big color counts additionally fan the shallow queries and
                   the complete phase out across the shared pool. This runs
                   on the main domain before any shard spawns, satisfying
                   the pool's outside-only calling convention; processes
                   that fork later keep [pool] off. *)
                let pool =
                  if
                    pool
                    && Partition.color_count src + Partition.color_count dst
                       >= 256
                  then Some (Taskpool.Pool.default ())
                  else None
                in
                Intersections.compute_cached ?stats:isect ?pool ~src ~dst ()
            | `Dense -> Intersections.compute_all_pairs ?stats:isect ~src ~dst ()
          in
          Hashtbl.replace st.pairs c.Prog.copy_id pairs
      | _ -> ())
    b.Prog.copies;
  st

(* ---------- copy primitives ---------- *)

let root_inst st rname =
  Interp.Run.region_instance st.ctx (Program.find_region st.source rname)

(* Plan roles: the same logical copy pair can be moved three different
   ways — directly, staged into a snapshot, or applied from one — and
   each needs its own offset arrays. *)
let role_direct = 0
let role_stage = 1
let role_apply = 2

(* The plan of one physical move of copy [cid] between colors [i] and [j]
   ([-1] = the root region side of a master copy): the (src_off, dst_off,
   len) runs are compiled on first use, memoized in [st.plans] and counted
   as one replay per use. *)
let plan st ~role ~cid ~i ~j ?space ~fields ~src ~dst () =
  let key = (role, cid, i, j) in
  Mutex.lock st.plan_mu;
  let hit = Hashtbl.find_opt st.plans key in
  Mutex.unlock st.plan_mu;
  let p =
    match hit with
    | Some p -> p
    | None ->
        let p = Copy_plan.build ?space ~src ~dst ~fields () in
        bump st (fun s -> s.plan_builds);
        Mutex.protect st.plan_mu (fun () -> Hashtbl.replace st.plans key p);
        p
  in
  bump st (fun s -> s.plan_replays);
  (match st.rstats with
  | None -> ()
  | Some s ->
      ignore
        (Atomic.fetch_and_add s.blit_volume (Copy_plan.volume p * List.length fields)));
  p

let copy_plan st ~cid ~i ~j ?space ~fields ~src ~dst () =
  plan st ~role:role_direct ~cid ~i ~j ?space ~fields ~src ~dst ()

(* Execute one physical move by replaying its plan as blits / fused
   reduction loops. *)
let exec_copy st ~role ~cid ~i ~j ?space ~fields ~reduce ~src ~dst () =
  Copy_plan.execute
    (plan st ~role ~cid ~i ~j ?space ~fields ~src ~dst ())
    ~reduce ~src ~dst

(* Sequential (master-side) execution of an init/finalize copy: every color
   at once, no synchronisation. *)
let master_copy st (c : Prog.copy) =
  let cid = c.Prog.copy_id and fields = c.Prog.fields in
  let do_one ~i ~j ?space ~src ~dst () =
    exec_copy st ~role:role_direct ~cid ~i ~j ?space ~fields
      ~reduce:c.Prog.reduce ~src ~dst ()
  in
  match (c.Prog.src, c.Prog.dst) with
  | Prog.Oregion rs, Prog.Opart pd ->
      let p = Program.find_partition st.source pd in
      let src = root_inst st rs in
      for color = 0 to Partition.color_count p - 1 do
        do_one ~i:(-1) ~j:color ~src ~dst:(instance st pd color) ()
      done
  | Prog.Opart ps, Prog.Oregion rd ->
      let p = Program.find_partition st.source ps in
      let dst = root_inst st rd in
      for color = 0 to Partition.color_count p - 1 do
        do_one ~i:color ~j:(-1) ~src:(instance st ps color) ~dst ()
      done
  | Prog.Opart ps, Prog.Opart pd ->
      List.iter
        (fun (i, j, space) ->
          do_one ~i ~j ~space ~src:(instance st ps i) ~dst:(instance st pd j) ())
        (pairs st cid).Intersections.items
  | Prog.Oregion rs, Prog.Oregion rd ->
      do_one ~i:(-1) ~j:(-1) ~src:(root_inst st rs) ~dst:(root_inst st rd) ()

let fill_colors st ~part ~fields ~op colors =
  List.iter
    (fun c ->
      let inst = instance st part c in
      List.iter (fun fld -> Physical.fill inst fld (Privilege.identity_of op)) fields)
    colors

(* Initialization runs sequentially, outside the shards (Fig. 4d). *)
let init st =
  List.iter
    (function
      | Prog.Copy c -> master_copy st c
      | Prog.Fill { part; fields; op } ->
          let p = Program.find_partition st.source part in
          fill_colors st ~part ~fields ~op
            (List.init (Partition.color_count p) Fun.id)
      | instr ->
          invalid_arg
            (Format.asprintf "Spmd.Exec: unsupported init instruction %a"
               Prog.pp_instr instr))
    st.block.Prog.init

(* Finalization (the copy-back of written partitions to their parent
   regions, Fig. 4a) runs sequentially too, after every shard is done. *)
let finalize st =
  List.iter
    (function
      | Prog.Copy c -> master_copy st c
      | instr ->
          invalid_arg
            (Format.asprintf "Spmd.Exec: unsupported finalize instruction %a"
               Prog.pp_instr instr))
    st.block.Prog.finalize

(* ---------- shard streams ---------- *)

type loop_info = { lvar : string; lcount : int; mutable liter : int }

type frame = {
  instrs : Prog.instr array;
  mutable idx : int;
  loop : loop_info option;
}

type shard = {
  sid : int;
  env : Eval.env;
  mutable frames : frame list;
  mutable joined : int option;
      (* handle of the barrier/collective this shard has arrived at *)
  mutable stall : int; (* injected delay: remaining blocked attempts *)
  mutable fault_drawn : bool; (* drew faults for the current instruction *)
  mutable resume : int option; (* restart: first iteration of the time loop *)
  mutable t0 : float; (* trace start of the current instruction, or nan *)
}

let shard_done s = s.frames = []
let shard_env s = s.env

let owner st pname color =
  let p = Program.find_partition st.source pname in
  Prog.owner_of_color ~shards:st.block.Prog.shards
    ~colors:(Partition.color_count p) color

let owned_space_colors st sid space =
  let n = Program.find_space st.source space in
  Prog.colors_of_shard ~shards:st.block.Prog.shards ~colors:n sid

(* ---------- sanitizer hooks ----------

   When armed, every instruction reports its declared per-color footprint
   and every synchronisation primitive its acquire/release edge. Strict
   privileges (paper §2.1: a task touches exactly what it declared) make
   the declared footprint a sound stand-in for the kernel's real accesses;
   the sync edges mirror the executor's own primitives exactly, so any
   race report means the compiled sync ops do not order two conflicting
   accesses — independent of the schedule that happened to run. *)

let san_access st ~sid ~part ~color ~fields kind space =
  match st.san with
  | None -> ()
  | Some san ->
      List.iter
        (fun field ->
          Sanitizer.access san ~shard:sid ~part ~color ~field kind space)
        fields

let san_acquire st ~sid key =
  match st.san with
  | None -> ()
  | Some san -> Sanitizer.acquire san ~shard:sid key

let san_release st ~sid key =
  match st.san with
  | None -> ()
  | Some san -> Sanitizer.release san ~shard:sid key

(* Declared footprint of one color of a launch. *)
let san_launch st ~sid (l : Types.launch) c =
  match st.san with
  | None -> ()
  | Some san ->
      let task = Program.find_task st.source l.Types.task in
      List.iteri
        (fun k rarg ->
          match rarg with
          | Types.Part (pname, Types.Id) ->
              let inst = instance st pname c in
              let space = Physical.ispace inst in
              List.iter
                (fun (pr : Privilege.t) ->
                  let kind =
                    match pr.Privilege.mode with
                    | Privilege.Read -> Sanitizer.A_read
                    | Privilege.Read_write -> Sanitizer.A_write
                    | Privilege.Reduce op -> Sanitizer.A_reduce op
                  in
                  Sanitizer.access san ~shard:sid ~part:pname ~color:c
                    ~field:pr.Privilege.field kind space)
                (Task.param_privs task k)
          | Types.Part _ | Types.Whole _ -> ())
        l.Types.rargs

(* Instances (with their write/reduce-privileged fields) a launch color may
   mutate — the rollback set for a retryable attempt. *)
let written_instances st (task : Task.t) (l : Types.launch) c =
  l.Types.rargs
  |> List.mapi (fun k rarg ->
         match rarg with
         | Types.Part (pname, Types.Id) ->
             let wfields =
               List.filter_map
                 (fun (pr : Privilege.t) ->
                   match pr.Privilege.mode with
                   | Privilege.Read_write | Privilege.Reduce _ ->
                       Some pr.Privilege.field
                   | Privilege.Read -> None)
                 (Task.param_privs task k)
             in
             if wfields = [] then None
             else Some (instance st pname c, wfields)
         | Types.Part _ | Types.Whole _ -> None)
  |> List.filter_map Fun.id

(* Run one color of a launch against the replicated instances. Post-
   normalization, every argument uses the identity projection, so color [c]
   of the launch touches exactly color [c] of each argument partition.

   With fault injection armed, every attempt snapshots its write set first;
   an injected transient failure (raised *after* the kernel ran, the
   worst case: the attempt corrupted its writes before dying) rolls the
   snapshot back and re-executes, up to the policy's retry cap. Retried
   execution is safe precisely because of the privilege discipline: the
   kernel reads only read-privileged fields, which a failed attempt cannot
   have changed. *)
let run_launch_color st ~sid env (l : Types.launch) c =
  let task = Program.find_task st.source l.Types.task in
  san_launch st ~sid l c;
  let sargs = Array.map (Eval.sexpr env) l.Types.sargs in
  let accessors =
    Array.of_list
      (List.mapi
         (fun k rarg ->
           match rarg with
           | Types.Part (pname, Types.Id) ->
               let inst = instance st pname c in
               Accessor.make inst ~space:(Physical.ispace inst)
                 (Task.param_privs task k)
           | Types.Part (pname, Types.Fn (fname, _)) ->
               invalid_arg
                 (Printf.sprintf
                    "Spmd.Exec: non-normalized projection %s(%s) survived \
                     control replication"
                    fname pname)
           | Types.Whole r ->
               invalid_arg
                 (Printf.sprintf
                    "Spmd.Exec: whole-region argument %s in replicated code" r))
         l.Types.rargs)
  in
  let kernel () = task.Task.kernel accessors sargs in
  match st.fault with
  | None -> kernel ()
  | Some inj ->
      let site = Resilience.Fault.Leaf_task l.Types.task in
      let pol = Resilience.Fault.policy inj in
      let written = written_instances st task l c in
      let rec attempt n =
        bump st (fun s -> s.attempts);
        let snap = Resilience.Snapshot.capture written in
        let r = kernel () in
        if Resilience.Fault.draw inj site ~shard:sid then begin
          bump st (fun s -> s.injected);
          if n < pol.Resilience.Fault.leaf_retries then begin
            Resilience.Snapshot.restore snap;
            bump st (fun s -> s.retries);
            attempt (n + 1)
          end
          else
            raise
              (Resilience.Fault.Injected { site; shard = sid; occurrence = n })
        end
        else r
      in
      attempt 0

(* Pairs of a copy grouped by the role this shard plays. *)
let owned_src_pairs st sid (c : Prog.copy) =
  let ps = part_name c.Prog.src in
  List.filter
    (fun (i, _, _) -> owner st ps i = sid)
    (pairs st c.Prog.copy_id).Intersections.items

let owned_dst_pairs st sid copy_id =
  let c = List.find (fun (c : Prog.copy) -> c.Prog.copy_id = copy_id) st.block.Prog.copies in
  let pd = part_name c.Prog.dst in
  ( c,
    List.filter
      (fun (_, j, _) -> owner st pd j = sid)
      (pairs st copy_id).Intersections.items )

(* ---------- checkpoint capture ---------- *)

(* Build a consistent cut of the run. Callers guarantee quiescence: every
   shard is parked at the checkpoint barrier of the same time-loop
   boundary and the last arriver takes the cut (holding the monitor lock
   under domains). *)
let take_checkpoint st ~iter ~env sink =
  let insts =
    Hashtbl.fold
      (fun key inst acc -> (key, Resilience.Checkpoint.snapshot_inst inst) :: acc)
      st.insts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let roots =
    List.map
      (fun (id, inst) -> (id, Resilience.Checkpoint.snapshot_inst inst))
      (Interp.Run.root_instances st.ctx)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let scalars = List.sort compare (Eval.bindings env) in
  bump st (fun s -> s.checkpoints);
  sink { Resilience.Checkpoint.iter; insts; roots; scalars }

let restore_state st master_env (ck : Resilience.Checkpoint.t) =
  List.iter
    (fun ((pname, c), data) ->
      Resilience.Checkpoint.restore_inst (instance st pname c) data)
    ck.Resilience.Checkpoint.insts;
  let roots = Interp.Run.root_instances st.ctx in
  List.iter
    (fun (name, data) ->
      match List.assoc_opt name roots with
      | Some inst -> Resilience.Checkpoint.restore_inst inst data
      | None ->
          invalid_arg
            (Printf.sprintf "Spmd.Exec: checkpoint names unknown root %s" name))
    ck.Resilience.Checkpoint.roots;
  List.iter
    (fun (k, v) -> Eval.set master_env k v)
    ck.Resilience.Checkpoint.scalars

(* Where a restarted block resumes: the first top-level time loop. *)
let restart_point (b : Prog.block) (ck : Resilience.Checkpoint.t) =
  match Prog.first_time_loop b with
  | Some k -> (k, ck.Resilience.Checkpoint.iter + 1)
  | None ->
      invalid_arg "Spmd.Exec: cannot restore a block without a time loop"

(* ---------- the sync substrate ----------

   Everything the shard machine needs from its backend: WAR credits, the
   data move that publishes a RAW token, token consumption with payload
   application, and the barrier/collective rendezvous. [shared_sync]
   implements it over shared memory (cooperatively, or under a monitor for
   domains); lib/net implements it over the wire. *)

type pair = int * int * Index_space.t

type rendezvous =
  | Barrier
  | Checkpoint of (unit -> unit)
  | Collective of { instr : Prog.instr; var : string; op : Privilege.redop }

type sync = {
  take_credits : Prog.copy -> pair list -> bool;
  put : Prog.copy -> pair -> release:(unit -> unit) -> unit;
  take : Prog.copy -> pair list -> acquired:(unit -> unit) -> bool;
  grant : Prog.copy -> pair list -> unit;
  can_join : int -> rendezvous -> bool;
  join : int -> rendezvous -> (int * float) list -> int;
  poll : int -> rendezvous -> int -> float option;
  threaded : bool;
  chan : int * int * int -> int * int;
  meet_diag : rendezvous -> int option -> Resilience.Diag.wait;
}

type chan = { mutable war : int; mutable raw : int }

(* One scalar collective (a Launch_collective instruction). A round: every
   shard deposits its per-color partial results; the last depositor folds
   them in ascending color order and publishes; every shard consumes; the
   last consumer resets the slot for the next loop iteration. A shard that
   races ahead to the next round waits until the previous one is fully
   drained. *)
type collective_slot = {
  mutable values : (int * float) list; (* (color, local result) *)
  arrived : bool array; (* per shard, this round *)
  mutable result : float option;
  consumed : bool array;
}

type barrier_state = { mutable arrived : int; mutable generation : int }

(* Domains' monitor: one lock over all sync metadata, and a version that
   every state change that can unblock a shard bumps before it
   broadcasts. *)
type monitor = { mu : Mutex.t; cv : Condition.t; version : int Atomic.t }

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let fold_sorted op values =
  List.fold_left
    (fun acc (_, v) -> Privilege.apply_redop op acc v)
    (Privilege.identity_of op)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) values)

(* Shared-memory substrate. Without a monitor it is the cooperative one;
   with one, counter, mailbox and slot updates run under its lock while
   data moves stay outside it (the war/raw protocol itself guarantees
   exclusive access to the instances). Diagnostic readers never lock: the
   watchdog calls them with the monitor held. *)
let shared_sync st mon =
  let shards = st.block.Prog.shards in
  let chans = Hashtbl.create 64 in
  Hashtbl.iter
    (fun cid (ps : Intersections.pairs) ->
      let war =
        Option.value ~default:1 (List.assoc_opt cid st.block.Prog.credits)
      in
      List.iter
        (fun (i, j, _) -> Hashtbl.replace chans (cid, i, j) { war; raw = 0 })
        ps.Intersections.items)
    st.pairs;
  let chan key = Hashtbl.find chans key in
  (* (copy_id, dst color) -> staged reduction payloads *)
  let mailbox = Hashtbl.create 16 in
  let barrier = { arrived = 0; generation = 0 } in
  let ckpt_barrier = { arrived = 0; generation = 0 } in
  (* Keyed by the Launch_collective instruction itself, by physical
     identity — two distinct collectives can be structurally equal, but all
     shards share the same instruction values. Created up front so the
     list is read-only while shards run. *)
  let rec collect acc = function
    | [] -> acc
    | (Prog.Launch_collective _ as i) :: rest ->
        let slot =
          {
            values = [];
            arrived = Array.make shards false;
            result = None;
            consumed = Array.make shards false;
          }
        in
        collect ((i, slot) :: acc) rest
    | Prog.For_time { body; _ } :: rest -> collect (collect acc body) rest
    | _ :: rest -> collect acc rest
  in
  let collectives = collect [] st.block.Prog.body in
  let slot instr = List.assq instr collectives in
  let locked f = match mon with None -> f () | Some m -> Mutex.protect m.mu f in
  let signal () =
    match mon with
    | None -> ()
    | Some m ->
        Atomic.incr m.version;
        Condition.broadcast m.cv
  in
  let barrier_of = function
    | Checkpoint _ -> ckpt_barrier
    | Barrier | Collective _ -> barrier
  in
  let each owned f = List.iter (fun (i, j, _) -> f i j) owned in
  {
    take_credits =
      (fun c owned ->
        let cid = c.Prog.copy_id in
        locked (fun () ->
            List.for_all (fun (i, j, _) -> (chan (cid, i, j)).war > 0) owned
            && begin
                 each owned (fun i j ->
                     let ch = chan (cid, i, j) in
                     ch.war <- ch.war - 1);
                 true
               end));
    put =
      (fun c (i, j, space) ~release ->
        let cid = c.Prog.copy_id and fields = c.Prog.fields in
        let src = instance st (part_name c.Prog.src) i in
        let dst = instance st (part_name c.Prog.dst) j in
        let staged =
          match c.Prog.reduce with
          | None ->
              exec_copy st ~role:role_direct ~cid ~i ~j ~space ~fields
                ~reduce:None ~src ~dst ();
              None
          | Some _ ->
              (* Snapshot the payload now — the producer may overwrite the
                 source before the consumer applies — and stage it; the
                 consumer folds payloads in ascending source color for
                 deterministic floating-point results. The staging plan is
                 replayed against each iteration's fresh snapshot: offsets
                 depend only on the (invariant) spaces, not the instance. *)
              let snapshot = Physical.create_over space fields in
              exec_copy st ~role:role_stage ~cid ~i ~j ~space ~fields
                ~reduce:None ~src ~dst:snapshot ();
              Some snapshot
        in
        release ();
        locked (fun () ->
            Option.iter
              (fun snapshot ->
                match Hashtbl.find_opt mailbox (cid, j) with
                | Some box -> box := (i, snapshot) :: !box
                | None -> Hashtbl.replace mailbox (cid, j) (ref [ (i, snapshot) ]))
              staged;
            let ch = chan (cid, i, j) in
            ch.raw <- ch.raw + 1;
            signal ()));
    take =
      (fun c owned ~acquired ->
        let cid = c.Prog.copy_id in
        let staged =
          locked (fun () ->
              if not (List.for_all (fun (i, j, _) -> (chan (cid, i, j)).raw > 0) owned)
              then None
              else begin
                each owned (fun i j ->
                    let ch = chan (cid, i, j) in
                    ch.raw <- ch.raw - 1);
                Some
                  (if c.Prog.reduce = None then []
                   else
                     List.map
                       (fun (_, j, _) ->
                         match Hashtbl.find_opt mailbox (cid, j) with
                         | None -> (j, [])
                         | Some box ->
                             let l = !box in
                             box := [];
                             (j, l))
                       owned)
              end)
        in
        match (staged, c.Prog.reduce) with
        | None, _ -> false
        | Some _, None ->
            acquired ();
            true
        | Some staged, Some op ->
            acquired ();
            let pd = part_name c.Prog.dst in
            List.iter
              (fun (j, l) ->
                List.iter
                  (fun (i, snapshot) ->
                    exec_copy st ~role:role_apply ~cid ~i ~j ~fields:c.Prog.fields
                      ~reduce:(Some op) ~src:snapshot ~dst:(instance st pd j) ())
                  (List.sort (fun (a, _) (b, _) -> Int.compare a b) l))
              staged;
            true);
    grant =
      (fun c owned ->
        locked (fun () ->
            each owned (fun i j ->
                let ch = chan (c.Prog.copy_id, i, j) in
                ch.war <- ch.war + 1);
            signal ()));
    can_join =
      (fun sid -> function
        | Collective { instr; _ } ->
            locked (fun () ->
                let s = slot instr in
                s.result = None && not s.arrived.(sid))
        | Barrier | Checkpoint _ -> true);
    join =
      (fun sid rv values ->
        locked (fun () ->
            let h =
              match rv with
              | Collective { instr; op; _ } ->
                  let s = slot instr in
                  s.values <- values @ s.values;
                  s.arrived.(sid) <- true;
                  if Array.for_all Fun.id s.arrived then
                    s.result <- Some (fold_sorted op s.values);
                  0
              | Barrier | Checkpoint _ ->
                  let b = barrier_of rv in
                  let gen = b.generation in
                  b.arrived <- b.arrived + 1;
                  if b.arrived = shards then begin
                    b.arrived <- 0;
                    (match rv with Checkpoint cut -> cut () | _ -> ());
                    b.generation <- gen + 1
                  end;
                  gen
            in
            signal ();
            h));
    poll =
      (fun sid rv h ->
        locked (fun () ->
            match rv with
            | Collective { instr; _ } -> (
                let s = slot instr in
                match s.result with
                | None -> None
                | Some r ->
                    s.consumed.(sid) <- true;
                    if Array.for_all Fun.id s.consumed then begin
                      s.values <- [];
                      Array.fill s.arrived 0 shards false;
                      Array.fill s.consumed 0 shards false;
                      s.result <- None
                    end;
                    signal ();
                    Some r)
            | Barrier | Checkpoint _ ->
                if (barrier_of rv).generation > h then Some 0. else None));
    threaded = mon <> None;
    chan =
      (fun key ->
        let ch = chan key in
        (ch.war, ch.raw));
    meet_diag =
      (fun rv _ ->
        match rv with
        | Collective { instr; var; _ } ->
            let s = slot instr in
            Resilience.Diag.At_collective
              {
                var;
                arrived = count_true s.arrived;
                consumed = count_true s.consumed;
                published = s.result <> None;
              }
        | Barrier ->
            Resilience.Diag.At_barrier
              { arrived = barrier.arrived; generation = barrier.generation }
        | Checkpoint _ ->
            Resilience.Diag.At_checkpoint
              { arrived = ckpt_barrier.arrived; generation = ckpt_barrier.generation });
  }

(* ---------- the shard machine ---------- *)

let new_shard st ~sid ~restore env =
  let start, resume =
    match restore with
    | None -> (0, None)
    | Some ck ->
        let k, start = restart_point st.block ck in
        (k, Some start)
  in
  {
    sid;
    env;
    frames = [ { instrs = Array.of_list st.block.Prog.body; idx = start; loop = None } ];
    joined = None;
    stall = 0;
    fault_drawn = false;
    resume;
    t0 = Float.nan;
  }

let shard st ~sid env = new_shard st ~sid ~restore:None env

let push_loop ?(start = 0) s var count body =
  if start < count then begin
    Eval.set s.env var (float_of_int start);
    s.frames <-
      { instrs = Array.of_list body; idx = 0; loop = Some { lvar = var; lcount = count; liter = start } }
      :: s.frames
  end

(* Advance past exhausted frames, re-entering loops. *)
let rec normalize_frames s =
  match s.frames with
  | [] -> ()
  | f :: rest ->
      if f.idx >= Array.length f.instrs then (
        match f.loop with
        | Some li when li.liter + 1 < li.lcount ->
            li.liter <- li.liter + 1;
            Eval.set s.env li.lvar (float_of_int li.liter);
            f.idx <- 0
        | Some _ | None ->
            s.frames <- rest;
            normalize_frames s)
      else ()

(* Draw the scheduler-level fault sites for the shard's current instruction
   instance: a shard stall (any instruction) and a delayed channel release
   (Release only). Drawn exactly once per instruction *instance* — blocked
   re-attempts never re-draw — so the schedule is a function of the
   shard's deterministic instruction stream, not of scheduling. A threaded
   shard sleeps out the delay; a stepped one sits out that many steps. *)
let draw_instr_faults st sync s instr =
  match st.fault with
  | None -> ()
  | Some inj ->
      if not s.fault_drawn then begin
        s.fault_drawn <- true;
        let pol = Resilience.Fault.policy inj in
        let delay steps =
          bump st (fun x -> x.injected);
          if sync.threaded then Unix.sleepf pol.Resilience.Fault.delay_seconds
          else s.stall <- s.stall + steps
        in
        if Resilience.Fault.draw inj Resilience.Fault.Shard_stall ~shard:s.sid
        then delay pol.Resilience.Fault.stall_steps;
        match instr with
        | Prog.Release id ->
            if
              Resilience.Fault.draw inj
                (Resilience.Fault.Release_delay id)
                ~shard:s.sid
            then delay pol.Resilience.Fault.release_delay_steps
        | _ -> ()
      end

(* A barrier, checkpoint barrier or collective: arrive once (depositing
   [values ()]), then poll until the rendezvous completes. Arrival changes
   shared state, so it counts as progress even when the shard then
   waits. *)
let meet st sync s rv key ~values ~arrived ~finish advance =
  let sid = s.sid in
  let poll h =
    match sync.poll sid rv h with
    | None -> `Blocked
    | Some r ->
        san_acquire st ~sid key;
        s.joined <- None;
        finish r;
        advance ()
  in
  match s.joined with
  | Some h -> poll h
  | None ->
      if not (sync.can_join sid rv) then `Blocked
      else begin
        let vs = values () in
        (* The release precedes the arrival becoming visible: a shard that
           completes the rendezvous acquires immediately, and must find
           this shard's accesses already joined into the key's clock. *)
        san_release st ~sid key;
        let h = sync.join sid rv vs in
        s.joined <- Some h;
        arrived h;
        ignore (poll h);
        `Progress
      end

(* Execute (or block on) the shard's current instruction. [`Stalled] means
   an injected delay is pending — the shard cannot move, but will without
   further events (so it never counts toward deadlock detection). *)
let step st sync s =
  normalize_frames s;
  match s.frames with
  | [] -> `Done
  | f :: _ -> (
      let instr = f.instrs.(f.idx) in
      draw_instr_faults st sync s instr;
      if s.stall > 0 then begin
        s.stall <- s.stall - 1;
        `Stalled
      end
      else
        let tr = st.trace and sid = s.sid in
        let tid = shard_tid sid in
        (* A stepped shard's span covers its successful attempt; a threaded
           one's runs from its first attempt, so it includes the wait. *)
        if Obs.Trace.enabled tr && (Float.is_nan s.t0 || not sync.threaded) then
          s.t0 <- Obs.Trace.now_us tr;
        let next () =
          f.idx <- f.idx + 1;
          s.fault_drawn <- false;
          s.t0 <- Float.nan
        in
        let advance () =
          let t0 = s.t0 in
          next ();
          normalize_frames s;
          if Obs.Trace.enabled tr then
            Obs.Trace.complete tr ~tid ~cat:"exec" ~ts:t0
              ~dur:(Obs.Trace.now_us tr -. t0)
              (instr_label instr);
          `Progress
        in
        match instr with
        | Prog.Assign (v, e) ->
            Eval.set s.env v (Eval.sexpr s.env e);
            advance ()
        | Prog.For_time { var; count; body } ->
            next ();
            Obs.Trace.instant tr ~tid ~cat:"exec"
              ~args:[ ("count", Obs.Trace.Int count) ]
              "for_time";
            let start = Option.value ~default:0 s.resume in
            s.resume <- None;
            push_loop ~start s var count body;
            normalize_frames s;
            `Progress
        | Prog.Launch { space; launch } ->
            List.iter
              (fun c -> ignore (run_launch_color st ~sid s.env launch c))
              (owned_space_colors st sid space);
            advance ()
        | Prog.Fill { part; fields; op } ->
            let p = Program.find_partition st.source part in
            let colors =
              Prog.colors_of_shard ~shards:st.block.Prog.shards
                ~colors:(Partition.color_count p) sid
            in
            List.iter
              (fun c ->
                san_access st ~sid ~part ~color:c ~fields Sanitizer.A_write
                  (Physical.ispace (instance st part c)))
              colors;
            fill_colors st ~part ~fields ~op colors;
            advance ()
        | Prog.Copy c ->
            (* Producer-issued copy (§3.4): take every owned pair's
               write-after-read credit, then move each pair's data and
               publish its read-after-write token. *)
            let owned = owned_src_pairs st sid c in
            if not (sync.take_credits c owned) then `Blocked
            else begin
              let cid = c.Prog.copy_id and fields = c.Prog.fields in
              let ps = part_name c.Prog.src and pd = part_name c.Prog.dst in
              List.iter
                (fun ((i, j, space) as pair) ->
                  san_acquire st ~sid (Sanitizer.K_war (cid, i, j));
                  san_access st ~sid ~part:ps ~color:i ~fields Sanitizer.A_read
                    space;
                  (* A plain copy's write is the producer's; a reduction's
                     application is the consumer's, at [Await]. *)
                  if c.Prog.reduce = None then
                    san_access st ~sid ~part:pd ~color:j ~fields
                      Sanitizer.A_write space;
                  sync.put c pair ~release:(fun () ->
                      san_release st ~sid (Sanitizer.K_raw (cid, i, j))))
                owned;
              advance ()
            end
        | Prog.Await id ->
            let c, owned = owned_dst_pairs st sid id in
            let acquired () =
              List.iter
                (fun (i, j, _) -> san_acquire st ~sid (Sanitizer.K_raw (id, i, j)))
                owned;
              if c.Prog.reduce <> None then
                List.iter
                  (fun (_, j, space) ->
                    san_access st ~sid ~part:(part_name c.Prog.dst) ~color:j
                      ~fields:c.Prog.fields Sanitizer.A_write space)
                  owned
            in
            if sync.take c owned ~acquired then advance () else `Blocked
        | Prog.Release id ->
            let c, owned = owned_dst_pairs st sid id in
            (* Join this shard's reads into the key before any producer can
               observe the fresh credit. *)
            List.iter
              (fun (i, j, _) -> san_release st ~sid (Sanitizer.K_war (id, i, j)))
              owned;
            sync.grant c owned;
            Obs.Trace.instant tr ~tid ~cat:"exec"
              ~args:[ ("copy_id", Obs.Trace.Int id) ]
              "credit.release";
            advance ()
        | Prog.Barrier ->
            meet st sync s Barrier Sanitizer.K_barrier
              ~values:(fun () -> [])
              ~arrived:(fun gen ->
                Obs.Trace.instant tr ~tid ~cat:"exec"
                  ~args:[ ("generation", Obs.Trace.Int gen) ]
                  "barrier.arrive")
              ~finish:ignore advance
        | Prog.Checkpoint { var; every } -> (
            match st.ckpt_sink with
            | None -> advance ()
            | Some sink ->
                let t = int_of_float (Eval.get s.env var) in
                if (t + 1) mod every <> 0 then advance ()
                else
                  (* A dedicated barrier quiesces every shard at this loop
                     boundary; the last arriver serializes the cut. *)
                  meet st sync s
                    (Checkpoint (fun () -> take_checkpoint st ~iter:t ~env:s.env sink))
                    Sanitizer.K_ckpt
                    ~values:(fun () -> [])
                    ~arrived:ignore ~finish:ignore advance)
        | Prog.Launch_collective { space; launch; var; op } ->
            (* Deposit per-color partial results; the rendezvous folds them
               in ascending color order (bitwise equal to the sequential
               fold) and hands every shard the result. *)
            meet st sync s
              (Collective { instr; var; op })
              Sanitizer.K_collective
              ~values:(fun () ->
                List.map
                  (fun c -> (c, run_launch_color st ~sid s.env launch c))
                  (owned_space_colors st sid space))
              ~arrived:(fun _ ->
                Obs.Trace.instant tr ~tid ~cat:"exec"
                  ~args:[ ("var", Obs.Trace.Str var) ]
                  "collective.deposit")
              ~finish:(fun r -> Eval.set s.env var r)
              advance)

(* ---------- stall/deadlock diagnostics ---------- *)

(* The structured picture of a shard parked on its current instruction. *)
let shard_diag st sync s =
  normalize_frames s;
  match s.frames with
  | [] -> { Resilience.Diag.sid = s.sid; instr = None; wait = Resilience.Diag.Finished }
  | f :: _ ->
      let instr = f.instrs.(f.idx) in
      let chans cid owned =
        List.map
          (fun (i, j, _) ->
            let war, raw = sync.chan (cid, i, j) in
            { Resilience.Diag.copy_id = cid; src = i; dst = j; war; raw })
          owned
      in
      let wait =
        match instr with
        | Prog.Copy c ->
            Resilience.Diag.At_copy (chans c.Prog.copy_id (owned_src_pairs st s.sid c))
        | Prog.Await id ->
            Resilience.Diag.At_await (chans id (snd (owned_dst_pairs st s.sid id)))
        | Prog.Barrier -> sync.meet_diag Barrier s.joined
        | Prog.Checkpoint _ -> sync.meet_diag (Checkpoint ignore) s.joined
        | Prog.Launch_collective { var; op; _ } ->
            sync.meet_diag (Collective { instr; var; op }) s.joined
        | _ -> Resilience.Diag.Running
      in
      {
        Resilience.Diag.sid = s.sid;
        instr = Some (Format.asprintf "%a" Prog.pp_instr instr);
        wait;
      }

let diagnose sync ~reason rows =
  let barrier_arrived, barrier_generation =
    match sync.meet_diag Barrier None with
    | Resilience.Diag.At_barrier { arrived; generation } -> (arrived, generation)
    | _ -> (0, 0)
  in
  { Resilience.Diag.reason; shards = rows; barrier_arrived; barrier_generation }

(* ---------- drivers ---------- *)

(* Cooperative: sweep the shards from a scheduler-chosen point. If a full
   sweep makes no progress and no shard is merely serving an injected
   delay, every live shard is blocked on runtime state that no one can
   change: a deadlock, reported with per-shard diagnostics. *)
let drive_stepper st shards rng =
  let sync = shared_sync st None in
  let rr = ref 0 in
  let rec drive () =
    match List.filter (fun s -> not (shard_done s)) (Array.to_list shards) with
    | [] -> ()
    | alive ->
        let arr = Array.of_list alive in
        let n = Array.length arr in
        (match rng with
        | Some state ->
            for i = n - 1 downto 1 do
              let j = Random.State.int state (i + 1) in
              let t = arr.(i) in
              arr.(i) <- arr.(j);
              arr.(j) <- t
            done
        | None ->
            let k = !rr mod n in
            incr rr;
            let rot = Array.copy arr in
            Array.iteri (fun i _ -> arr.(i) <- rot.((i + k) mod n)) rot);
        let progressed = ref false and stalled = ref false in
        Array.iter
          (fun s ->
            match step st sync s with
            | `Progress | `Done -> progressed := true
            | `Stalled -> stalled := true
            | `Blocked -> ())
          arr;
        if not !progressed && not !stalled then
          raise
            (Deadlock
               (diagnose sync
                  ~reason:(Printf.sprintf "all %d live shards blocked" n)
                  (List.map (shard_diag st sync) alive)));
        drive ()
  in
  drive ()

(* Real parallel execution on OCaml domains, one per shard, over the
   monitor substrate. A blocked shard parks on the condition variable
   until the monitor's version moves past the one it read before its
   attempt, then retries — so no wake-up is lost. A stall watchdog
   (lib/resilience) trips when every live shard is parked with no version
   change for the timeout, and the run raises {!Deadlock} with per-shard
   diagnostics instead of hanging forever. When a shard raises (a leaf
   fault past its retry cap, a sanitizer race), the survivors cannot
   complete the block: they leave as soon as they would park, and the
   root cause is re-raised. *)
let drive_domains st shards ~watchdog =
  let mon = { mu = Mutex.create (); cv = Condition.create (); version = Atomic.make 0 } in
  let sync = shared_sync st (Some mon) in
  let n = Array.length shards in
  let waiting = Array.make n false and finished = Array.make n false in
  let tripped = ref None and failed = ref false in
  let shard_main s () =
    let returned = ref false in
    Fun.protect
      ~finally:(fun () ->
        (* Mark the shard finished in *all* exit paths so the watchdog can
           still declare the survivors deadlocked instead of reporting
           them running. *)
        Mutex.protect mon.mu (fun () ->
            finished.(s.sid) <- true;
            if not !returned then failed := true;
            Atomic.incr mon.version;
            Condition.broadcast mon.cv))
      (fun () ->
        let rec go () =
          let seen = Atomic.get mon.version in
          match step st sync s with
          | `Done -> ()
          | `Progress | `Stalled -> go ()
          | `Blocked ->
              Mutex.lock mon.mu;
              waiting.(s.sid) <- true;
              while Atomic.get mon.version = seen && !tripped = None && not !failed do
                Condition.wait mon.cv mon.mu
              done;
              waiting.(s.sid) <- false;
              let dead = !tripped and quit = !failed in
              Mutex.unlock mon.mu;
              (match dead with
              | Some d -> raise (Deadlock d)
              | None -> if not quit then go ())
        in
        go ();
        returned := true)
  in
  let dog =
    if watchdog <= 0. then None
    else
      let observe () =
        Mutex.protect mon.mu (fun () ->
            let v = Atomic.get mon.version in
            if Array.for_all Fun.id finished then `Done
            else if Array.for_all2 ( || ) finished waiting then `Quiescent v
            else `Running v)
      in
      let trip () =
        Mutex.protect mon.mu (fun () ->
            let row s =
              if finished.(s.sid) then
                {
                  Resilience.Diag.sid = s.sid;
                  instr = None;
                  wait = Resilience.Diag.Finished;
                }
              else shard_diag st sync s
            in
            tripped :=
              Some
                (diagnose sync
                   ~reason:
                     (Printf.sprintf
                        "stall watchdog: no progress for %.2fs with every live \
                         shard blocked"
                        watchdog)
                   (Array.to_list (Array.map row shards)));
            Condition.broadcast mon.cv)
      in
      let poll = Float.max 0.002 (Float.min 0.05 (watchdog /. 5.)) in
      Some (Resilience.Watchdog.start ~poll ~timeout:watchdog ~observe ~trip ())
  in
  let domains = Array.map (fun s -> Domain.spawn (shard_main s)) shards in
  let results =
    Array.map
      (fun d ->
        match Domain.join d with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ()))
      domains
  in
  Option.iter Resilience.Watchdog.stop dog;
  (* Prefer a root-cause failure (e.g. a leaf fault past its retry cap)
     over the consequential Deadlock the survivors raised. *)
  let failures = List.filter_map Fun.id (Array.to_list results) in
  match
    List.find_opt (function Deadlock _, _ -> false | _ -> true) failures, failures
  with
  | Some (e, bt), _ | None, (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | None, [] -> ()

let run_block ?(sched = `Round_robin) ?stats ?fault ?(watchdog = 60.)
    ?checkpoint_sink ?restore ?(trace = Obs.Trace.null) ?(sanitize = false)
    ~source ctx (b : Prog.block) =
  let san =
    if sanitize then Some (Sanitizer.create ~nshards:b.Prog.shards) else None
  in
  let st =
    Obs.Trace.with_span trace ~tid:0 ~cat:"exec" "exec.analyze" (fun () ->
        create_state ?stats ?fault ?ckpt_sink:checkpoint_sink ~trace ?san
          ~pool:true ~source ctx b)
  in
  if Obs.Trace.enabled trace then
    for sid = 0 to b.Prog.shards - 1 do
      Obs.Trace.set_thread_name trace ~tid:(shard_tid sid)
        (Printf.sprintf "shard %d" sid)
    done;
  let master_env = Interp.Run.env ctx in
  (match restore with
  | Some ck ->
      (* Restart: the checkpoint replaces both the initialization copies
         and everything the time loop did up to [ck.iter]. *)
      restore_state st master_env ck
  | None -> Obs.Trace.with_span trace ~tid:0 ~cat:"exec" "exec.init" (fun () -> init st));
  let shards =
    Array.init b.Prog.shards (fun sid ->
        new_shard st ~sid ~restore (Eval.copy master_env))
  in
  (match sched with
  | `Round_robin -> drive_stepper st shards None
  | `Random seed -> drive_stepper st shards (Some (Random.State.make [| seed |]))
  | `Domains -> drive_domains st shards ~watchdog);
  (* Replicated scalar state is identical on all shards; fold it back. *)
  if b.Prog.shards > 0 then
    List.iter (fun (k, v) -> Eval.set master_env k v) (Eval.bindings shards.(0).env);
  Obs.Trace.with_span trace ~tid:0 ~cat:"exec" "exec.finalize" (fun () ->
      finalize st)

let run ?sched ?stats ?fault ?watchdog ?checkpoint_sink ?restore ?trace
    ?sanitize (t : Prog.t) ctx =
  (* A restore resumes the program at its first replicated block: the
     sequential prefix ran before the checkpoint was taken and its effects
     (root instances, scalars) are part of the restored cut. *)
  let restoring = ref (restore <> None) in
  List.iter
    (function
      | Prog.Seq stmts -> if not !restoring then Interp.Run.run_stmts ctx stmts
      | Prog.Replicated b ->
          let restore = if !restoring then restore else None in
          restoring := false;
          run_block ?sched ?stats ?fault ?watchdog ?checkpoint_sink ?restore
            ?trace ?sanitize ~source:t.Prog.source ctx b)
    t.Prog.items
