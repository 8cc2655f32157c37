open Regions
module Prog = Spmd.Prog
module Exec = Spmd.Exec
module Copy_plan = Spmd.Copy_plan
module Intersections = Spmd.Intersections
module Program = Ir.Program
module Eval = Ir.Eval
module Diag = Resilience.Diag

(* ---------- the per-process protocol state ---------- *)

type net = {
  tp : Transport.t;
  chan : Channel.t;
  coll : Collective.t;
  trace : Obs.Trace.t;
  stats : Exec.stats option;
  san : Spmd.Sanitizer.t option;
  mutable snapshots : (int * string) list;
  mutable stats_in : (int * (int * int * int * int)) list;
  mutable byes : int list;
  mutable dead : int list;
}

let make_net ?stats ?(trace = Obs.Trace.null) ?san tp =
  {
    tp;
    chan = Channel.create ();
    coll = Collective.create ~rank:(Transport.rank tp) ~size:(Transport.size tp);
    trace;
    stats;
    san;
    snapshots = [];
    stats_in = [];
    byes = [];
    dead = [];
  }

let transport net = net.tp
let snapshots net = net.snapshots
let stats_frames net = net.stats_in
let byes net = net.byes
let dead_ranks net = net.dead

let send_frame net ~dst frame =
  let b = Wire.encode frame in
  (match net.stats with
  | None -> ()
  | Some s ->
      Atomic.incr s.Exec.msgs_sent;
      ignore
        (Atomic.fetch_and_add s.Exec.bytes_on_wire
           (Bytes.length b + Transport.prefix_bytes)));
  Obs.Trace.instant net.trace
    ~tid:(Exec.shard_tid (Transport.rank net.tp))
    ~cat:"net"
    ~args:
      [
        ("dst", Obs.Trace.Int dst);
        ("kind", Obs.Trace.Str (Wire.kind frame));
        ("bytes", Obs.Trace.Int (Bytes.length b));
      ]
    "net.send";
  Transport.send net.tp ~dst b

let dispatch net frame =
  match frame with
  | Wire.Data { copy_id; epoch; src_color; dst_color; runs; payload; _ } ->
      Channel.on_data net.chan ~cid:copy_id ~i:src_color ~j:dst_color ~epoch
        ~runs ~payload
  | Wire.Credit { copy_id; src_color; dst_color } ->
      Channel.add_credit net.chan ~cid:copy_id ~i:src_color ~j:dst_color
  | Wire.Coll { seq; dir = `Up; values } -> Collective.on_up net.coll ~seq values
  | Wire.Coll { seq; dir = `Down; values } ->
      let r = if Array.length values = 0 then 0. else snd values.(0) in
      Collective.on_down net.coll ~seq r
  | Wire.Final { copy_id; src_color; dst_color; runs; payload; _ } ->
      Channel.on_final net.chan ~cid:copy_id ~i:src_color ~j:dst_color ~runs
        ~payload
  | Wire.Snapshot { rank; blob } -> net.snapshots <- (rank, blob) :: net.snapshots
  | Wire.Stats { rank; msgs; bytes; retries; injected } ->
      net.stats_in <- (rank, (msgs, bytes, retries, injected)) :: net.stats_in
  | Wire.Bye { rank } -> net.byes <- rank :: net.byes

let pump net ~timeout =
  let got = ref false in
  let rec go timeout =
    match Transport.recv net.tp ~timeout with
    | Transport.Timeout -> ()
    | Transport.Closed r ->
        (* Ordered delivery: a graceful peer's [Bye] was dispatched from
           an earlier frame, so EOF-before-Bye means the peer died. *)
        if (not (List.mem r net.byes)) && not (List.mem r net.dead) then
          net.dead <- r :: net.dead;
        go 0.
    | Transport.Msg (src, b) ->
        got := true;
        let frame = Wire.decode b in
        Obs.Trace.instant net.trace
          ~tid:(Exec.shard_tid (Transport.rank net.tp))
          ~cat:"net"
          ~args:
            [
              ("src", Obs.Trace.Int src);
              ("kind", Obs.Trace.Str (Wire.kind frame));
              ("bytes", Obs.Trace.Int (Bytes.length b));
            ]
          "net.recv";
        dispatch net frame;
        go 0.
  in
  go timeout;
  !got

(* ---------- the wire substrate ---------- *)

let part = function
  | Prog.Opart p -> p
  | Prog.Oregion r -> invalid_arg ("Net.Engine: region operand " ^ r)

let drain_coll net seq =
  let acts, result = Collective.poll net.coll ~seq in
  List.iter
    (function
      | Collective.Send_up (p, values) ->
          send_frame net ~dst:p (Wire.Coll { seq; dir = `Up; values })
      | Collective.Send_down (child, r) ->
          send_frame net ~dst:child
            (Wire.Coll { seq; dir = `Down; values = [| (0, r) |] }))
    acts;
  result

(* The shard machine's substrate over messages. A credit is a [Credit]
   frame incrementing the producer-side counter; the queued [Data] frame
   {e is} the raw token, gathered through the memoized plan with its
   destination-relative runs (both sides build instances from the same
   deterministic index spaces, so the offsets are valid in the receiver);
   barriers and collectives run over the rank tree, a barrier being the
   empty allreduce. *)
let wire_sync net st =
  let ch = net.chan in
  {
    Exec.take_credits =
      (fun c owned ->
        let cid = c.Prog.copy_id in
        List.for_all (fun (i, j, _) -> !(Channel.war ch (cid, i, j)) > 0) owned
        && begin
             List.iter (fun (i, j, _) -> decr (Channel.war ch (cid, i, j))) owned;
             true
           end);
    put =
      (fun c (i, j, space) ~release ->
        let cid = c.Prog.copy_id and pd = part c.Prog.dst in
        let src = Exec.instance st (part c.Prog.src) i in
        let plan =
          Exec.copy_plan st ~cid ~i ~j ~space ~fields:c.Prog.fields ~src
            ~dst:(Exec.instance st pd j) ()
        in
        let payload = Copy_plan.gather plan ~src in
        release ();
        send_frame net ~dst:(Exec.owner st pd j)
          (Wire.Data
             {
               copy_id = cid;
               epoch = Channel.next_send_epoch ch ~cid ~i ~j;
               src_color = i;
               dst_color = j;
               fields = List.map Field.name c.Prog.fields;
               runs = Copy_plan.dst_runs plan;
               payload;
             }));
    take =
      (fun c owned ~acquired ->
        let cid = c.Prog.copy_id in
        List.for_all (fun (i, j, _) -> Channel.queued ch ~cid ~i ~j > 0) owned
        && begin
             let popped =
               List.map (fun (i, j, _) -> (j, i, Channel.pop_data ch ~cid ~i ~j)) owned
             in
             acquired ();
             List.iter
               (fun (j, _, (m : Channel.msg)) ->
                 Channel.apply ~reduce:c.Prog.reduce ~fields:c.Prog.fields
                   ~runs:m.Channel.runs ~payload:m.Channel.payload
                   (Exec.instance st (part c.Prog.dst) j))
               (List.sort
                  (fun (j1, i1, _) (j2, i2, _) ->
                    match Int.compare j1 j2 with 0 -> Int.compare i1 i2 | n -> n)
                  popped);
             true
           end);
    grant =
      (fun c owned ->
        List.iter
          (fun (i, j, _) ->
            send_frame net ~dst:(Exec.owner st (part c.Prog.src) i)
              (Wire.Credit { copy_id = c.Prog.copy_id; src_color = i; dst_color = j }))
          owned);
    can_join = (fun _ _ -> true);
    join =
      (fun _ rv values ->
        let op =
          match rv with
          | Exec.Collective { op; _ } -> op
          | Exec.Barrier | Exec.Checkpoint _ -> Privilege.Sum
        in
        Collective.begin_op net.coll ~op ~values);
    poll =
      (fun _ _ seq ->
        let r = drain_coll net seq in
        if r <> None then Collective.finish net.coll ~seq;
        r);
    threaded = false;
    chan =
      (fun ((cid, i, j) as key) -> (!(Channel.war ch key), Channel.queued ch ~cid ~i ~j));
    meet_diag =
      (fun rv joined ->
        match (joined, rv) with
        | None, _ -> Diag.Running
        | Some seq, Exec.Collective { var; _ } ->
            Diag.At_collective
              {
                var;
                arrived = Collective.arrived net.coll ~seq;
                consumed = 0;
                published = Collective.completed net.coll ~seq;
              }
        | Some seq, (Exec.Barrier | Exec.Checkpoint _) ->
            Diag.At_barrier
              { arrived = Collective.arrived net.coll ~seq; generation = seq });
  }

(* ---------- the block engine ---------- *)

type fin = { mutable k : int; mutable sent : bool }
type phase = Body | Finalizing of fin | Complete

type engine = {
  net : net;
  source : Program.t;
  ctx : Interp.Run.context;
  block : Prog.block;
  rank : int;
  st : Exec.state;
  sync : Exec.sync;
  shard : Exec.shard;
  mutable phase : phase;
}

let finished eng = eng.phase = Complete

let root_inst eng rname =
  Interp.Run.region_instance eng.ctx (Program.find_region eng.source rname)

let start_block net ~source ctx (b : Prog.block) =
  if b.Prog.shards <> Transport.size net.tp then
    invalid_arg
      (Printf.sprintf
         "Net.Engine: block compiled for %d shards on a %d-rank transport"
         b.Prog.shards (Transport.size net.tp));
  let rank = Transport.rank net.tp in
  let st =
    Exec.create_state ?stats:net.stats ~trace:net.trace ?san:net.san ~source ctx b
  in
  (* The credit counter lives at the producer: seed it there. A block's
     copy ids are program-unique, so the persistent channel table cannot
     collide across blocks. *)
  List.iter
    (fun (c : Prog.copy) ->
      match (c.Prog.src, c.Prog.dst) with
      | Prog.Opart ps, Prog.Opart _ ->
          let cid = c.Prog.copy_id in
          let credits = Option.value ~default:1 (List.assoc_opt cid b.Prog.credits) in
          List.iter
            (fun (i, j, _) ->
              if Exec.owner st ps i = rank then
                Channel.war net.chan (cid, i, j) := credits)
            (Exec.pairs st cid).Intersections.items
      | _ -> ())
    b.Prog.copies;
  (* Initialization replays locally on every rank (Fig. 4d: sequential,
     deterministic, touching state every rank holds). *)
  Obs.Trace.with_span net.trace ~tid:(Exec.shard_tid rank) ~cat:"exec"
    "net.init" (fun () -> Exec.init st);
  {
    net;
    source;
    ctx;
    block = b;
    rank;
    st;
    sync = wire_sync net st;
    shard = Exec.shard st ~sid:rank (Eval.copy (Interp.Run.env ctx));
    phase = Body;
  }

(* ---------- finalize: fragment broadcast ---------- *)

let broadcast_final eng ~cid ~i ~j ~fields ~src ~dst =
  let plan = Exec.copy_plan eng.st ~cid ~i ~j ~fields ~src ~dst () in
  let runs = Copy_plan.dst_runs plan and payload = Copy_plan.gather plan ~src in
  Channel.on_final eng.net.chan ~cid ~i ~j ~runs ~payload;
  let fields = List.map Field.name fields in
  for r = 0 to Transport.size eng.net.tp - 1 do
    if r <> eng.rank then
      send_frame eng.net ~dst:r
        (Wire.Final
           { copy_id = cid; src_color = i; dst_color = j; fields; runs; payload })
  done

let fin_copy eng k =
  match List.nth eng.block.Prog.finalize k with
  | Prog.Copy c -> c
  | instr ->
      invalid_arg
        (Format.asprintf "Net.Engine: unsupported finalize instruction %a"
           Prog.pp_instr instr)

let expected_fragments eng (c : Prog.copy) =
  match (c.Prog.src, c.Prog.dst) with
  | Prog.Opart ps, Prog.Oregion _ ->
      Partition.color_count (Program.find_partition eng.source ps)
  | Prog.Opart _, Prog.Opart _ ->
      List.length (Exec.pairs eng.st c.Prog.copy_id).Intersections.items
  | (Prog.Oregion _, _) -> 0

let step_finalize eng (f : fin) =
  let nfin = List.length eng.block.Prog.finalize in
  if f.k >= nfin then begin
    (* Replicated scalar state is identical on every rank; fold this
       rank's copy back into its context. *)
    let master_env = Interp.Run.env eng.ctx in
    List.iter
      (fun (k, v) -> Eval.set master_env k v)
      (Eval.bindings (Exec.shard_env eng.shard));
    eng.phase <- Complete;
    `Progress
  end
  else
    let c = fin_copy eng f.k in
    match c.Prog.src with
    | Prog.Oregion _ ->
        (* Root-region source: every rank holds it whole — pure replay. *)
        Exec.master_copy eng.st c;
        f.k <- f.k + 1;
        f.sent <- false;
        `Progress
    | Prog.Opart ps ->
        let cid = c.Prog.copy_id and fields = c.Prog.fields in
        if not f.sent then begin
          f.sent <- true;
          (match c.Prog.dst with
          | Prog.Oregion rd ->
              let p = Program.find_partition eng.source ps in
              let dst = root_inst eng rd in
              List.iter
                (fun i ->
                  broadcast_final eng ~cid ~i ~j:(-1) ~fields
                    ~src:(Exec.instance eng.st ps i) ~dst)
                (Prog.colors_of_shard ~shards:eng.block.Prog.shards
                   ~colors:(Partition.color_count p) eng.rank)
          | Prog.Opart pd ->
              List.iter
                (fun (i, j, _) ->
                  if Exec.owner eng.st ps i = eng.rank then
                    broadcast_final eng ~cid ~i ~j ~fields
                      ~src:(Exec.instance eng.st ps i)
                      ~dst:(Exec.instance eng.st pd j))
                (Exec.pairs eng.st cid).Intersections.items);
          `Progress
        end
        else if Channel.final_count eng.net.chan ~cid < expected_fragments eng c
        then `Blocked
        else begin
          let frags = Channel.take_final eng.net.chan ~cid in
          (* Apply in master-copy order: ascending source color for a root
             destination, intersection-pair order otherwise — every rank
             replays the same sequence, so reductions fold identically. *)
          let order =
            match c.Prog.dst with
            | Prog.Oregion _ -> fun (fr : Channel.fragment) -> fr.Channel.src_color
            | Prog.Opart _ ->
                let tbl = Hashtbl.create 16 in
                List.iteri
                  (fun k (i, j, _) -> Hashtbl.replace tbl (i, j) k)
                  (Exec.pairs eng.st cid).Intersections.items;
                fun (fr : Channel.fragment) -> (
                  match
                    Hashtbl.find_opt tbl (fr.Channel.src_color, fr.Channel.dst_color)
                  with
                  | Some k -> k
                  | None ->
                      raise
                        (Wire.Malformed
                           (Printf.sprintf
                              "finalize copy#%d: fragment (%d, %d) matches no \
                               intersection pair"
                              cid fr.Channel.src_color fr.Channel.dst_color)))
          in
          let sorted =
            List.sort (fun a b -> Int.compare (order a) (order b)) frags
          in
          List.iter
            (fun (fr : Channel.fragment) ->
              let dst =
                match c.Prog.dst with
                | Prog.Oregion rd -> root_inst eng rd
                | Prog.Opart pd -> Exec.instance eng.st pd fr.Channel.dst_color
              in
              Channel.apply ~reduce:c.Prog.reduce ~fields
                ~runs:fr.Channel.fruns ~payload:fr.Channel.fpayload dst)
            sorted;
          f.k <- f.k + 1;
          f.sent <- false;
          `Progress
        end

let step eng =
  match eng.phase with
  | Complete -> `Done
  | Finalizing f -> step_finalize eng f
  | Body -> (
      match Exec.step eng.st eng.sync eng.shard with
      | `Done ->
          eng.phase <- Finalizing { k = 0; sent = false };
          `Progress
      | `Progress | `Stalled -> `Progress
      | `Blocked -> `Blocked)

(* ---------- diagnostics ---------- *)

let diag_shard eng =
  match eng.phase with
  | Complete -> { Diag.sid = eng.rank; instr = None; wait = Diag.Finished }
  | Finalizing f ->
      let label =
        if f.k >= List.length eng.block.Prog.finalize then "finalize: folding"
        else
          let c = fin_copy eng f.k in
          Printf.sprintf "finalize copy#%d (%d/%d fragments)" c.Prog.copy_id
            (Channel.final_count eng.net.chan ~cid:c.Prog.copy_id)
            (expected_fragments eng c)
      in
      { Diag.sid = eng.rank; instr = Some label; wait = Diag.Running }
  | Body -> Exec.shard_diag eng.st eng.sync eng.shard

let diagnose net ~reason engines =
  let reason =
    match net.dead with
    | [] -> reason
    | dead ->
        Printf.sprintf "%s; peers closed before goodbye: %s" reason
          (String.concat ", "
             (List.map string_of_int (List.sort Int.compare dead)))
  in
  {
    Diag.reason;
    shards = List.map diag_shard engines;
    barrier_arrived = 0;
    barrier_generation = 0;
  }

(* ---------- the blocking per-rank driver (socket mode) ---------- *)

let run_rank ?(watchdog = 30.) net (prog : Prog.t) ctx =
  let rank = Transport.rank net.tp in
  if Obs.Trace.enabled net.trace then
    Obs.Trace.set_thread_name net.trace ~tid:(Exec.shard_tid rank)
      (Printf.sprintf "rank %d" rank);
  List.iter
    (function
      | Prog.Seq stmts -> Interp.Run.run_stmts ctx stmts
      | Prog.Replicated b ->
          let eng = start_block net ~source:prog.Prog.source ctx b in
          let last = ref (Unix.gettimeofday ()) in
          let rec drive () =
            if pump net ~timeout:0. then last := Unix.gettimeofday ();
            match step eng with
            | `Done -> ()
            | `Progress ->
                last := Unix.gettimeofday ();
                drive ()
            | `Blocked ->
                if pump net ~timeout:0.005 then last := Unix.gettimeofday ()
                else if
                  watchdog > 0. && Unix.gettimeofday () -. !last > watchdog
                then
                  raise
                    (Exec.Deadlock
                       (diagnose net
                          ~reason:
                            (Printf.sprintf
                               "rank %d: no frame and no progress for %.2fs"
                               rank watchdog)
                          [ eng ]));
                drive ()
          in
          (try drive ()
           with Transport.Peer_down r ->
             raise
               (Exec.Deadlock
                  (diagnose net
                     ~reason:
                       (Printf.sprintf
                          "rank %d unreachable from rank %d (send retries \
                           exhausted)"
                          r rank)
                     [ eng ]))))
    prog.Prog.items
