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
  finals : (int * int, string list * float array) Hashtbl.t;
      (* (copy id, color) -> a received finalize instance, held until the
         block's exchange completes (it may arrive before the block
         starts here) *)
  mutable stats_in : (int * (int * int * int * string)) list;
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
    finals = Hashtbl.create 16;
    stats_in = [];
    byes = [];
    dead = [];
  }

let transport net = net.tp
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
  | Wire.Final { copy_id; src_color; fields; payload } ->
      Hashtbl.replace net.finals (copy_id, src_color) (fields, payload)
  | Wire.Stats { rank; msgs; bytes; retries; digest } ->
      net.stats_in <- (rank, (msgs, bytes, retries, digest)) :: net.stats_in
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

(* One owned-or-received instance the finalize reads: color [color] of
   finalize copy [cid]'s source partition, owned by rank [from]. *)
type source = {
  cid : int;
  part : string;
  color : int;
  fields : Field.t list;
  from : int;
}

type phase = Body | Exchange | Complete

type engine = {
  net : net;
  ctx : Interp.Run.context;
  rank : int;
  st : Exec.state;
  sync : Exec.sync;
  shard : Exec.shard;
  sources : source list;
  mutable sent : bool;
  mutable phase : phase;
}

let finished eng = eng.phase = Complete

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
  let sources =
    List.concat_map
      (function
        | Prog.Copy ({ Prog.src = Prog.Opart ps; _ } as c) ->
            let p = Program.find_partition source ps in
            List.init (Partition.color_count p) (fun color ->
                {
                  cid = c.Prog.copy_id;
                  part = ps;
                  color;
                  fields = c.Prog.fields;
                  from = Exec.owner st ps color;
                })
        | _ -> [])
      b.Prog.finalize
  in
  (* Initialization replays locally on every rank (Fig. 4d: sequential,
     deterministic, touching state every rank holds). *)
  Obs.Trace.with_span net.trace ~tid:(Exec.shard_tid rank) ~cat:"exec"
    "net.init" (fun () -> Exec.init st);
  {
    net;
    ctx;
    rank;
    st;
    sync = wire_sync net st;
    shard = Exec.shard st ~sid:rank (Eval.copy (Interp.Run.env ctx));
    sources;
    sent = false;
    phase = Body;
  }

(* ---------- finalize: rank-ordered instance exchange ---------- *)

(* The finalize copies read every color of their sources, but after the
   body a rank holds only its own colors current. So each rank sends the
   instances it owns to every other rank, then runs the shared sequential
   finalize ({!Exec.finalize}) on complete state — every rank replays the
   same copies in the same order and ends with the same roots. Rank r
   sends once it holds every lower rank's instances: a rank that sends to
   a lower one has all of that rank's frames, so no two ranks ever block
   writing to each other. *)
let arrived eng s = s.from = eng.rank || Hashtbl.mem eng.net.finals (s.cid, s.color)

let send_owned eng =
  List.iter
    (fun s ->
      if s.from = eng.rank then begin
        let inst = Exec.instance eng.st s.part s.color in
        let frame =
          Wire.Final
            {
              copy_id = s.cid;
              src_color = s.color;
              fields = List.map Field.name s.fields;
              payload = Array.concat (List.map (Physical.column inst) s.fields);
            }
        in
        for r = 0 to Transport.size eng.net.tp - 1 do
          if r <> eng.rank then send_frame eng.net ~dst:r frame
        done
      end)
    eng.sources

let blit_received eng s =
  let fields, payload = Hashtbl.find eng.net.finals (s.cid, s.color) in
  Hashtbl.remove eng.net.finals (s.cid, s.color);
  if fields <> List.map Field.name s.fields then
    raise
      (Wire.Malformed
         (Printf.sprintf "finalize copy#%d[%d]: fields %s" s.cid s.color
            (String.concat "," fields)));
  let inst = Exec.instance eng.st s.part s.color in
  Channel.apply ~reduce:None ~fields:s.fields
    ~runs:[| (0, Physical.cardinal inst) |]
    ~payload inst

let step_exchange eng =
  if not eng.sent then
    if List.for_all (fun s -> s.from > eng.rank || arrived eng s) eng.sources
    then begin
      send_owned eng;
      eng.sent <- true;
      `Progress
    end
    else `Blocked
  else if List.for_all (arrived eng) eng.sources then begin
    List.iter (fun s -> if s.from <> eng.rank then blit_received eng s) eng.sources;
    Exec.finalize eng.st;
    (* Replicated scalar state is identical on every rank; fold this
       rank's copy back into its context. *)
    let master_env = Interp.Run.env eng.ctx in
    List.iter
      (fun (k, v) -> Eval.set master_env k v)
      (Eval.bindings (Exec.shard_env eng.shard));
    eng.phase <- Complete;
    `Progress
  end
  else `Blocked

let step eng =
  match eng.phase with
  | Complete -> `Done
  | Exchange -> step_exchange eng
  | Body -> (
      match Exec.step eng.st eng.sync eng.shard with
      | `Done ->
          eng.phase <- Exchange;
          `Progress
      | `Progress | `Stalled -> `Progress
      | `Blocked -> `Blocked)

(* ---------- diagnostics ---------- *)

let diag_shard eng =
  match eng.phase with
  | Complete -> { Diag.sid = eng.rank; instr = None; wait = Diag.Finished }
  | Exchange ->
      let label =
        Printf.sprintf "finalize exchange (%s; %d/%d instances held)"
          (if eng.sent then "sent" else "waiting on lower ranks")
          (List.length (List.filter (arrived eng) eng.sources))
          (List.length eng.sources)
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
