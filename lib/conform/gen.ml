(* Spec generation and elaboration.

   The generator only ever emits programs inside the replicable fragment
   (modulo the deliberate [loop_if] escape hatch): every partition has
   exactly [nt] colors, writes and region-reduction targets use identity
   projections, write targets are disjoint partitions, and the two region
   arguments of any one launch touch different fields — with two fields
   per region that is enough to rule out intra-launch conflicts without
   consulting the alias analysis. Kernels bound every intermediate value
   (contractive writers, decaying scalar updates, at most three time
   steps), so no run ever produces an infinity or a NaN and bitwise
   comparison of final state is meaningful. *)

open Geometry
open Regions
open Ir
module Syn = Program.Syntax

let fv = Field.make "v"
let fw = Field.make "w"
let field_of = function "w" -> fw | _ -> fv
let other_field = function "w" -> "v" | _ -> "w"

(* ---------- spec generation ---------- *)

let spec ?(max_tasks = 8) seed =
  let st = Random.State.make [| 0xC04F02; seed |] in
  let int n = Random.State.int st n in
  let nt = 2 + int 4 in
  let steps = 1 + int 3 in
  let nregions = 1 + int 2 in
  let mk_space () =
    match int 3 with
    | 0 -> Spec.Dense (8 + int 17)
    | 1 ->
        let period = 2 + int 4 in
        let keep = 1 + int (period - 1) in
        Spec.Sparse { universe = 20 + int 29; period; keep }
    | _ -> Spec.Grid { nx = 3 + int 4; ny = 3 + int 4 }
  and names = [ "Ra"; "Rb" ] in
  let regions =
    List.map (fun rn -> (rn, mk_space ())) (List.filteri (fun i _ -> i < nregions) names)
  in
  let uni_of rn = Spec.space_size (List.assoc rn regions) in
  let structured rn =
    match List.assoc rn regions with Spec.Grid _ -> true | _ -> false
  in
  (* Base (disjoint) partitions: one block per region, sometimes a second
     identical block (two disjoint partitions of the same data still
     may-alias, so copies run between fully overlapping replicas), and
     sometimes a grid tiling or a modular coloring. *)
  let base = ref [] in
  List.iter
    (fun (rn, sp) ->
      base := { Spec.pname = "Pb" ^ rn; preg = rn; pspec = Spec.Pblock } :: !base;
      if int 3 = 0 then
        base := { Spec.pname = "Pd" ^ rn; preg = rn; pspec = Spec.Pblock } :: !base;
      if int 2 = 0 then begin
        let extra =
          if structured rn then begin
            let nx, ny =
              match sp with Spec.Grid { nx; ny } -> (nx, ny) | _ -> assert false
            in
            let grids =
              List.filter
                (fun (gx, gy) -> gx * gy = nt && gx <= nx && gy <= ny)
                [ (1, nt); (nt, 1); (2, 2) ]
            in
            match grids with
            | [] -> Spec.Pcolor { mul = 1 + int 6; add = int nt }
            | gs ->
                let gx, gy = List.nth gs (int (List.length gs)) in
                Spec.Pgrid { gx; gy }
          end
          else Spec.Pcolor { mul = 1 + int 6; add = int nt }
        in
        base := { Spec.pname = "Pc" ^ rn; preg = rn; pspec = extra } :: !base
      end)
    regions;
  let base = List.rev !base in
  let pick l = List.nth l (int (List.length l)) in
  (* Ghost (aliased) partitions: images / halos over the base partitions. *)
  let ghosts =
    List.concat_map
      (fun (rn, _) ->
        if int 4 = 0 then []
        else if structured rn then
          let srcs =
            List.filter (fun (p : Spec.pdecl) -> p.preg = rn) base
          in
          [ { Spec.pname = "Q" ^ rn; preg = rn;
              pspec = Spec.Phalo { src = (pick srcs).Spec.pname } } ]
        else
          let uni = uni_of rn in
          [ { Spec.pname = "Q" ^ rn; preg = rn;
              pspec =
                Spec.Pimage
                  { src = (pick base).Spec.pname;
                    mul = 1 + int (uni - 1);
                    add = int uni;
                    width = 1 + int 2 } } ])
      regions
  in
  let parts = base @ ghosts in
  let disjoint_parts =
    List.filter
      (fun (p : Spec.pdecl) ->
        match p.pspec with
        | Spec.Pblock | Spec.Pgrid _ | Spec.Pcolor _ -> true
        | _ -> false)
      parts
  in
  let region_of pn =
    (List.find (fun (p : Spec.pdecl) -> p.pname = pn) parts).Spec.preg
  in
  let pick_proj () =
    if nt > 1 && int 3 = 0 then Spec.PRot (1 + int (nt - 1)) else Spec.PId
  in
  let pick_field () = if int 2 = 0 then "v" else "w" in
  let nstmts = 2 + int 3 in
  let tasks = ref [] in
  let stmts =
    List.init nstmts (fun k ->
        let tname = Printf.sprintf "t%d" k in
        match int 6 with
        | 0 | 1 ->
            let out = (pick disjoint_parts).Spec.pname in
            let inp = (pick parts).Spec.pname in
            let wf = pick_field () in
            tasks :=
              { Spec.tname;
                kind =
                  Spec.KWriter
                    { wf; rf = other_field wf; mul = 1 + int 7; add = int 11;
                      modn = uni_of (region_of inp) } }
              :: !tasks;
            Spec.SForall { task = tname; out; inp; inp_proj = pick_proj () }
        | 2 ->
            let out = (pick disjoint_parts).Spec.pname in
            let inp = (pick parts).Spec.pname in
            let wf = pick_field () in
            tasks :=
              { Spec.tname; kind = Spec.KStencil { wf; rf = other_field wf } }
              :: !tasks;
            Spec.SForall { task = tname; out; inp; inp_proj = pick_proj () }
        | 3 ->
            let dst = (pick parts).Spec.pname in
            let src = (pick parts).Spec.pname in
            let df = pick_field () in
            let op =
              match int 3 with
              | 0 -> Privilege.Sum
              | 1 -> Privilege.Min
              | _ -> Privilege.Max
            in
            tasks :=
              { Spec.tname;
                kind = Spec.KReduce { op; df; sf = other_field df } }
              :: !tasks;
            Spec.SReduceRegion
              { task = tname; dst; src; src_proj = pick_proj () }
        | 4 ->
            let arg = (pick parts).Spec.pname in
            let op =
              match int 3 with
              | 0 -> Privilege.Min
              | 1 -> Privilege.Max
              | _ -> Privilege.Sum
            in
            tasks :=
              { Spec.tname; kind = Spec.KScalarRed { op; rf = pick_field () } }
              :: !tasks;
            Spec.SScalarRed { task = tname; arg; arg_proj = pick_proj () }
        | _ ->
            (* Literal tables, not arithmetic: every value here has a short
               decimal form, so specs survive the repro file's %.12g. *)
            let mulcs = [| 0.5; 0.55; 0.6; 0.65; 0.7; 0.75; 0.8; 0.85 |] in
            let addcs = [| 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.07 |] in
            Spec.SAssign
              { mulc = mulcs.(int (Array.length mulcs));
                addc = addcs.(int (Array.length addcs)) })
  in
  (* Cap the number of task launches, turning the excess into assigns. *)
  let launches = ref 0 in
  let body =
    List.map
      (fun s ->
        match s with
        | Spec.SAssign _ -> s
        | _ ->
            incr launches;
            if !launches <= max_tasks then s
            else Spec.SAssign { mulc = 0.9; addc = 0.01 })
      stmts
  in
  let used t = List.exists (fun (s : Spec.stmt_spec) ->
      match s with
      | Spec.SForall { task; _ } | Spec.SReduceRegion { task; _ }
      | Spec.SScalarRed { task; _ } -> task = t
      | Spec.SAssign _ -> false)
      body
  in
  let tasks = List.filter (fun (t : Spec.tdecl) -> used t.Spec.tname)
      (List.rev !tasks)
  in
  {
    Spec.name = Printf.sprintf "conform%d" seed;
    nt;
    steps;
    regions;
    parts;
    tasks;
    body;
    seq_if = int 4 = 0;
    loop_if = int 8 = 0;
    tail_assign = int 3 = 0;
  }

(* ---------- elaboration ---------- *)

let universe_size sp =
  match Index_space.universe sp with
  | Index_space.Structured r -> Rect.volume r
  | Index_space.Unstructured n -> n

let mk_space = function
  | Spec.Dense n -> Index_space.of_range n
  | Spec.Sparse { universe; period; keep } ->
      let elems =
        List.filter
          (fun e -> e mod period < keep)
          (List.init universe (fun i -> i))
      in
      Index_space.of_iset ~universe_size:universe (Sorted_iset.of_list elems)
  | Spec.Grid { nx; ny } ->
      Index_space.of_rect (Rect.make2 ~lo:(0, 0) ~hi:(nx - 1, ny - 1))

let mk_task (td : Spec.tdecl) =
  match td.Spec.kind with
  | Spec.KWriter { wf; rf; mul; add; modn } ->
      let wf = field_of wf and rf = field_of rf in
      Task.make ~name:td.Spec.tname
        ~params:
          [
            { Task.pname = "out"; privs = [ Privilege.writes wf ] };
            { Task.pname = "inp"; privs = [ Privilege.reads rf ] };
          ]
        ~nscalars:1
        (fun accs sargs ->
          let out = accs.(0) and inp = accs.(1) in
          let u = universe_size (Accessor.space inp) in
          Accessor.iter out (fun id ->
              let src = ((id * mul) + add) mod modn in
              let x =
                if src < u && Accessor.mem inp src then Accessor.get inp rf src
                else 0.
              in
              Accessor.set out wf id
                ((Accessor.get out wf id *. 0.5) +. (x *. 0.25)
                +. (sargs.(0) *. 0.125)));
          0.)
  | Spec.KStencil { wf; rf } ->
      let wf = field_of wf and rf = field_of rf in
      Task.make ~name:td.Spec.tname
        ~params:
          [
            { Task.pname = "out"; privs = [ Privilege.writes wf ] };
            { Task.pname = "inp"; privs = [ Privilege.reads rf ] };
          ]
        ~nscalars:1
        (fun accs sargs ->
          let out = accs.(0) and inp = accs.(1) in
          let u = universe_size (Accessor.space inp) in
          Accessor.iter out (fun id ->
              let nb d =
                let j = id + d in
                if j >= 0 && j < u && Accessor.mem inp j then
                  Accessor.get inp rf j
                else 0.
              in
              let s = nb (-1) +. nb 0 +. nb 1 in
              Accessor.set out wf id
                ((Accessor.get out wf id *. 0.4) +. (s *. 0.15)
                +. (sargs.(0) *. 0.1)));
          0.)
  | Spec.KReduce { op; df; sf } ->
      let df = field_of df and sf = field_of sf in
      Task.make ~name:td.Spec.tname
        ~params:
          [
            { Task.pname = "dst"; privs = [ Privilege.reduces op df ] };
            { Task.pname = "src"; privs = [ Privilege.reads sf ] };
          ]
        (fun accs _ ->
          let dst = accs.(0) and src = accs.(1) in
          let base =
            Index_space.fold_ids
              (fun acc j -> acc +. (Accessor.get src sf j *. 0.001))
              0. (Accessor.space src)
          in
          Accessor.iter dst (fun id ->
              Accessor.reduce dst df id
                (base +. (float_of_int id *. 0.01)));
          0.)
  | Spec.KScalarRed { op; rf } ->
      let rf = field_of rf in
      Task.make ~name:td.Spec.tname
        ~params:[ { Task.pname = "x"; privs = [ Privilege.reads rf ] } ]
        (fun accs _ ->
          Index_space.fold_ids
            (fun acc j ->
              Privilege.apply_redop op acc
                (1. +. (0.25 *. Float.abs (Accessor.get accs.(0) rf j))))
            (Privilege.identity_of op)
            (Accessor.space accs.(0)))

let setup_task =
  Task.make ~name:"setup"
    ~params:
      [
        { Task.pname = "r";
          privs = [ Privilege.writes fv; Privilege.writes fw ] };
      ]
    (fun accs _ ->
      Accessor.iter accs.(0) (fun id ->
          Accessor.set accs.(0) fv id (float_of_int ((id * 7) mod 5) +. 0.5);
          Accessor.set accs.(0) fw id (float_of_int ((id * 3) mod 4) -. 1.));
      0.)

let build (s : Spec.t) =
  let b = Program.Builder.create ~name:s.Spec.name in
  let regions =
    List.map
      (fun (rn, sp) ->
        (rn, Program.Builder.region b ~name:rn (mk_space sp) [ fv; fw ]))
      s.Spec.regions
  in
  let find_reg rn = List.assoc rn regions in
  let uni_of rn = Spec.space_size (List.assoc rn s.Spec.regions) in
  Program.Builder.space b ~name:"I" s.Spec.nt;
  Program.Builder.scalar b ~name:"dt" 1.0;
  let built = Hashtbl.create 8 in
  List.iter
    (fun (pd : Spec.pdecl) ->
      let r = find_reg pd.Spec.preg in
      let p =
        Program.Builder.partition b ~name:pd.Spec.pname (fun ~name ->
            match pd.Spec.pspec with
            | Spec.Pblock -> Partition.block ~name r ~pieces:s.Spec.nt
            | Spec.Pgrid { gx; gy } ->
                Partition.block_grid ~name r ~grid:[| gx; gy |]
            | Spec.Pcolor { mul; add } ->
                Partition.of_coloring ~name r ~colors:s.Spec.nt (fun e ->
                    ((e * mul) + add) mod s.Spec.nt)
            | Spec.Pimage { src; mul; add; width } ->
                let srcp = Hashtbl.find built src in
                let uni = uni_of pd.Spec.preg in
                Partition.image ~name ~target:r ~src:srcp (fun e ->
                    List.init width (fun k -> ((e * mul) + add + k) mod uni))
            | Spec.Phalo { src } ->
                let srcp = Hashtbl.find built src in
                Partition.image_rects ~name ~target:r ~src:srcp (fun rc ->
                    [
                      Rect.make
                        (Array.map (fun c -> c - 1) rc.Rect.lo)
                        (Array.map (fun c -> c + 1) rc.Rect.hi);
                    ]))
      in
      Hashtbl.add built pd.Spec.pname p)
    s.Spec.parts;
  List.iter (fun td -> Program.Builder.task b (mk_task td)) s.Spec.tasks;
  Program.Builder.task b setup_task;
  let op_of_task tn =
    match
      (List.find (fun (t : Spec.tdecl) -> t.Spec.tname = tn) s.Spec.tasks)
        .Spec.kind
    with
    | Spec.KScalarRed { op; _ } -> op
    | _ -> invalid_arg ("Gen.build: " ^ tn ^ " is not a scalar reduction")
  in
  let rot k i = (i + k) mod s.Spec.nt in
  let parg pn = function
    | Spec.PId -> Syn.part pn
    | Spec.PRot k -> Syn.part_fn pn (Printf.sprintf "rot%d" k) (rot k)
  in
  let stmt_of = function
    | Spec.SForall { task; out; inp; inp_proj } ->
        Syn.forall "I"
          (Syn.call task
             ~scalars:[ Syn.sv "dt" ]
             [ Syn.part out; parg inp inp_proj ])
    | Spec.SReduceRegion { task; dst; src; src_proj } ->
        Syn.forall "I" (Syn.call task [ Syn.part dst; parg src src_proj ])
    | Spec.SScalarRed { task; arg; arg_proj } ->
        Syn.forall_reduce "I"
          (Syn.call task [ parg arg arg_proj ])
          ~into:"dt" (op_of_task task)
    | Spec.SAssign { mulc; addc } ->
        Syn.assign "dt" Syn.((sv "dt" *. !.mulc) +. !.addc)
  in
  let loop_body0 = List.map stmt_of s.Spec.body in
  let loop_body =
    if s.Spec.loop_if then
      match List.rev loop_body0 with
      | last :: rest_rev ->
          List.rev rest_rev
          @ [
              Types.If
                {
                  test =
                    { Types.cmp = Types.Ge; lhs = Syn.sv "dt"; rhs = Syn.( !. ) 0. };
                  then_ = [ last ];
                  else_ = [ Syn.assign "dt" Syn.(sv "dt" *. !.0.5) ];
                };
            ]
      | [] -> loop_body0
    else loop_body0
  in
  let prologue =
    List.map
      (fun (rn, _) -> Syn.run (Syn.call "setup" [ Syn.whole rn ]))
      s.Spec.regions
    @
    if s.Spec.seq_if then
      [
        Types.If
          {
            test =
              { Types.cmp = Types.Lt; lhs = Syn.sv "dt"; rhs = Syn.( !. ) 10. };
            then_ = [ Syn.assign "dt" Syn.(sv "dt" *. !.1.5) ];
            else_ = [ Syn.assign "dt" Syn.(sv "dt" *. !.0.5) ];
          };
      ]
    else []
  in
  let epilogue =
    if s.Spec.tail_assign then
      [ Syn.assign "dt" Syn.((sv "dt" *. !.0.5) +. !.0.25) ]
    else []
  in
  Program.Builder.body b
    (prologue @ [ Syn.for_time "t" s.Spec.steps loop_body ] @ epilogue);
  Program.Builder.finish b

let program ?max_tasks seed = build (spec ?max_tasks seed)

(* ---------- random index-space pairs (shared universe) ---------- *)

let random_space_pair st =
  let int n = Random.State.int st n in
  if Random.State.bool st then begin
    (* Unstructured: two random sparse id sets in one universe. *)
    let uni = 50 + int 150 in
    let sparse () =
      let p = 0.1 +. Random.State.float st 0.8 in
      let elems =
        List.filter
          (fun _ -> Random.State.float st 1.0 < p)
          (List.init uni (fun i -> i))
      in
      Index_space.of_iset ~universe_size:uni (Sorted_iset.of_list elems)
    in
    (sparse (), sparse ())
  end
  else begin
    (* Structured: unions of random subrectangles of one universe rect. *)
    let w = 4 + int 12 and h = 4 + int 12 in
    let universe = Rect.make2 ~lo:(0, 0) ~hi:(w - 1, h - 1) in
    let subrect () =
      let x0 = int w and y0 = int h in
      let x1 = x0 + int (w - x0) and y1 = y0 + int (h - y0) in
      Rect.make2 ~lo:(x0, y0) ~hi:(x1, y1)
    in
    let rects () = List.init (1 + int 3) (fun _ -> subrect ()) in
    ( Index_space.of_rects ~universe (rects ()),
      Index_space.of_rects ~universe (rects ()) )
  end
