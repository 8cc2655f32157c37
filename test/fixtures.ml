(* Shared program fixtures for the control-replication tests: the paper's
   Fig. 2 example and a program with two replicated blocks. Random
   programs come from [Conform.Gen]. *)

open Regions
open Ir
module Syn = Program.Syntax

let fv = Field.make "v"
let fw = Field.make "w"

(* ---------- the Fig. 2 program ---------- *)

(* for t = 0, T do
     for i in I do TF(PB[i], PA[i]) end   -- B[i] = F(A[i])
     for j in I do TG(PA[j], QB[j]) end   -- A[j] = G(B[h(j)])
   end
   with PA, PB block partitions and QB the image of h over PB. *)
let fig2 ?(n = 16) ?(nt = 4) ?(timesteps = 3) () =
  let h e = (e * 3 + 1) mod n in
  let b = Program.Builder.create ~name:"fig2" in
  let ra = Program.Builder.region b ~name:"A" (Index_space.of_range n) [ fv ] in
  let rb = Program.Builder.region b ~name:"B" (Index_space.of_range n) [ fv ] in
  let pa =
    Program.Builder.partition b ~name:"PA" (fun ~name ->
        Partition.block ~name ra ~pieces:nt)
  in
  let _pb =
    Program.Builder.partition b ~name:"PB" (fun ~name ->
        Partition.block ~name rb ~pieces:nt)
  in
  let _qb =
    Program.Builder.partition b ~name:"QB" (fun ~name ->
        (* The set read by TG on color j is { h(e) | e in PA[j] }. *)
        Partition.image ~name ~target:rb ~src:pa (fun e -> [ h e ]))
  in
  Program.Builder.space b ~name:"I" nt;
  let tf =
    Task.make ~name:"TF"
      ~params:
        [
          { Task.pname = "Bsub"; privs = [ Privilege.writes fv ] };
          { Task.pname = "Asub"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        let bs = accs.(0) and as_ = accs.(1) in
        Accessor.iter bs (fun id ->
            Accessor.set bs fv id ((Accessor.get as_ fv id *. 1.5) +. 2.));
        0.)
  in
  let tg =
    Task.make ~name:"TG"
      ~params:
        [
          { Task.pname = "Asub"; privs = [ Privilege.writes fv ] };
          { Task.pname = "Bhalo"; privs = [ Privilege.reads fv ] };
        ]
      (fun accs _ ->
        let as_ = accs.(0) and bh = accs.(1) in
        Accessor.iter as_ (fun id ->
            Accessor.set as_ fv id ((Accessor.get bh fv (h id) *. 0.8) -. 1.));
        0.)
  in
  let init_a =
    Task.make ~name:"initA"
      ~params:[ { Task.pname = "A"; privs = [ Privilege.writes fv ] } ]
      (fun accs _ ->
        Accessor.iter accs.(0) (fun id ->
            Accessor.set accs.(0) fv id ((float_of_int id *. 0.5) +. 1.));
        0.)
  in
  Program.Builder.task b tf;
  Program.Builder.task b tg;
  Program.Builder.task b init_a;
  Program.Builder.body b
    [
      Syn.run (Syn.call "initA" [ Syn.whole "A" ]);
      Syn.for_time "t" timesteps
        [
          Syn.forall "I" (Syn.call "TF" [ Syn.part "PB"; Syn.part "PA" ]);
          Syn.forall "I" (Syn.call "TG" [ Syn.part "PA"; Syn.part "QB" ]);
        ];
    ];
  Program.Builder.finish b

(* ---------- two replicated blocks ---------- *)

(* Two separate time loops with a sequential statement between them: the
   statement reads R1, which the first block's finalize wrote back, into
   R2, which the second block's initialization reads. *)
let two_blocks () =
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
