(* Shared program fixture for the control-replication tests: the paper's
   Fig. 2 example. Random programs come from [Conform.Gen]. *)

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
