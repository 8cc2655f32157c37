open Regions

type msg = { epoch : int; runs : (int * int) array; payload : float array }

type t = {
  war : (int * int * int, int ref) Hashtbl.t;
  data : (int * int * int, msg Queue.t) Hashtbl.t;
  send_epoch : (int * int * int, int ref) Hashtbl.t;
  recv_epoch : (int * int * int, int ref) Hashtbl.t;
}

let create () =
  {
    war = Hashtbl.create 64;
    data = Hashtbl.create 64;
    send_epoch = Hashtbl.create 64;
    recv_epoch = Hashtbl.create 64;
  }

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl key r;
      r

let war t key = cell t.war key
let add_credit t ~cid ~i ~j = incr (cell t.war (cid, i, j))

let next_send_epoch t ~cid ~i ~j =
  let r = cell t.send_epoch (cid, i, j) in
  let e = !r in
  incr r;
  e

let queue t key =
  match Hashtbl.find_opt t.data key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.data key q;
      q

let on_data t ~cid ~i ~j ~epoch ~runs ~payload =
  let expected = cell t.recv_epoch (cid, i, j) in
  if epoch <> !expected then
    raise
      (Wire.Malformed
         (Printf.sprintf "copy#%d (%d->%d): epoch %d, expected %d" cid i j
            epoch !expected));
  incr expected;
  Queue.push { epoch; runs; payload } (queue t (cid, i, j))

let queued t ~cid ~i ~j =
  match Hashtbl.find_opt t.data (cid, i, j) with
  | Some q -> Queue.length q
  | None -> 0

let pop_data t ~cid ~i ~j =
  match Queue.take_opt (queue t (cid, i, j)) with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Net.Channel.pop_data: copy#%d (%d->%d) empty" cid i j)

let apply ~reduce ~fields ~runs ~payload dst =
  let volume = Array.fold_left (fun acc (_, len) -> acc + len) 0 runs in
  let nfields = List.length fields in
  if Array.length payload <> volume * nfields then
    raise
      (Wire.Malformed
         (Printf.sprintf "payload of %d floats for %d runs x %d fields (%d)"
            (Array.length payload) (Array.length runs) nfields
            (volume * nfields)));
  List.iteri
    (fun fi f ->
      let col = Physical.column dst f in
      let ncol = Array.length col in
      let pos = ref (fi * volume) in
      Array.iter
        (fun (off, len) ->
          if off < 0 || len < 0 || off + len > ncol then
            raise
              (Wire.Malformed
                 (Printf.sprintf "run (%d, %d) outside a %d-element column"
                    off len ncol));
          (match reduce with
          | None -> Array.blit payload !pos col off len
          | Some op ->
              let p = !pos in
              for k = 0 to len - 1 do
                col.(off + k) <-
                  Privilege.apply_redop op col.(off + k) payload.(p + k)
              done);
          pos := !pos + len)
        runs)
    fields
