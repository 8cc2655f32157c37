type frame =
  | Data of {
      copy_id : int;
      epoch : int;
      src_color : int;
      dst_color : int;
      fields : string list;
      runs : (int * int) array;
      payload : float array;
    }
  | Credit of { copy_id : int; src_color : int; dst_color : int }
  | Coll of { seq : int; dir : [ `Up | `Down ]; values : (int * float) array }
  | Final of {
      copy_id : int;
      src_color : int;
      fields : string list;
      payload : float array;
    }
  | Stats of {
      rank : int;
      msgs : int;
      bytes : int;
      retries : int;
      digest : string;
    }
  | Bye of { rank : int }

exception Malformed of string

let () =
  Printexc.register_printer (function
    | Malformed msg -> Some ("Net.Wire.Malformed: " ^ msg)
    | _ -> None)

let version = 2

let tag = function
  | Data _ -> 1
  | Credit _ -> 2
  | Coll _ -> 3
  | Final _ -> 4
  | Stats _ -> 5
  | Bye _ -> 6

let kind = function
  | Data _ -> "data"
  | Credit _ -> "credit"
  | Coll { dir = `Up; _ } -> "coll.up"
  | Coll { dir = `Down; _ } -> "coll.down"
  | Final _ -> "final"
  | Stats _ -> "stats"
  | Bye _ -> "bye"

(* ---------- encoding ---------- *)

let add_int b v = Buffer.add_int64_le b (Int64.of_int v)
let add_float b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_fields b fields =
  add_int b (List.length fields);
  List.iter (add_string b) fields

let add_runs b runs =
  add_int b (Array.length runs);
  Array.iter
    (fun (off, len) ->
      add_int b off;
      add_int b len)
    runs

let add_payload b payload =
  add_int b (Array.length payload);
  Array.iter (add_float b) payload

let encode frame =
  let b = Buffer.create 64 in
  Buffer.add_uint8 b version;
  Buffer.add_uint8 b (tag frame);
  (match frame with
  | Data { copy_id; epoch; src_color; dst_color; fields; runs; payload } ->
      add_int b copy_id;
      add_int b epoch;
      add_int b src_color;
      add_int b dst_color;
      add_fields b fields;
      add_runs b runs;
      add_payload b payload
  | Credit { copy_id; src_color; dst_color } ->
      add_int b copy_id;
      add_int b src_color;
      add_int b dst_color
  | Coll { seq; dir; values } ->
      add_int b seq;
      Buffer.add_uint8 b (match dir with `Up -> 0 | `Down -> 1);
      add_int b (Array.length values);
      Array.iter
        (fun (c, v) ->
          add_int b c;
          add_float b v)
        values
  | Final { copy_id; src_color; fields; payload } ->
      add_int b copy_id;
      add_int b src_color;
      add_fields b fields;
      add_payload b payload
  | Stats { rank; msgs; bytes; retries; digest } ->
      add_int b rank;
      add_int b msgs;
      add_int b bytes;
      add_int b retries;
      add_string b digest
  | Bye { rank } -> add_int b rank);
  Buffer.to_bytes b

(* ---------- decoding ---------- *)

type cursor = { buf : Bytes.t; mutable pos : int }

let need cur n what =
  if cur.pos + n > Bytes.length cur.buf then
    raise
      (Malformed
         (Printf.sprintf "truncated %s at byte %d (need %d of %d)" what
            cur.pos n (Bytes.length cur.buf)))

let read_u8 cur what =
  need cur 1 what;
  let v = Bytes.get_uint8 cur.buf cur.pos in
  cur.pos <- cur.pos + 1;
  v

let read_int cur what =
  need cur 8 what;
  let v = Int64.to_int (Bytes.get_int64_le cur.buf cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let read_float cur what =
  need cur 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_le cur.buf cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let read_count cur what =
  let n = read_int cur what in
  if n < 0 || n > Bytes.length cur.buf then
    raise (Malformed (Printf.sprintf "bad %s count %d" what n));
  n

let read_string cur what =
  let n = read_int cur what in
  if n < 0 then raise (Malformed (Printf.sprintf "negative %s length" what));
  need cur n what;
  let s = Bytes.sub_string cur.buf cur.pos n in
  cur.pos <- cur.pos + n;
  s

let read_fields cur =
  let n = read_count cur "field" in
  List.init n (fun _ -> read_string cur "field name")

let read_runs cur =
  let n = read_count cur "run" in
  Array.init n (fun _ ->
      let off = read_int cur "run offset" in
      let len = read_int cur "run length" in
      if off < 0 || len < 0 then
        raise (Malformed (Printf.sprintf "negative run (%d, %d)" off len));
      (off, len))

let read_payload cur =
  let n = read_int cur "payload" in
  if n < 0 || n * 8 > Bytes.length cur.buf then
    raise (Malformed (Printf.sprintf "bad payload count %d" n));
  Array.init n (fun _ -> read_float cur "payload")

let decode buf =
  let cur = { buf; pos = 0 } in
  let v = read_u8 cur "version" in
  if v <> version then
    raise (Malformed (Printf.sprintf "version %d, expected %d" v version));
  let t = read_u8 cur "tag" in
  let frame =
    match t with
    | 1 ->
        let copy_id = read_int cur "copy_id" in
        let epoch = read_int cur "epoch" in
        let src_color = read_int cur "src_color" in
        let dst_color = read_int cur "dst_color" in
        let fields = read_fields cur in
        let runs = read_runs cur in
        let payload = read_payload cur in
        Data { copy_id; epoch; src_color; dst_color; fields; runs; payload }
    | 2 ->
        let copy_id = read_int cur "copy_id" in
        let src_color = read_int cur "src_color" in
        let dst_color = read_int cur "dst_color" in
        Credit { copy_id; src_color; dst_color }
    | 3 ->
        let seq = read_int cur "seq" in
        let dir =
          match read_u8 cur "dir" with
          | 0 -> `Up
          | 1 -> `Down
          | d -> raise (Malformed (Printf.sprintf "bad collective dir %d" d))
        in
        let n = read_count cur "value" in
        let values =
          Array.init n (fun _ ->
              let c = read_int cur "color" in
              let v = read_float cur "value" in
              (c, v))
        in
        Coll { seq; dir; values }
    | 4 ->
        let copy_id = read_int cur "copy_id" in
        let src_color = read_int cur "src_color" in
        let fields = read_fields cur in
        let payload = read_payload cur in
        Final { copy_id; src_color; fields; payload }
    | 5 ->
        let rank = read_int cur "rank" in
        let msgs = read_int cur "msgs" in
        let bytes = read_int cur "bytes" in
        let retries = read_int cur "retries" in
        let digest = read_string cur "digest" in
        if String.length digest <> 16 then
          raise
            (Malformed
               (Printf.sprintf "digest of %d bytes, expected 16"
                  (String.length digest)));
        Stats { rank; msgs; bytes; retries; digest }
    | 6 -> Bye { rank = read_int cur "rank" }
    | t -> raise (Malformed (Printf.sprintf "unknown frame tag %d" t))
  in
  if cur.pos <> Bytes.length buf then
    raise
      (Malformed
         (Printf.sprintf "%d trailing bytes after %s frame"
            (Bytes.length buf - cur.pos)
            (kind frame)));
  frame
