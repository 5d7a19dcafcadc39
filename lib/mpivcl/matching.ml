(* Unexpected messages and parked receives share one table keyed on the
   envelope, packed into one int. An entry holds both FIFOs because an
   image restore may install messages for a key that already has receives
   parked; outside that case at most one of the two is non-empty. Entries
   are dropped as soon as both empty, so the table holds only live
   envelopes. *)

let src_bits = 20
let tag_bits = 22
let src_mask = (1 lsl src_bits) - 1
let tag_mask = (1 lsl tag_bits) - 1

(* The hash of the unpacked triple, so that the low bits the buckets are
   chosen by mix all three fields. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let d = k lsr (src_bits + tag_bits) and s = (k lsr tag_bits) land src_mask in
    (((d * 65599) + s) * 65599) + (k land tag_mask)
end)

let check what v bits =
  if v < 0 || v lsr bits <> 0 then
    invalid_arg (Printf.sprintf "Matching: %s %d outside [0, 2^%d)" what v bits)

let key ~dst ~src ~tag =
  check "dst" dst src_bits;
  check "src" src src_bits;
  check "tag" tag tag_bits;
  (((dst lsl src_bits) lor src) lsl tag_bits) lor tag

(* [seq] stamps arrival order across envelopes, for [buffered]. The
   application sends each envelope at most once per execution, so a FIFO
   rarely holds more than one element and a list appended at its tail
   serves. *)
type stamped = { seq : int; msg : Message.app_msg }
type 'r entry = { mutable msgs : stamped list; mutable recvs : 'r list }
type 'r t = { table : 'r entry Tbl.t; mutable next_seq : int }

let create () = { table = Tbl.create 16; next_seq = 0 }

let add q key =
  let e = { msgs = []; recvs = [] } in
  Tbl.add q.table key e;
  e

let stamp q e m =
  e.msgs <- e.msgs @ [ { seq = q.next_seq; msg = m } ];
  q.next_seq <- q.next_seq + 1

let deliver q (m : Message.app_msg) =
  let key = key ~dst:m.dst ~src:m.src ~tag:m.tag in
  match Tbl.find q.table key with
  | { recvs = reply :: rest; msgs } as e ->
      e.recvs <- rest;
      if List.(is_empty rest && is_empty msgs) then Tbl.remove q.table key;
      Some reply
  | e ->
      stamp q e m;
      None
  | exception Not_found ->
      stamp q (add q key) m;
      None

let serve q ~dst ~src ~tag reply =
  let key = key ~dst ~src ~tag in
  match Tbl.find q.table key with
  | { msgs = s :: rest; recvs } as e ->
      e.msgs <- rest;
      if List.(is_empty rest && is_empty recvs) then Tbl.remove q.table key;
      Some s.msg
  | e ->
      e.recvs <- e.recvs @ [ reply ];
      None
  | exception Not_found ->
      (add q key).recvs <- [ reply ];
      None

let buffered q =
  Tbl.fold (fun _ e acc -> List.rev_append e.msgs acc) q.table []
  |> List.sort (fun a b -> Int.compare a.seq b.seq)
  |> List.map (fun s -> s.msg)

let clear q = Tbl.reset q.table

let restore q msgs =
  Tbl.filter_map_inplace
    (fun _ e ->
      e.msgs <- [];
      if List.is_empty e.recvs then None else Some e)
    q.table;
  List.iter
    (fun (m : Message.app_msg) ->
      let key = key ~dst:m.dst ~src:m.src ~tag:m.tag in
      stamp q (match Tbl.find q.table key with e -> e | exception Not_found -> add q key) m)
    msgs
