(* Unexpected messages and parked receives share one table keyed on the
   envelope. An entry holds both FIFOs because an image restore may
   install messages for a key that already has receives parked; outside
   that case at most one of the two is non-empty. Entries are dropped as
   soon as both empty, so the table holds only live envelopes. *)

module Tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal (d1, s1, t1) (d2, s2, t2) = d1 = d2 && s1 = s2 && t1 = t2
  let hash (d, s, t) = (((d * 65599) + s) * 65599) + t
end)

(* [seq] stamps arrival order across envelopes, for [buffered]. *)
type stamped = { seq : int; msg : Message.app_msg }
type 'r entry = { msgs : stamped Queue.t; recvs : 'r Queue.t }
type 'r t = { table : 'r entry Tbl.t; mutable next_seq : int }

let create () = { table = Tbl.create 16; next_seq = 0 }

let add q key =
  let e = { msgs = Queue.create (); recvs = Queue.create () } in
  Tbl.add q.table key e;
  e

let release q key e =
  if Queue.is_empty e.msgs && Queue.is_empty e.recvs then Tbl.remove q.table key

let key_of (m : Message.app_msg) = (m.Message.dst, m.Message.src, m.Message.tag)

let stamp q e m =
  Queue.push { seq = q.next_seq; msg = m } e.msgs;
  q.next_seq <- q.next_seq + 1

let deliver q m =
  let key = key_of m in
  match Tbl.find q.table key with
  | e when not (Queue.is_empty e.recvs) ->
      let reply = Queue.pop e.recvs in
      release q key e;
      Some reply
  | e ->
      stamp q e m;
      None
  | exception Not_found ->
      stamp q (add q key) m;
      None

let serve q ~dst ~src ~tag reply =
  let key = (dst, src, tag) in
  match Tbl.find q.table key with
  | e when not (Queue.is_empty e.msgs) ->
      let s = Queue.pop e.msgs in
      release q key e;
      Some s.msg
  | e ->
      Queue.push reply e.recvs;
      None
  | exception Not_found ->
      Queue.push reply (add q key).recvs;
      None

let buffered q =
  Tbl.fold (fun _ e acc -> Queue.fold (fun acc s -> s :: acc) acc e.msgs) q.table []
  |> List.sort (fun a b -> Int.compare a.seq b.seq)
  |> List.map (fun s -> s.msg)

let clear q = Tbl.reset q.table

let restore q msgs =
  Tbl.filter_map_inplace
    (fun _ e ->
      Queue.clear e.msgs;
      if Queue.is_empty e.recvs then None else Some e)
    q.table;
  List.iter
    (fun m ->
      let key = key_of m in
      stamp q (match Tbl.find q.table key with e -> e | exception Not_found -> add q key) m)
    msgs
