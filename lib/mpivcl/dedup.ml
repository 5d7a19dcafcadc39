let src_bits = 20
let src_mask = (1 lsl src_bits) - 1

(* The table's buckets are chosen by the low bits of [hash], so the hash
   mixes the tag in rather than leaving the low bits to [src] alone. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = ((k land src_mask) * 65599) + (k asr src_bits)
end)

type t = unit Tbl.t

let key ~src ~tag =
  if src < 0 || src > src_mask then
    invalid_arg (Printf.sprintf "Dedup.key: src %d outside [0, 2^%d)" src src_bits);
  (tag lsl src_bits) lor src

(* Sized for the small sets: a daemon of an 8192-host stencil run ends
   holding about 40 pairs, and thousands of daemons each paying for 256
   empty buckets cost about 15 MiB of heap. A BT-49 daemon's set grows past
   this by doubling. *)
let create () : t = Tbl.create 16
let mem t ~src ~tag = Tbl.mem t (key ~src ~tag)
let add t ~src ~tag = Tbl.replace t (key ~src ~tag) ()
let keys t = Tbl.fold (fun k () acc -> k :: acc) t []
let add_keys t ks = List.iter (fun k -> Tbl.replace t k ()) ks
