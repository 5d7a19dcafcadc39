type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
}

type clock = { mutable now : float }

let no_times = Float.Array.create 0

let create () = { times = no_times; seqs = [||]; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let check_nonempty h what = if h.size = 0 then invalid_arg ("Heap." ^ what ^ ": empty heap")

(* Slot [i]'s key is less than slot [j]'s. *)
let[@inline] slot_less times seqs i j =
  let ti = Float.Array.unsafe_get times i and tj = Float.Array.unsafe_get times j in
  ti < tj || (ti = tj && Array.unsafe_get seqs i < Array.unsafe_get seqs j)

let[@inline] move times seqs data ~src ~dst =
  Float.Array.unsafe_set times dst (Float.Array.unsafe_get times src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set data dst (Array.unsafe_get data src)

(* A 4-ary heap: a sift crosses half the levels of a binary heap's, and
   the four children of a slot are adjacent. Both sifts carry the moving
   entry through a hole instead of swapping: each level writes one slot,
   and the entry is written once where it lands. The moving key is read
   from its slot into locals and never passed to a function, so it stays
   unboxed. *)

(* Sift the entry at slot [i] up. *)
let sift_up h i =
  let times = h.times and seqs = h.seqs and data = h.data in
  let time = Float.Array.unsafe_get times i
  and seq = Array.unsafe_get seqs i
  and x = Array.unsafe_get data i in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 4 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      move times seqs data ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !hole time;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set data !hole x

(* Sift the entry at slot [src] down from the hole at slot [hole]
   ([src = hole], or [src] the vacated last slot of a pop). *)
let sift_down h ~src ~hole =
  let times = h.times and seqs = h.seqs and data = h.data and size = h.size in
  let time = Float.Array.unsafe_get times src
  and seq = Array.unsafe_get seqs src
  and x = Array.unsafe_get data src in
  let hole = ref hole and moving = ref true in
  while !moving do
    let first = (4 * !hole) + 1 in
    if first >= size then moving := false
    else begin
      let last = if first + 3 < size then first + 3 else size - 1 in
      (* the least child, the earliest on ties *)
      let c = ref first in
      for k = first + 1 to last do
        if slot_less times seqs k !c then c := k
      done;
      let c = !c in
      let ct = Float.Array.unsafe_get times c in
      if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
        move times seqs data ~src:c ~dst:!hole;
        hole := c
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set times !hole time;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set data !hole x

let grow h x =
  let capacity = Array.length h.data in
  let capacity' = if capacity = 0 then 16 else capacity * 2 in
  let times = Float.Array.create capacity' in
  Float.Array.blit h.times 0 times 0 h.size;
  let seqs = Array.make capacity' 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let data = Array.make capacity' x in
  Array.blit h.data 0 data 0 h.size;
  h.times <- times;
  h.seqs <- seqs;
  h.data <- data

(* Inlined into both pushes, so the new time is stored without being
   boxed. *)
let[@inline] push_key h time seq x =
  if h.size = Array.length h.data then grow h x;
  let i = h.size in
  Float.Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.data i x;
  h.size <- i + 1;
  sift_up h i

let push h ~time ~seq x = push_key h time seq x
let push_after h clock ~delay ~seq x = push_key h (clock.now +. delay) seq x

let min h =
  check_nonempty h "min";
  h.data.(0)

let min_after h time =
  check_nonempty h "min_after";
  Float.Array.get h.times 0 > time

let min_before h cell seq =
  check_nonempty h "min_before";
  let t = Float.Array.get h.times 0 in
  t < cell.now || (t = cell.now && h.seqs.(0) < seq)

let precedes a b =
  check_nonempty a "precedes";
  check_nonempty b "precedes";
  let ta = Float.Array.get a.times 0 and tb = Float.Array.get b.times 0 in
  ta < tb || (ta = tb && a.seqs.(0) < b.seqs.(0))

let clear h =
  h.times <- no_times;
  h.seqs <- [||];
  h.data <- [||];
  h.size <- 0

let remove_min h =
  let last = h.size - 1 in
  h.size <- last;
  (* A drained heap drops its arrays, as [filter_in_place] does, so no
     popped payload stays reachable through a stale slot. Otherwise the
     vacated slot still holds the entry sifted out of it, which is
     live. *)
  if last = 0 then clear h else sift_down h ~src:last ~hole:0

let pop h =
  check_nonempty h "pop";
  let x = h.data.(0) in
  remove_min h;
  x

let pop_into h clock =
  check_nonempty h "pop";
  let x = h.data.(0) in
  clock.now <- Float.Array.get h.times 0;
  remove_min h;
  x

let filter_in_place h ~keep =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.data.(i) then begin
      move h.times h.seqs h.data ~src:i ~dst:!kept;
      incr kept
    end
  done;
  (* Release dropped slots so tombstoned payloads can be collected. *)
  if !kept > 0 then Array.fill h.data !kept (h.size - !kept) h.data.(0)
  else if h.size > 0 then clear h;
  h.size <- !kept;
  if h.size > 1 then
    for i = (h.size - 2) / 4 downto 0 do
      sift_down h ~src:i ~hole:i
    done
