type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~compare = { compare; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 16 else capacity * 2 in
    let data' = Array.make capacity' x in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

(* A 4-ary heap: a sift crosses half the levels of a binary heap's, and
   the four children of a slot are adjacent. Both sifts carry [x]
   through a hole instead of swapping: each level writes one slot, and
   [x] is written once where it lands. *)
let rec sift_up compare data x i =
  if i = 0 then data.(0) <- x
  else begin
    let parent = (i - 1) / 4 in
    let p = data.(parent) in
    if compare x p < 0 then begin
      data.(i) <- p;
      sift_up compare data x parent
    end
    else data.(i) <- x
  end

(* The least of slot [c] and slots [k .. last], the earliest on ties. *)
let rec min_child compare data c k last =
  if k > last then c
  else min_child compare data (if compare data.(k) data.(c) < 0 then k else c) (k + 1) last

let rec sift_down compare data size x i =
  let first = (4 * i) + 1 in
  if first >= size then data.(i) <- x
  else begin
    let last = if first + 3 < size then first + 3 else size - 1 in
    let c = min_child compare data first (first + 1) last in
    let child = data.(c) in
    if compare child x < 0 then begin
      data.(i) <- child;
      sift_down compare data size x c
    end
    else data.(i) <- x
  end

let push h x =
  grow h x;
  h.size <- h.size + 1;
  sift_up h.compare h.data x (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    let last = h.size - 1 in
    h.size <- last;
    (* A drained heap drops its array, as [filter_in_place] does, so no
       popped element stays reachable through a stale slot. Otherwise the
       vacated slot still holds the element sifted out of it, which is
       live. *)
    if last = 0 then h.data <- [||] else sift_down h.compare h.data last h.data.(last) 0;
    Some top
  end

let clear h =
  h.data <- [||];
  h.size <- 0

let filter_in_place h ~keep =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.data.(i) then begin
      h.data.(!kept) <- h.data.(i);
      incr kept
    end
  done;
  (* Release dropped slots so tombstoned thunks can be collected. *)
  if !kept > 0 then
    for i = !kept to h.size - 1 do
      h.data.(i) <- h.data.(0)
    done
  else if h.size > 0 then h.data <- [||];
  h.size <- !kept;
  if h.size > 1 then
    for i = (h.size - 2) / 4 downto 0 do
      sift_down h.compare h.data h.size h.data.(i) i
    done

let to_list h =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (h.data.(i) :: acc) in
  collect (h.size - 1) []
