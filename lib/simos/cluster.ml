open Simkern

(* Task bookkeeping is flat: one slot per live task in parallel arrays
   (proc, host, prev/next links), recycled through a free-list threaded
   over [slot_next]. Each host heads an intrusive doubly-linked list of
   its slots (most recent first), so spawn and exit are O(1) and per-host
   walks are O(tasks-on-host). The old representation — a [Proc.t list]
   per host pruned with [List.filter] on every exit — made every exit
   O(tasks-on-host), which dominates at 10k+ hosts. *)

type t = {
  eng : Engine.t;
  heads : int array;  (* by host: the head of its slot list *)
  mutable slot_proc : Proc.t option array;
  mutable slot_host : int array;
  mutable slot_prev : int array;
  mutable slot_next : int array;  (* doubles as the free-list link *)
  mutable free_head : int;  (* -1 when the arrays are full *)
}

let nil = -1

let initial_slots size = max 64 (4 * size)

let create eng ~size =
  if size <= 0 then invalid_arg "Cluster.create: size must be positive";
  let cap = initial_slots size in
  let slot_next = Array.init cap (fun i -> if i = cap - 1 then nil else i + 1) in
  {
    eng;
    heads = Array.make size nil;
    slot_proc = Array.make cap None;
    slot_host = Array.make cap nil;
    slot_prev = Array.make cap nil;
    slot_next;
    free_head = 0;
  }

let size t = Array.length t.heads

let check_host t id =
  if id < 0 || id >= Array.length t.heads then
    invalid_arg (Printf.sprintf "Cluster.host: unknown host %d" id)

let grow_slots t =
  let cap = Array.length t.slot_proc in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.slot_proc <- extend t.slot_proc None;
  t.slot_host <- extend t.slot_host nil;
  t.slot_prev <- extend t.slot_prev nil;
  t.slot_next <- extend t.slot_next nil;
  for i = cap to cap' - 1 do
    t.slot_next.(i) <- (if i = cap' - 1 then nil else i + 1)
  done;
  t.free_head <- cap

let alloc_slot t =
  if t.free_head = nil then grow_slots t;
  let slot = t.free_head in
  t.free_head <- t.slot_next.(slot);
  slot

let release_slot t slot =
  let host = t.slot_host.(slot) in
  let prev = t.slot_prev.(slot) and next = t.slot_next.(slot) in
  if prev = nil then t.heads.(host) <- next else t.slot_next.(prev) <- next;
  if next <> nil then t.slot_prev.(next) <- prev;
  t.slot_proc.(slot) <- None;
  t.slot_host.(slot) <- nil;
  t.slot_prev.(slot) <- nil;
  t.slot_next.(slot) <- t.free_head;
  t.free_head <- slot

let spawn_on t ~host:id ?name body =
  check_host t id;
  let name = match name with Some n -> n | None -> Printf.sprintf "task@node%03d" id in
  let p = Proc.spawn t.eng ~name body in
  let slot = alloc_slot t in
  t.slot_proc.(slot) <- Some p;
  t.slot_host.(slot) <- id;
  t.slot_prev.(slot) <- nil;
  let head = t.heads.(id) in
  t.slot_next.(slot) <- head;
  if head <> nil then t.slot_prev.(head) <- slot;
  t.heads.(id) <- slot;
  Proc.on_exit p (fun _ -> release_slot t slot);
  p

(* Walk a host's slots, most recent first (same order the old per-host
   list presented). *)
let fold_host t id ~init ~f =
  check_host t id;
  let rec go acc slot =
    if slot = nil then acc
    else
      let next = t.slot_next.(slot) in
      match t.slot_proc.(slot) with
      | Some p -> go (f acc p) next
      | None -> go acc next
  in
  go init t.heads.(id)

let tasks t ~host:id =
  List.rev (fold_host t id ~init:[] ~f:(fun acc p -> p :: acc))

let kill_all t ~host:id =
  (* Collect before killing: each kill unlinks its slot via the exit
     hook, which would invalidate a live walk. Kill order stays most
     recent first, matching the historical list order. *)
  let victims = fold_host t id ~init:[] ~f:(fun acc p -> p :: acc) in
  List.iter Proc.kill (List.rev victims)
