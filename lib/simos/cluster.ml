open Simkern

(* Task bookkeeping is flat: one slot per live task in parallel arrays
   (proc, host, prev/next links), recycled through a free-list threaded
   over [slot_next]. Each host heads an intrusive doubly-linked list of
   its slots (most recent first), so spawn and exit are O(1), per-host
   walks are O(tasks-on-host), and counters make the totals O(1). The
   old representation — a [Proc.t list] per host pruned with
   [List.filter] on every exit — made every exit O(tasks-on-host) and
   every count O(total tasks), which dominates at 10k+ hosts. *)

type host = { host_id : int; host_name : string; mutable head_slot : int; mutable task_count : int }

type t = {
  eng : Engine.t;
  machines : host array;
  mutable slot_proc : Proc.t option array;
  mutable slot_host : int array;
  mutable slot_prev : int array;
  mutable slot_next : int array;  (* doubles as the free-list link *)
  mutable free_head : int;  (* -1 when the arrays are full *)
  mutable live_total : int;
}

let nil = -1

let initial_slots size = max 64 (4 * size)

let create eng ~size =
  if size <= 0 then invalid_arg "Cluster.create: size must be positive";
  let machines =
    Array.init size (fun i ->
        {
          host_id = i;
          host_name = Printf.sprintf "node%03d" i;
          head_slot = nil;
          task_count = 0;
        })
  in
  let cap = initial_slots size in
  let slot_next = Array.init cap (fun i -> if i = cap - 1 then nil else i + 1) in
  {
    eng;
    machines;
    slot_proc = Array.make cap None;
    slot_host = Array.make cap nil;
    slot_prev = Array.make cap nil;
    slot_next;
    free_head = 0;
    live_total = 0;
  }

let engine t = t.eng
let size t = Array.length t.machines

let host t id =
  if id < 0 || id >= Array.length t.machines then
    invalid_arg (Printf.sprintf "Cluster.host: unknown host %d" id);
  t.machines.(id)

let hosts t = Array.to_list t.machines

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
  let h = t.machines.(t.slot_host.(slot)) in
  let prev = t.slot_prev.(slot) and next = t.slot_next.(slot) in
  if prev = nil then h.head_slot <- next else t.slot_next.(prev) <- next;
  if next <> nil then t.slot_prev.(next) <- prev;
  t.slot_proc.(slot) <- None;
  t.slot_host.(slot) <- nil;
  t.slot_prev.(slot) <- nil;
  t.slot_next.(slot) <- t.free_head;
  t.free_head <- slot;
  h.task_count <- h.task_count - 1;
  t.live_total <- t.live_total - 1

let spawn_on t ~host:id ?name body =
  let h = host t id in
  let name = match name with Some n -> n | None -> Printf.sprintf "task@%s" h.host_name in
  let p = Proc.spawn t.eng ~name body in
  let slot = alloc_slot t in
  t.slot_proc.(slot) <- Some p;
  t.slot_host.(slot) <- id;
  t.slot_prev.(slot) <- nil;
  t.slot_next.(slot) <- h.head_slot;
  if h.head_slot <> nil then t.slot_prev.(h.head_slot) <- slot;
  h.head_slot <- slot;
  h.task_count <- h.task_count + 1;
  t.live_total <- t.live_total + 1;
  Proc.on_exit p (fun _ -> release_slot t slot);
  p

(* Walk a host's slots, most recent first (same order the old per-host
   list presented). *)
let fold_host t h ~init ~f =
  let rec go acc slot =
    if slot = nil then acc
    else
      let next = t.slot_next.(slot) in
      match t.slot_proc.(slot) with
      | Some p -> go (f acc p) next
      | None -> go acc next
  in
  go init h.head_slot

let tasks t ~host:id =
  List.rev (fold_host t (host t id) ~init:[] ~f:(fun acc p -> p :: acc))

let find_task t ~host:id ~name =
  let h = host t id in
  let rec go slot =
    if slot = nil then None
    else
      match t.slot_proc.(slot) with
      | Some p when String.equal (Proc.name p) name -> Some p
      | Some _ | None -> go t.slot_next.(slot)
  in
  go h.head_slot

let kill_all t ~host:id =
  (* Collect before killing: each kill unlinks its slot via the exit
     hook, which would invalidate a live walk. Kill order stays most
     recent first, matching the historical list order. *)
  let victims = fold_host t (host t id) ~init:[] ~f:(fun acc p -> p :: acc) in
  List.iter Proc.kill (List.rev victims)

let task_count t ~host:id = (host t id).task_count

let live_task_count t = t.live_total

(* Snapshot: the slot arrays, free-list head and per-host list heads are
   the cluster's whole mutable state. Restore copies them back into the
   same [t] (exit hooks capture slot indices, not array references, so a
   restored table re-validates them). The [Proc.t]s referenced by the
   slots are shared, not copied — restore is sound when process state is
   itself back at the capture point (self-contained tests, or an OS-level
   fork that carried the whole heap; see Engine's snapshot contract). *)

type snapshot = {
  sn_slot_proc : Proc.t option array;
  sn_slot_host : int array;
  sn_slot_prev : int array;
  sn_slot_next : int array;
  sn_free_head : int;
  sn_live_total : int;
  sn_hosts : (int * int) array;  (* (head_slot, task_count) per host *)
}

let snapshot t =
  {
    sn_slot_proc = Array.copy t.slot_proc;
    sn_slot_host = Array.copy t.slot_host;
    sn_slot_prev = Array.copy t.slot_prev;
    sn_slot_next = Array.copy t.slot_next;
    sn_free_head = t.free_head;
    sn_live_total = t.live_total;
    sn_hosts = Array.map (fun h -> (h.head_slot, h.task_count)) t.machines;
  }

let restore t s =
  if Array.length s.sn_hosts <> Array.length t.machines then
    invalid_arg "Cluster.restore: snapshot from a different-size cluster";
  t.slot_proc <- Array.copy s.sn_slot_proc;
  t.slot_host <- Array.copy s.sn_slot_host;
  t.slot_prev <- Array.copy s.sn_slot_prev;
  t.slot_next <- Array.copy s.sn_slot_next;
  t.free_head <- s.sn_free_head;
  t.live_total <- s.sn_live_total;
  Array.iteri
    (fun i h ->
      let head_slot, task_count = s.sn_hosts.(i) in
      h.head_slot <- head_slot;
      h.task_count <- task_count)
    t.machines
