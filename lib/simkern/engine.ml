type event_state = Pending | Cancelled | Done

type event = {
  time : float;
  seq : int;
  thunk : unit -> unit;
  mutable state : event_state;
  owner : t;
}

and t = {
  mutable now : float;
  mutable next_seq : int;
  mutable next_pid : int;
  mutable halted : bool;
  queue : event Heap.t;  (* keyed by [(time, seq)]; holds tombstones too *)
  mutable live : int;  (* scheduled, not yet executed or cancelled *)
  mutable tombstones : int;  (* cancelled events still sitting in the queue *)
  rng : Rng.t;
  trace : Trace.t;
}

type handle = event

let compare_events a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 1L) ?trace_level () =
  {
    now = 0.0;
    next_seq = 0;
    next_pid = 0;
    halted = false;
    queue = Heap.create ~compare:compare_events;
    live = 0;
    tombstones = 0;
    rng = Rng.create seed;
    trace = Trace.create ?level:trace_level ();
  }

let now t = t.now
let rng t = t.rng
let trace t = t.trace

let record ?level t ~source ~event detail =
  Trace.record ?level t.trace ~time:t.now ~source ~event detail

let record_lazy ?level t ~source ~event f =
  Trace.record_lazy ?level t.trace ~time:t.now ~source ~event f

let record_fmt ?level t ~source ~event fmt =
  Trace.record_fmt ?level t.trace ~time:t.now ~source ~event fmt

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time t.now);
  let ev = { time; seq = t.next_seq; thunk = f; state = Pending; owner = t } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue ev;
  t.live <- t.live + 1;
  ev

let schedule t ?(delay = 0.0) f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) f

(* Long runs cancel many timeouts (every satisfied [recv_timeout] leaves
   one behind); tombstones degrade push/pop, so once they are the
   majority of a non-trivial queue we rebuild it without them. *)
let compact_threshold = 64

let compact t =
  Heap.filter_in_place t.queue ~keep:(fun ev -> ev.state = Pending);
  t.tombstones <- 0

let cancel ev =
  match ev.state with
  | Cancelled | Done -> ()
  | Pending ->
      ev.state <- Cancelled;
      let t = ev.owner in
      t.live <- t.live - 1;
      t.tombstones <- t.tombstones + 1;
      let size = Heap.length t.queue in
      if size >= compact_threshold && t.tombstones > size / 2 then compact t

(* Move a pending event to a new time, reusing its sequence number: the
   replacement occupies exactly the ordering slot the original would have
   had if it had been scheduled at [time] in the first place, so a
   retimed run stays byte-identical to one that scheduled the new time
   from scratch (same-instant ties break on seq). The original is left
   behind as a tombstone under the same seq; the queue orders by the
   full [(time, seq)] key, so the two never stand in for each other. *)
let retime h ~time =
  let t = h.owner in
  (match h.state with
  | Pending -> ()
  | Cancelled | Done -> invalid_arg "Engine.retime: event is no longer pending");
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.retime: time %g is in the past (now %g)" time t.now);
  if time = h.time then h
  else begin
    h.state <- Cancelled;
    t.tombstones <- t.tombstones + 1;
    let ev = { time; seq = h.seq; thunk = h.thunk; state = Pending; owner = t } in
    Heap.push t.queue ev;
    ev
  end

let pending t = t.live

let queue_size t = Heap.length t.queue

let run ?(until = infinity) ?stop_before t =
  t.halted <- false;
  let rec loop () =
    if t.halted then `Halted
    else
      match Heap.peek t.queue with
      | None -> `Quiescent
      | Some ev when ev.time > until ->
          t.now <- until;
          `Deadline
      | Some ev
        when (match stop_before with Some h -> ev == h | None -> false)
             && ev.state = Pending ->
          (* The breakpoint event stays queued: the caller can retime it,
             fork the process, or step over it with [run_one]. *)
          `Breakpoint
      | Some _ ->
          let ev = Option.get (Heap.pop t.queue) in
          (match ev.state with
          | Cancelled -> t.tombstones <- t.tombstones - 1
          | Done -> ()
          | Pending ->
              ev.state <- Done;
              t.live <- t.live - 1;
              t.now <- ev.time;
              ev.thunk ());
          loop ()
  in
  loop ()

let run_one t =
  let rec go () =
    match Heap.pop t.queue with
    | None -> false
    | Some ev -> (
        match ev.state with
        | Cancelled ->
            t.tombstones <- t.tombstones - 1;
            go ()
        | Done -> go ()
        | Pending ->
            ev.state <- Done;
            t.live <- t.live - 1;
            t.now <- ev.time;
            ev.thunk ();
            true)
  in
  go ()

let halt t = t.halted <- true

(* ------------------------------------------------------------------ *)
(* Snapshot / restore

   A snapshot captures the engine's own bookkeeping: clock, counters,
   RNG state, trace position, and every queued event together with the
   state it had at capture. [restore] rebuilds the queue from that
   set and rewinds the scalars. Event thunks are shared, not copied —
   the engine cannot rewind what a thunk's closure points at (process
   continuations, protocol state), so restore is only sound when that
   external state is itself back at the capture point: either the events
   are self-contained, or the whole process was forked at the snapshot
   (the explorer's scheme — fork gives copy-on-write of everything else,
   and the snapshot contract documents exactly what the engine half
   covers). *)

type snapshot = {
  snap_now : float;
  snap_seq : int;
  snap_pid : int;
  snap_halted : bool;
  snap_rng : Rng.t;
  snap_events : (event * event_state) array;
  snap_trace : int;
}

let snapshot t =
  {
    snap_now = t.now;
    snap_seq = t.next_seq;
    snap_pid = t.next_pid;
    snap_halted = t.halted;
    snap_rng = Rng.copy t.rng;
    snap_events =
      Array.of_list (List.rev_map (fun ev -> (ev, ev.state)) (Heap.to_list t.queue));
    snap_trace = Trace.length t.trace;
  }

let restore t s =
  Heap.clear t.queue;
  t.live <- 0;
  t.tombstones <- 0;
  Array.iter
    (fun (ev, st) ->
      ev.state <- st;
      match st with
      | Pending ->
          Heap.push t.queue ev;
          t.live <- t.live + 1
      | Cancelled ->
          Heap.push t.queue ev;
          t.tombstones <- t.tombstones + 1
      | Done -> ())
    s.snap_events;
  t.now <- s.snap_now;
  t.next_seq <- s.snap_seq;
  t.next_pid <- s.snap_pid;
  t.halted <- s.snap_halted;
  Rng.assign t.rng s.snap_rng;
  Trace.truncate t.trace s.snap_trace

let snapshot_events s = Array.length s.snap_events

let snapshot_words s = Obj.reachable_words (Obj.repr s)
