type event_state = Pending | Cancelled | Done

(* Events posted with no delay: all at one instant, [time.now], and in
   seq order, so a FIFO keeps them sorted and pushing or popping one
   costs O(1) instead of two heap sifts. Most events of a run are of
   this kind (process resumptions, mailbox wake-ups). *)
module Lane = struct
  type t = {
    time : Heap.clock;
    mutable seqs : int array;
    mutable thunks : (unit -> unit) array;
    mutable head : int;
    mutable tail : int;  (* slots [head, tail) are occupied *)
  }

  let nop () = ()
  let create () = { time = { Heap.now = 0.0 }; seqs = [||]; thunks = [||]; head = 0; tail = 0 }
  let length l = l.tail - l.head
  let is_empty l = l.head = l.tail

  (* An event at [clock.now] may join unless the lane still holds an
     earlier instant (a deadline moved the clock back). *)
  let accepts l (clock : Heap.clock) = is_empty l || l.time.now = clock.now

  (* Room for one more slot at the tail: slide the occupied slots to the
     front, or double the arrays when they are at least half full. *)
  let make_room l =
    let n = length l and capacity = Array.length l.thunks in
    if 2 * n < capacity then begin
      Array.blit l.seqs l.head l.seqs 0 n;
      Array.blit l.thunks l.head l.thunks 0 n;
      Array.fill l.thunks n (capacity - n) nop
    end
    else begin
      let capacity = max 16 (2 * capacity) in
      let seqs = Array.make capacity 0 and thunks = Array.make capacity nop in
      Array.blit l.seqs l.head seqs 0 n;
      Array.blit l.thunks l.head thunks 0 n;
      l.seqs <- seqs;
      l.thunks <- thunks
    end;
    l.head <- 0;
    l.tail <- n

  let push l (clock : Heap.clock) ~seq f =
    if l.tail = Array.length l.thunks then make_room l;
    l.time.now <- clock.now;
    l.seqs.(l.tail) <- seq;
    l.thunks.(l.tail) <- f;
    l.tail <- l.tail + 1

  let head_seq l = l.seqs.(l.head)

  (* Pops the head and moves [clock] to the lane's instant. The popped
     slot is cleared, so the lane keeps no thunk it returned. *)
  let pop_into l (clock : Heap.clock) =
    let f = l.thunks.(l.head) in
    l.thunks.(l.head) <- nop;
    l.head <- l.head + 1;
    if l.head = l.tail then begin
      l.head <- 0;
      l.tail <- 0
    end;
    clock.now <- l.time.now;
    f
end

type handle = {
  time : float;
  seq : int;
  thunk : unit -> unit;
  mutable state : event_state;
  owner : t;
}

(* The queue is three sources sorted on one [(time, seq)] order, sharing
   the seq counter: the lane; a heap of the other posted events, whose
   thunk is all it holds; and a heap of handle events, which may be
   cancelled or retimed and so carry a record. The next event is the
   least of the three minima, so the pop order is the one a single heap
   would give. Tombstones only ever sit in [handles]. *)
and t = {
  clock : Heap.clock;  (* all-float, so the pop loop sets it unboxed *)
  lane : Lane.t;
  posted : (unit -> unit) Heap.t;
  handles : handle Heap.t;
  mutable next_seq : int;
  mutable next_pid : int;
  mutable halted : bool;
  mutable live : int;  (* scheduled, not yet executed or cancelled *)
  mutable tombstones : int;  (* cancelled events still sitting in [handles] *)
  rng : Rng.t;
  trace : Trace.t;
}

let create ?(seed = 1L) ?trace_level () =
  {
    clock = { Heap.now = 0.0 };
    lane = Lane.create ();
    posted = Heap.create ();
    handles = Heap.create ();
    next_seq = 0;
    next_pid = 0;
    halted = false;
    live = 0;
    tombstones = 0;
    rng = Rng.create seed;
    trace = Trace.create ?level:trace_level ();
  }

let now t = t.clock.now
let rng t = t.rng
let trace t = t.trace

let record ?level t ~source ~event fmt =
  Trace.record ?level t.trace ~time:t.clock.now ~source ~event fmt

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

(* NaN compares false against everything, so it would slip past the
   past-time checks and reorder the queue; every entry point refuses it. *)
let check_time t ~fn time =
  if Float.is_nan time then invalid_arg (fn ^ ": time is NaN");
  if time < t.clock.now then
    invalid_arg
      (Printf.sprintf "%s: time %g is in the past (now %g)" fn time t.clock.now)

let check_delay ~fn delay =
  if Float.is_nan delay then invalid_arg (fn ^ ": delay is NaN");
  if delay < 0.0 then invalid_arg (fn ^ ": negative delay")

let next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let post_at t ~time f =
  check_time t ~fn:"Engine.post_at" time;
  Heap.push t.posted ~time ~seq:(next_seq t) f;
  t.live <- t.live + 1

let post t ?(delay = 0.0) f =
  check_delay ~fn:"Engine.post" delay;
  if delay = 0.0 && Lane.accepts t.lane t.clock then Lane.push t.lane t.clock ~seq:(next_seq t) f
  else Heap.push_after t.posted t.clock ~delay ~seq:(next_seq t) f;
  t.live <- t.live + 1

let push_handle t ~time f =
  let h = { time; seq = next_seq t; thunk = f; state = Pending; owner = t } in
  Heap.push t.handles ~time ~seq:h.seq h;
  t.live <- t.live + 1;
  h

let schedule_at t ~time f =
  check_time t ~fn:"Engine.schedule_at" time;
  push_handle t ~time f

let schedule t ?(delay = 0.0) f =
  check_delay ~fn:"Engine.schedule" delay;
  push_handle t ~time:(t.clock.now +. delay) f

(* Long runs cancel many timeouts (every satisfied [recv_timeout] leaves
   one behind); tombstones degrade push/pop, so once they are the
   majority of a non-trivial queue we rebuild it without them. *)
let compact_threshold = 64

let queue_size t = Lane.length t.lane + Heap.length t.posted + Heap.length t.handles

let compact t =
  Heap.filter_in_place t.handles ~keep:(fun h -> h.state = Pending);
  t.tombstones <- 0

let cancel h =
  match h.state with
  | Cancelled | Done -> ()
  | Pending ->
      h.state <- Cancelled;
      let t = h.owner in
      t.live <- t.live - 1;
      t.tombstones <- t.tombstones + 1;
      let size = queue_size t in
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
  check_time t ~fn:"Engine.retime" time;
  if time = h.time then h
  else begin
    h.state <- Cancelled;
    t.tombstones <- t.tombstones + 1;
    let h' = { time; seq = h.seq; thunk = h.thunk; state = Pending; owner = t } in
    Heap.push t.handles ~time ~seq:h.seq h';
    h'
  end

let pending t = t.live

type source = Lane | Posted | Handles

(* Which source holds the next event, tombstones included. The queue
   must not be empty. *)
let next t =
  let heap =
    if Heap.is_empty t.posted then Handles
    else if Heap.is_empty t.handles then Posted
    else if Heap.precedes t.handles t.posted then Handles
    else Posted
  in
  let l = t.lane in
  if Lane.is_empty l then heap
  else
    let seq = Lane.head_seq l in
    match heap with
    | Posted when Heap.min_before t.posted l.Lane.time seq -> Posted
    | Handles when (not (Heap.is_empty t.handles)) && Heap.min_before t.handles l.Lane.time seq
      ->
        Handles
    | Posted | Handles | Lane -> Lane

let is_empty t = Lane.is_empty t.lane && Heap.is_empty t.posted && Heap.is_empty t.handles

(* Pop and execute the next event of the lane. *)
let step_lane t =
  let f = Lane.pop_into t.lane t.clock in
  t.live <- t.live - 1;
  f ()

(* Pop and execute the next posted event. *)
let step_posted t =
  let f = Heap.pop_into t.posted t.clock in
  t.live <- t.live - 1;
  f ()

(* Pop the next handle event and execute it unless it is a tombstone;
   popping a tombstone does not move the clock. Returns whether an event
   ran. *)
let step_handle t =
  let h = Heap.pop t.handles in
  match h.state with
  | Cancelled ->
      t.tombstones <- t.tombstones - 1;
      false
  | Done -> false
  | Pending ->
      h.state <- Done;
      t.live <- t.live - 1;
      t.clock.now <- h.time;
      h.thunk ();
      true

let run ?(until = infinity) ?stop_before t =
  t.halted <- false;
  let deadline () =
    t.clock.now <- until;
    `Deadline
  in
  let rec loop () =
    if t.halted then `Halted
    else if is_empty t then `Quiescent
    else
      match next t with
      | Lane ->
          if t.lane.Lane.time.now > until then deadline ()
          else begin
            step_lane t;
            loop ()
          end
      | Posted ->
          if Heap.min_after t.posted until then deadline ()
          else begin
            step_posted t;
            loop ()
          end
      | Handles -> (
          if Heap.min_after t.handles until then deadline ()
          else
            match stop_before with
            | Some h when Heap.min t.handles == h && h.state = Pending ->
                (* The breakpoint event stays queued: the caller can retime
                   it or step over it with [run_one]. *)
                `Breakpoint
            | Some _ | None ->
                ignore (step_handle t);
                loop ())
  in
  loop ()

let rec run_one t =
  if is_empty t then false
  else
    match next t with
    | Lane ->
        step_lane t;
        true
    | Posted ->
        step_posted t;
        true
    | Handles -> step_handle t || run_one t

let halt t = t.halted <- true
