exception Killed

type exit_reason = Exit_normal | Exit_killed | Exit_crashed of exn

type state = Embryo | Running | Waiting | Exited of exit_reason

(* Where a process stands in its current suspension: parked on [k] (asleep
   if its timer ends it) or in a slot, woken with [v] and waiting for its
   [step] event to resume, or neither. *)
type parked =
  | Unparked : parked
  | Parked : ('a, unit) Effect.Deep.continuation -> parked
  | Asleep : (unit, unit) Effect.Deep.continuation -> parked
  | In_slot : 'a slot -> parked
  | Woken : ('a, unit) Effect.Deep.continuation * 'a -> parked

(* A wait point reused by every wait: [await] and [in_slot] are built once,
   and [callback] is the handler's answer to [await], cached for [waiter],
   so a wait allocates only its continuation and [Some k]. *)
and 'a slot = {
  mutable k : ('a, unit) Effect.Deep.continuation option;
  mutable waiter : t option;
  await : 'a Effect.t;
  in_slot : parked;
  mutable callback : (('a, unit) Effect.Deep.continuation -> unit) option;
}

and t = {
  pid : int;
  name : string;
  engine : Engine.t;
  mutable state : state;
  mutable doomed : bool;  (* kill requested, not yet taken effect *)
  mutable frozen : bool;
  mutable pending : (unit -> unit) list;  (* wake-ups buffered while frozen, oldest first *)
  mutable parked : parked;  (* a waker holds the [Parked] block of its own suspension *)
  step : unit -> unit;  (* resumes a [Woken] process; the one event every wake-up posts *)
  tick : unit -> unit;  (* wakes an [Asleep] process; the timer event of every sleep *)
  mutable exit_hooks : (exit_reason -> unit) list;  (* newest first *)
}

type _ Effect.t += Suspend : (('a -> bool) -> unit) -> 'a Effect.t
type _ Effect.t += Await : 'a slot -> 'a Effect.t
type _ Effect.t += Sleep : float -> unit Effect.t
type _ Effect.t += Self : t Effect.t

let pid p = p.pid
let name p = p.name
let engine p = p.engine

let state p = p.state

let is_alive p = match p.state with Exited _ -> false | Embryo | Running | Waiting -> true

let is_frozen p = p.frozen

let finish p reason =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      p.state <- Exited reason;
      p.parked <- Unparked;
      p.pending <- [];
      let hooks = List.rev p.exit_hooks in
      p.exit_hooks <- [];
      List.iter (fun hook -> hook reason) hooks

(* Run [f] on behalf of [p]. Flags are re-checked when [f] runs, not when
   it was posted, so a kill or freeze issued in between is honoured; a
   frozen process buffers [f], oldest first, until it is unfrozen.
   [resume] is the same for a woken suspension: it runs as [p.step], so
   a wake-up posts a closure allocated once per process. *)
let rec guard p f =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> guard p f) ] else f ()

let resume p =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting -> (
      if p.frozen then p.pending <- p.pending @ [ p.step ]
      else
        match p.parked with
        | Woken (k, v) ->
            p.parked <- Unparked;
            p.state <- Running;
            Effect.Deep.continue k v
        | Parked _ | Asleep _ | In_slot _ | Unparked -> ())

(* The waker of the suspension that parked [p] as [slot]: it accepts [v]
   only while [slot] is still [p]'s, so it is stale once [p] woke, died or
   suspended again. *)
let wake p slot k v =
  p.parked == slot
  && begin
       p.parked <- Woken (k, v);
       Engine.post p.engine p.step;
       true
     end

(* Only a kill ends a sleep before its timer, and a killed process never
   parks again, so a timer that finds no sleeper is a dead one's. *)
let tick p =
  match p.parked with
  | Asleep k ->
      p.parked <- Woken (k, ());
      Engine.post p.engine p.step
  | Parked _ | In_slot _ | Woken _ | Unparked -> ()

let park p parked =
  p.state <- Waiting;
  p.parked <- parked

(* The slot's callback for [p], built when [p] first waits in it. *)
let slot_callback p s =
  match s.waiter with
  | Some q when q == p -> s.callback
  | Some _ | None ->
      let cb =
        Some
          (fun k ->
            if p.doomed then Effect.Deep.discontinue k Killed
            else begin
              s.k <- Some k;
              park p s.in_slot
            end)
      in
      s.waiter <- Some p;
      s.callback <- cb;
      cb

let handler p =
  let open Effect.Deep in
  {
    retc = (fun () -> finish p Exit_normal);
    exnc =
      (fun exn ->
        match exn with
        | Killed -> finish p Exit_killed
        | exn -> finish p (Exit_crashed exn));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Self -> Some (fun (k : (a, unit) continuation) -> continue k p)
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed
                else begin
                  let slot = Parked k in
                  park p slot;
                  register (fun v -> wake p slot k v)
                end)
        | Await s -> slot_callback p s
        | Sleep dt ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed
                else begin
                  park p (Asleep k);
                  Engine.post p.engine ~delay:dt p.tick
                end)
        | _ -> None);
  }

let spawn eng ?name body =
  let pid = Engine.fresh_pid eng in
  let name = match name with Some n -> n | None -> Printf.sprintf "proc-%d" pid in
  let rec p =
    {
      pid;
      name;
      engine = eng;
      state = Embryo;
      doomed = false;
      frozen = false;
      pending = [];
      parked = Unparked;
      step = (fun () -> resume p);
      tick = (fun () -> tick p);
      exit_hooks = [];
    }
  in
  let start () =
    if p.doomed then finish p Exit_killed
    else begin
      p.state <- Running;
      Effect.Deep.match_with body () (handler p)
    end
  in
  Engine.post eng (fun () -> guard p start);
  p

(* Kill overrides freeze: a parked process is discontinued directly. *)
let cancel p k =
  p.parked <- Unparked;
  Engine.post p.engine (fun () ->
      match p.state with
      | Exited _ -> ()
      | Embryo | Running | Waiting ->
          p.state <- Running;
          Effect.Deep.discontinue k Killed)

let kill p =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting -> (
      p.doomed <- true;
      match (p.parked, p.state) with
      | Parked k, _ -> cancel p k
      | Asleep k, _ -> cancel p k
      | In_slot ({ k = Some k; _ } as s), _ ->
          s.k <- None;
          cancel p k
      | Unparked, Embryo ->
          (* Not started yet: nothing to unwind. *)
          finish p Exit_killed
      | In_slot _, _ | Woken _, _ | Unparked, (Running | Waiting | Exited _) -> ())

let freeze p = if is_alive p then p.frozen <- true

let unfreeze p =
  if p.frozen then begin
    p.frozen <- false;
    let buffered = p.pending in
    p.pending <- [];
    List.iter (fun thunk -> Engine.post p.engine thunk) buffered
  end

let on_exit p hook =
  match p.state with
  | Exited reason -> hook reason
  | Embryo | Running | Waiting -> p.exit_hooks <- hook :: p.exit_hooks

let self () = Effect.perform Self

let suspend register = Effect.perform (Suspend register)

let slot () =
  let rec s = { k = None; waiter = None; await = Await s; in_slot = In_slot s; callback = None } in
  s

let await s = Effect.perform s.await

let awaited s = match s.waiter with Some p -> p.parked == s.in_slot | None -> false

(* A waker for whichever wait [s] holds: stale unless its waiter is
   parked in [s]. *)
let fill s v =
  match (s.waiter, s.k) with
  | Some p, Some k when p.parked == s.in_slot ->
      s.k <- None;
      p.parked <- Woken (k, v);
      Engine.post p.engine p.step;
      true
  | _ -> false

let sleep dt =
  if Float.is_nan dt then invalid_arg "Proc.sleep: duration is NaN";
  if dt < 0.0 then invalid_arg "Proc.sleep: negative duration";
  Effect.perform (Sleep dt)

let yield () = sleep 0.0

let join other =
  match other.state with
  | Exited reason -> reason
  | Embryo | Running | Waiting -> suspend (fun waker -> on_exit other (fun r -> ignore (waker r)))
