(* A lone reader waits in [slot]; a reader that finds the slot taken or
   waiters queued, and every timed reader, queues a waker in [waiters].
   The slot's waiter is thus always the oldest, and [send] offers to it
   first. *)
type 'a t = {
  messages : 'a Queue.t;
  slot : 'a Proc.slot;
  mutable waiters : ('a -> bool) list;  (* oldest first *)
}

let create () = { messages = Queue.create (); slot = Proc.slot (); waiters = [] }

(* Offer to waiters in arrival order; a waiter returns false if its
   process died or was already woken, in which case the message goes to
   the next one. *)
let rec offer mb v = function
  | [] ->
      mb.waiters <- [];
      Queue.push v mb.messages
  | waker :: rest -> if waker v then mb.waiters <- rest else offer mb v rest

let send mb v = if not (Proc.fill mb.slot v) then offer mb v mb.waiters

let recv mb =
  if not (Queue.is_empty mb.messages) then Queue.pop mb.messages
  else if List.is_empty mb.waiters && not (Proc.awaited mb.slot) then Proc.await mb.slot
  else Proc.suspend (fun waker -> mb.waiters <- mb.waiters @ [ waker ])

let recv_timeout mb ~timeout =
  match Queue.take_opt mb.messages with
  | Some v -> Some v
  | None ->
      let eng = Proc.engine (Proc.self ()) in
      Proc.suspend (fun waker ->
          (* Cancel the timer once a message wins, so satisfied timeouts
             become heap tombstones (compacted) instead of live no-op
             events that keep the queue busy until they fire. *)
          let timer = ref None in
          mb.waiters <-
            mb.waiters
            @ [
                (fun v ->
                  let woke = waker (Some v) in
                  if woke then Option.iter Engine.cancel !timer;
                  woke);
              ];
          timer := Some (Engine.schedule eng ~delay:timeout (fun () -> ignore (waker None))))

let length mb = Queue.length mb.messages

let is_empty mb = Queue.is_empty mb.messages

let clear mb = Queue.clear mb.messages
