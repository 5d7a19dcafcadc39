type 'a t = {
  messages : 'a Queue.t;
  mutable waiters : ('a -> bool) list;  (* oldest first *)
}

let create () = { messages = Queue.create (); waiters = [] }

(* Offer to waiters in arrival order; a waiter returns false if its
   process died or was already woken, in which case the message goes to
   the next one. *)
let rec offer mb v = function
  | [] ->
      mb.waiters <- [];
      Queue.push v mb.messages
  | waker :: rest -> if waker v then mb.waiters <- rest else offer mb v rest

let send mb v = offer mb v mb.waiters

let recv mb =
  match Queue.take_opt mb.messages with
  | Some v -> v
  | None -> Proc.suspend (fun waker -> mb.waiters <- mb.waiters @ [ waker ])

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
