(* The blocked reader, if any, waits in [slot]; [messages] is non-empty
   only while no reader is blocked. *)
type 'a t = {
  messages : 'a Queue.t;
  slot : 'a Proc.slot;
}

let create () = { messages = Queue.create (); slot = Proc.slot () }

let send mb v = if not (Proc.fill mb.slot v) then Queue.push v mb.messages

let recv mb =
  if not (Queue.is_empty mb.messages) then Queue.pop mb.messages
  else if Proc.awaited mb.slot then invalid_arg "Mailbox.recv: another process is blocked in it"
  else Proc.await mb.slot
