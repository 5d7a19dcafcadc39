type 'a state = Empty of ('a -> bool) list | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      iv.state <- Filled v;
      List.iter (fun waker -> ignore (waker v)) (List.rev waiters)

let read iv =
  match iv.state with
  | Filled v -> v
  | Empty _ ->
      Proc.suspend (fun waker ->
          match iv.state with
          | Filled v -> ignore (waker v)
          | Empty waiters -> iv.state <- Empty (waker :: waiters))

let peek iv = match iv.state with Filled v -> Some v | Empty _ -> None

