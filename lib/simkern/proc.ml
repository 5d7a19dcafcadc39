exception Killed

type exit_reason = Exit_normal | Exit_killed | Exit_crashed of exn

type state = Embryo | Running | Waiting | Exited of exit_reason

type t = {
  pid : int;
  name : string;
  engine : Engine.t;
  mutable state : state;
  mutable doomed : bool;  (* kill requested, not yet taken effect *)
  mutable frozen : bool;
  mutable pending : (unit -> unit) list;  (* wake-ups buffered while frozen, oldest first *)
  mutable canceller : (unit -> unit) option;  (* discontinues the current suspension *)
  mutable exit_hooks : (exit_reason -> unit) list;  (* newest first *)
}

type _ Effect.t += Suspend : (('a -> bool) -> unit) -> 'a Effect.t
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
      p.canceller <- None;
      p.pending <- [];
      let hooks = List.rev p.exit_hooks in
      p.exit_hooks <- [];
      List.iter (fun hook -> hook reason) hooks

(* Run [f] on behalf of [p]. Flags are re-checked when [f] runs, not when
   it was posted, so a kill or freeze issued in between is honoured; a
   frozen process buffers [f], oldest first, until it is unfrozen.
   [resume] is the same for the continuation of a suspension, fused so
   that a wake-up posts one closure. *)
let rec guard p f =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> guard p f) ] else f ()

let rec resume : type a. t -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun p k v ->
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> resume p k v) ]
      else begin
        p.state <- Running;
        Effect.Deep.continue k v
      end

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
                  p.state <- Waiting;
                  let decided = ref false in
                  p.canceller <-
                    Some
                      (fun () ->
                        if not !decided then begin
                          decided := true;
                          p.canceller <- None;
                          (* Kill overrides freeze: discontinue directly. *)
                          Engine.post p.engine (fun () ->
                              match p.state with
                              | Exited _ -> ()
                              | Embryo | Running | Waiting ->
                                  p.state <- Running;
                                  discontinue k Killed)
                        end);
                  let waker v =
                    if !decided then false
                    else
                      match p.state with
                      | Exited _ ->
                          decided := true;
                          false
                      | Embryo | Running | Waiting ->
                          decided := true;
                          p.canceller <- None;
                          Engine.post p.engine (fun () -> resume p k v);
                          true
                  in
                  register waker
                end)
        | _ -> None);
  }

let spawn eng ?name body =
  let pid = Engine.fresh_pid eng in
  let name = match name with Some n -> n | None -> Printf.sprintf "proc-%d" pid in
  let p =
    {
      pid;
      name;
      engine = eng;
      state = Embryo;
      doomed = false;
      frozen = false;
      pending = [];
      canceller = None;
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

let kill p =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting -> (
      p.doomed <- true;
      match p.canceller with
      | Some cancel -> cancel ()
      | None -> (
          match p.state with
          | Embryo ->
              (* Not started yet: nothing to unwind. *)
              finish p Exit_killed
          | Running | Waiting | Exited _ -> ()))

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

let sleep dt =
  if Float.is_nan dt then invalid_arg "Proc.sleep: duration is NaN";
  if dt < 0.0 then invalid_arg "Proc.sleep: negative duration";
  let p = self () in
  suspend (fun waker -> Engine.post p.engine ~delay:dt (fun () -> ignore (waker ())))

let yield () = sleep 0.0

let join other =
  match other.state with
  | Exited reason -> reason
  | Embryo | Running | Waiting -> suspend (fun waker -> on_exit other (fun r -> ignore (waker r)))
