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

let pp_exit_reason ppf = function
  | Exit_normal -> Format.pp_print_string ppf "normal"
  | Exit_killed -> Format.pp_print_string ppf "killed"
  | Exit_crashed exn -> Format.fprintf ppf "crashed(%s)" (Printexc.to_string exn)

let pp_state ppf = function
  | Embryo -> Format.pp_print_string ppf "embryo"
  | Running -> Format.pp_print_string ppf "running"
  | Waiting -> Format.pp_print_string ppf "waiting"
  | Exited r -> Format.fprintf ppf "exited(%a)" pp_exit_reason r

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

(* Deliver a resumption step for [p]. Flags are re-checked at execution
   time, so a kill or freeze issued between scheduling and delivery is
   honoured. *)
let rec deliver p step =
  Engine.schedule p.engine (fun () -> run_step p step) |> ignore

and run_step p step =
  match p.state with
  | Exited _ -> ()
  | Embryo | Running | Waiting ->
      if p.frozen then p.pending <- p.pending @ [ (fun () -> run_step p step) ]
      else begin
        p.state <- Running;
        step ()
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
                          Engine.schedule p.engine (fun () ->
                              match p.state with
                              | Exited _ -> ()
                              | Embryo | Running | Waiting ->
                                  p.state <- Running;
                                  discontinue k Killed)
                          |> ignore
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
                          deliver p (fun () -> continue k v);
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
    match p.state with
    | Exited _ -> ()
    | Embryo | Running | Waiting ->
        if p.doomed then finish p Exit_killed
        else begin
          p.state <- Running;
          Effect.Deep.match_with body () (handler p)
        end
  in
  Engine.schedule eng (fun () -> run_step p start) |> ignore;
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
    List.iter (fun thunk -> Engine.schedule p.engine thunk |> ignore) buffered
  end

let on_exit p hook =
  match p.state with
  | Exited reason -> hook reason
  | Embryo | Running | Waiting -> p.exit_hooks <- hook :: p.exit_hooks

let self () = Effect.perform Self

let suspend register = Effect.perform (Suspend register)

let sleep dt =
  if dt < 0.0 then invalid_arg "Proc.sleep: negative duration";
  let p = self () in
  suspend (fun waker ->
      Engine.schedule p.engine ~delay:dt (fun () -> ignore (waker ())) |> ignore)

let yield () = sleep 0.0

let join other =
  match other.state with
  | Exited reason -> reason
  | Embryo | Running | Waiting -> suspend (fun waker -> on_exit other (fun r -> ignore (waker r)))
