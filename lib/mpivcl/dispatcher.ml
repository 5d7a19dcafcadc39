open Simkern
module Net = Simnet.Net

type outcome = Dispatch.outcome = Completed of float | Aborted of string
type t = { result : outcome Ivar.t; mutable state : Recovery.t }

let spawn (env : Env.t) ~host ~initial_hosts ~spare_limit =
  let eng = env.Env.eng and cfg = env.Env.cfg in
  let restarts_all = Config.restarts_all_ranks cfg in
  let state =
    Recovery.create ~n:cfg.Config.n_ranks ~initial_hosts ~spare_limit ~restarts_all
      ~buggy:cfg.Config.dispatcher_buggy ~seeded_race:cfg.Config.vcl_seeded_race
  in
  let t = { result = Ivar.create (); state } in
  (* Each input comes with the connection of a hello, if it is one. *)
  let events : (Recovery.input * Message.t Net.conn option) Mailbox.t = Mailbox.create () in
  let conns = Array.make cfg.Config.n_ranks None in
  let trace ?level event fmt = Engine.record ?level eng ~source:"dispatcher" ~event fmt in
  let perform hello = function
    | Recovery.Send (r, msg) -> Option.iter (fun conn -> ignore (Net.send conn msg)) conns.(r)
    | Accept (r, inc) ->
        conns.(r) <- hello;
        trace ~level:Trace.Full "rank-registered" "rank %d inc %d" r inc
    | Refuse -> Option.iter Net.close hello
    | Launch { rank = r; host = target; inc } ->
        conns.(r) <- None;
        trace ~level:Trace.Full "launch" "rank %d on host %d (inc %d)" r target inc;
        Dispatch.ssh env.Env.cluster ~host ~name:(Printf.sprintf "ssh-rank%d" r) cfg ~inc
          (fun () ->
            if restarts_all then Vdaemon.spawn env ~rank:r ~host:target ~incarnation:inc
            else V2_daemon.spawn env ~rank:r ~host:target ~incarnation:inc)
          (Recovery.Spawn_died (r, inc), None)
          events
    | Trace { level; event; detail } -> trace ~level event "%s" detail
    | Completed -> Ivar.fill t.result (Completed (Engine.now eng))
    | Aborted reason -> Ivar.fill t.result (Aborted reason)
  in
  let step (input, hello) =
    let state, actions = Recovery.step t.state input in
    t.state <- state;
    List.iter (perform hello) actions
  in
  Dispatch.serve env.Env.cluster ~host ~name:"dispatcher" env.Env.net
    ~hello:(function
      | Message.Hello { rank; incarnation } -> Some (rank, incarnation) | _ -> None)
    ~registered:(fun (r, inc) conn -> (Recovery.Hello (r, inc), Some conn))
    ~msg:(fun (r, inc) msg ->
      ( (match msg with
        | Message.Ready _ -> Recovery.Ready (r, inc)
        | Rank_done _ -> Rank_done (r, inc)
        | Ckpt_lost_report _ -> Ckpt_lost (r, inc)
        | msg -> Unexpected (r, inc, msg)),
        None ))
    ~closed:(fun (r, inc) -> (Recovery.Closed (r, inc), None))
    events
    ~start:(fun () -> step (Recovery.Boot, None))
    step;
  t

let outcome t = Ivar.read t.result
let peek_outcome t = Ivar.peek t.result
let recoveries t = Recovery.recoveries t.state
let confused t = Recovery.confused t.state
let race_lost t = Recovery.race_lost t.state
let ckpt_lost t = Recovery.ckpt_lost t.state
