open Simkern
module Net = Simnet.Net
module Config = Mpivcl.Config

(* The ulfm dispatcher is deliberately thin: it launches the daemon
   population, fires the start gun once everyone is ready, and collects
   per-rank completions and per-epoch shrink reports. Unlike the
   rollback dispatchers it never relaunches anything after the start —
   shrink-and-continue means failed daemons stay failed and the
   survivors cope. The run completes when every logical rank finalized
   somewhere, and aborts only when the whole population is gone (each
   daemon's own abort reason, if any, is kept for the verdict). *)

type outcome = Mpivcl.Dispatch.outcome = Completed of float | Aborted of string

type ev =
  | E_hello of int * int * Umsg.t Net.conn
  | E_msg of int * int * Umsg.t
  | E_closed of int * int
  | E_spawn_died of int * int

type t = {
  env : Uenv.t;
  result : outcome Ivar.t;
  mutable latest_epoch : int;
  mutable survivors_latest : int;
  mutable ballots_sum : int;
  mutable promoted_sum : int;
  mutable adopted_sum : int;
  mutable abort_reason : string option;
  mutable divergent : bool;
}

let trace ?level t event fmt = Engine.record ?level t.env.Uenv.eng ~source:"udispatcher" ~event fmt

let spawn (env : Uenv.t) ~host =
  let eng = env.Uenv.eng in
  let cluster = env.Uenv.cluster in
  let cfg = env.Uenv.cfg in
  let n = cfg.Config.n_ranks in
  let population = env.Uenv.population in
  let t =
    {
      env;
      result = Ivar.create ();
      latest_epoch = 0;
      survivors_latest = 0;
      ballots_sum = 0;
      promoted_sum = 0;
      adopted_sum = 0;
      abort_reason = None;
      divergent = false;
    }
  in
  let events : ev Mailbox.t = Mailbox.create () in
  let conns : Umsg.t Net.conn option array = Array.make population None in
  let incs = Array.make population 0 in
  let daemons : Proc.t option array = Array.make population None in
  let ready = Array.make population false in
  let dead = Array.make population false in
  let rank_done = Array.make n false in
  let reported_epochs : (int, int list * int) Hashtbl.t = Hashtbl.create 8 in
  let started = ref false in
  let finished = ref false in
  (* A relaunch first ends the incarnation it replaces, as a real
     dispatcher's ssh would: a daemon cut off from the dispatcher still
     holds its port, and its successor on the same host could not bind
     it. The old daemon's death report carries a stale incarnation. *)
  let launch ~id =
    Option.iter Proc.kill daemons.(id);
    incs.(id) <- incs.(id) + 1;
    let inc = incs.(id) in
    trace ~level:Trace.Full t "launch" "daemon %d on host %d (inc %d)" id id inc;
    Mpivcl.Dispatch.ssh cluster ~host ~name:(Printf.sprintf "ssh-udaemon%d" id) cfg ~inc
      (fun () ->
        let p = Udaemon.spawn env ~id ~incarnation:inc in
        daemons.(id) <- Some p;
        p)
      (E_spawn_died (id, inc)) events
  in
  let broadcast msg =
    Array.iter (function Some conn -> ignore (Net.send conn msg) | None -> ()) conns
  in
  let maybe_start () =
    if (not !started) && Array.for_all Fun.id ready then begin
      started := true;
      let ids = List.init population Fun.id in
      broadcast (Umsg.Start { ids });
      trace t "app-started" "%d daemons (%d ranks, %d spares)" population n (population - n)
    end
  in
  let maybe_aborted () =
    if !started && (not !finished) && Array.for_all Fun.id dead then begin
      finished := true;
      let reason = Option.value ~default:"all daemons lost" t.abort_reason in
      trace t "app-aborted" "%s" reason;
      Ivar.fill t.result (Aborted reason)
    end
  in
  let handle_rank_done rank =
    if rank >= 0 && rank < n && not rank_done.(rank) then begin
      rank_done.(rank) <- true;
      trace ~level:Trace.Full t "rank-finished" "rank %d" rank;
      if (not !finished) && Array.for_all Fun.id rank_done then begin
        finished := true;
        broadcast Umsg.Shutdown;
        trace t "app-completed" "";
        Ivar.fill t.result (Completed (Engine.now eng))
      end
    end
  in
  let handle_report ~epoch ~survivors ~promoted ~adopted ~ballots ~restart ~members =
    (* Every surviving member reports each installed epoch. The first
       report's tallies win; every later report must carry the same
       membership and restart point — a mismatch means two sides decided
       the same epoch differently (split-brain), which the agreement is
       supposed to make impossible, so it flags the run as buggy. *)
    match Hashtbl.find_opt reported_epochs epoch with
    | Some (members0, restart0) ->
        if members0 <> members || restart0 <> restart then begin
          t.divergent <- true;
          trace t "split-brain" "epoch %d decided twice: [%s]@%d vs [%s]@%d" epoch
            (String.concat "," (List.map string_of_int members0))
            restart0
            (String.concat "," (List.map string_of_int members))
            restart
        end
    | None ->
        Hashtbl.replace reported_epochs epoch (members, restart);
        t.ballots_sum <- t.ballots_sum + ballots;
        t.promoted_sum <- t.promoted_sum + promoted;
        t.adopted_sum <- t.adopted_sum + adopted;
        if epoch > t.latest_epoch then begin
          t.latest_epoch <- epoch;
          t.survivors_latest <- survivors
        end;
        trace t "shrink" "epoch %d: %d members, %d survivors, restart iteration %d" epoch
          (List.length members) survivors restart
  in
  let handle_event = function
    | E_hello (id, inc, conn) ->
        if inc = incs.(id) && not !finished then begin
          (match conns.(id) with Some old when old != conn -> Net.close old | _ -> ());
          conns.(id) <- Some conn;
          trace ~level:Trace.Full t "daemon-registered" "daemon %d inc %d" id inc;
          (* a reconnecting daemon missed the start gun *)
          if !started then ignore (Net.send conn (Umsg.Start { ids = List.init population Fun.id }))
        end
        else Net.close conn
    | E_msg (id, inc, msg) ->
        if inc = incs.(id) && not !finished then begin
          match msg with
          | Umsg.Ready _ ->
              ready.(id) <- true;
              maybe_start ()
          | Umsg.Rank_done { rank } -> handle_rank_done rank
          | Umsg.Epoch_report { epoch; members; survivors; promoted; adopted; ballots; restart }
            ->
              handle_report ~epoch ~survivors ~promoted ~adopted ~ballots ~restart ~members
          | Umsg.Abort { id = from; reason } ->
              trace t "daemon-abort" "daemon %d: %s" from reason;
              if t.abort_reason = None then t.abort_reason <- Some reason
          | msg ->
              trace t "protocol-error" "%s" (Format.asprintf "from daemon %d: %a" id Umsg.pp msg)
        end
    | E_closed (id, inc) ->
        if inc = incs.(id) && not !finished then begin
          conns.(id) <- None;
          if not !started then begin
            (* start-up failure: plain retry, the shrink machinery only
               guards the computation *)
            ready.(id) <- false;
            trace ~level:Trace.Full t "spawn-retry" "daemon %d lost before start" id;
            launch ~id
          end
        end
    | E_spawn_died (id, inc) ->
        if inc = incs.(id) && not !finished then
          if !started then begin
            dead.(id) <- true;
            trace ~level:Trace.Full t "daemon-dead" "daemon %d" id;
            maybe_aborted ()
          end
          else begin
            ready.(id) <- false;
            launch ~id
          end
  in
  Mpivcl.Dispatch.serve cluster ~host ~name:"udispatcher" env.Uenv.net
    ~hello:(function
      | Umsg.Hello { id; inc } when id >= 0 && id < population -> Some (id, inc) | _ -> None)
    ~registered:(fun (id, inc) conn -> E_hello (id, inc, conn))
    ~msg:(fun (id, inc) msg -> E_msg (id, inc, msg))
    ~closed:(fun (id, inc) -> E_closed (id, inc))
    events
    ~start:(fun () ->
      for id = 0 to population - 1 do
        launch ~id
      done)
    handle_event;
  t

let outcome t = Ivar.read t.result
let peek_outcome t = Ivar.peek t.result
let shrinks t = t.latest_epoch
let survivors t = if t.latest_epoch >= 1 then Some t.survivors_latest else None
let ballots t = t.ballots_sum
let promoted t = t.promoted_sum
let adopted t = t.adopted_sum
let abort_reason t = t.abort_reason
let divergent t = t.divergent
