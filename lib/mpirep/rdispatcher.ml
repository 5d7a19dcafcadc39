open Simkern
module Net = Simnet.Net
module Config = Mpivcl.Config

type outcome = Mpivcl.Dispatch.outcome = Completed of float | Aborted of string

(* How long the membership layer waits for an in-flight respawn to come
   back live once a rank has {e zero} computing replicas before
   declaring replication exhausted. *)
let failover_window = 30.0

type ev =
  | E_hello of int * int * int * Rmsg.t Net.conn
  | E_msg of int * int * int * Rmsg.t
  | E_closed of int * int * int
  | E_spawn_died of int * int * int
  | E_window of int * int

type t = {
  env : Renv.t;
  result : outcome Ivar.t;
  mutable failover_count : int;
  mutable respawn_count : int;
  mutable is_exhausted : bool;
}

let trace ?level t event fmt = Engine.record ?level t.env.Renv.eng ~source:"rdispatcher" ~event fmt

let spawn (env : Renv.t) ~host ~host_of ~spare_hosts =
  let eng = env.Renv.eng in
  let cluster = env.Renv.cluster in
  let cfg = env.Renv.cfg in
  let degree = env.Renv.degree in
  let n = cfg.Config.n_ranks in
  let t =
    {
      env;
      result = Ivar.create ();
      failover_count = 0;
      respawn_count = 0;
      is_exhausted = false;
    }
  in
  let events : ev Mailbox.t = Mailbox.create () in
  let members : Rmsg.t Net.conn Member.t = Member.create ~n_ranks:n ~degree ~host_of in
  let free_hosts = ref spare_hosts in
  let steady = ref false in
  let finished_run = ref false in
  (* per-rank token invalidating failover-window timers once the rank is
     live (or finished) again *)
  let window_token = Array.make n 0 in
  let launch ~rank ~slot =
    let info = Member.get members ~rank ~slot in
    info.Member.m_inc <- info.Member.m_inc + 1;
    info.Member.m_conn <- None;
    info.Member.m_state <- Member.Launching;
    let inc = info.Member.m_inc in
    let target_host = info.Member.m_host in
    let resume = info.Member.m_resume in
    trace ~level:Trace.Full t "launch" "replica %d.%d on host %d (inc %d%s)" rank slot target_host
      inc (if resume then ", respawn" else "");
    Mpivcl.Dispatch.ssh cluster ~host ~name:(Printf.sprintf "ssh-replica%d.%d" rank slot) cfg ~inc
      (fun () -> Replica.spawn env ~rank ~slot ~host:target_host ~incarnation:inc ~resume)
      (E_spawn_died (rank, slot, inc)) events
  in
  let move_to_spare ~rank ~slot =
    let info = Member.get members ~rank ~slot in
    match !free_hosts with
    | [] -> trace ~level:Trace.Full t "no-spare" "replica %d.%d relaunches in place" rank slot
    | spare :: rest ->
        free_hosts := rest @ [ info.Member.m_host ];
        trace ~level:Trace.Full t "reallocate" "replica %d.%d: host %d -> %d" rank slot
          info.Member.m_host spare;
        info.Member.m_host <- spare
  in
  let arm_window ~rank =
    window_token.(rank) <- window_token.(rank) + 1;
    let tok = window_token.(rank) in
    trace t "rank-at-risk" "rank %d has no live replica; failover window %.1fs" rank
      failover_window;
    Engine.post eng ~delay:failover_window (fun () ->
        Mailbox.send events (E_window (rank, tok)))
  in
  let broadcast msg =
    Member.iter
      (fun info ->
        match info.Member.m_conn with
        | Some conn -> ignore (Net.send conn msg)
        | None -> ())
      members
  in
  let exhaust ~rank =
    if not !finished_run then begin
      t.is_exhausted <- true;
      finished_run := true;
      trace t "replication-exhausted" "rank %d lost all %d replicas" rank degree;
      broadcast Rmsg.Shutdown;
      Ivar.fill t.result (Aborted (Printf.sprintf "replication exhausted at rank %d" rank))
    end
  in
  let respawn ~rank ~slot =
    (Member.get members ~rank ~slot).Member.m_resume <- true;
    move_to_spare ~rank ~slot;
    launch ~rank ~slot
  in
  (* A rank just lost its last live replica: at risk if a respawn is in
     flight (bounded by the failover window), exhausted otherwise. *)
  let rank_uncovered ~rank =
    if Member.pending_slots members ~rank <> [] then arm_window ~rank else exhaust ~rank
  in
  let maybe_start () =
    if Member.all_ready members then begin
      let snap = Member.snapshot members in
      Member.iter
        (fun info ->
          (match info.Member.m_conn with
          | Some conn ->
              ignore (Net.send conn (Rmsg.Start { members = snap; resume = false; donor = None }))
          | None -> ());
          info.Member.m_state <- Member.Computing)
        members;
      steady := true;
      trace t "app-started" ""
    end
  in
  let handle_hello rank slot inc conn =
    let info = Member.get members ~rank ~slot in
    if inc = info.Member.m_inc && info.Member.m_state = Member.Launching && not !finished_run
    then begin
      info.Member.m_conn <- Some conn;
      info.Member.m_state <- Member.Registered;
      trace ~level:Trace.Full t "replica-registered" "replica %d.%d inc %d" rank slot inc;
      if info.Member.m_resume then
        if Member.finished members ~rank then begin
          (* the rank completed while this respawn was in flight *)
          ignore (Net.send conn Rmsg.Shutdown);
          info.Member.m_state <- Member.Dead
        end
        else
          match Member.live_slots members ~rank with
          | donor :: _ ->
              ignore
                (Net.send conn
                   (Rmsg.Start
                      {
                        members = Member.snapshot members;
                        resume = true;
                        donor =
                          Some { Rmsg.mb_slot = donor.Member.slot; mb_host = donor.Member.m_host };
                      }))
          | [] ->
              trace ~level:Trace.Full t "respawn-no-donor" "replica %d.%d has no live sibling" rank
                slot;
              info.Member.m_state <- Member.Dead;
              info.Member.m_conn <- None;
              Net.close conn;
              rank_uncovered ~rank
    end
    else Net.close conn
  in
  let handle_ready rank slot =
    let info = Member.get members ~rank ~slot in
    if info.Member.m_state = Member.Registered then
      if info.Member.m_resume then begin
        info.Member.m_resume <- false;
        info.Member.m_state <- Member.Computing;
        t.respawn_count <- t.respawn_count + 1;
        window_token.(rank) <- window_token.(rank) + 1;
        trace t "replica-respawn" "replica %d.%d live again on host %d" rank slot
          info.Member.m_host;
        (* mesh repair: every computing replica of the other ranks opens a
           link to the newcomer *)
        Member.iter
          (fun peer ->
            if peer.Member.rank <> rank && peer.Member.m_state = Member.Computing then
              match peer.Member.m_conn with
              | Some conn ->
                  ignore
                    (Net.send conn
                       (Rmsg.Peer_update { rank; slot; host = info.Member.m_host }))
              | None -> ())
          members
      end
      else begin
        info.Member.m_state <- Member.Ready;
        maybe_start ()
      end
  in
  let handle_rank_done rank slot =
    if not (Member.finished members ~rank) then begin
      Member.mark_finished members ~rank;
      window_token.(rank) <- window_token.(rank) + 1;
      trace ~level:Trace.Full t "rank-finished" "rank %d (replica slot %d first)" rank slot;
      if Member.all_finished members then begin
        finished_run := true;
        broadcast Rmsg.Shutdown;
        trace t "app-completed" "";
        Ivar.fill t.result (Completed (Engine.now eng))
      end
    end
  in
  let handle_closed rank slot inc =
    let info = Member.get members ~rank ~slot in
    if inc = info.Member.m_inc && not !finished_run then
      match info.Member.m_state with
      | Member.Computing when !steady ->
          info.Member.m_state <- Member.Dead;
          info.Member.m_conn <- None;
          if Member.finished members ~rank then
            trace ~level:Trace.Full t "closure-ignored" "replica %d.%d (rank already finished)" rank
              slot
          else begin
            match Member.live_slots members ~rank with
            | _ :: _ as live ->
                (* Failure detection, replication-style: siblings keep
                   computing, nothing rolls back. *)
                t.failover_count <- t.failover_count + 1;
                trace t "replica-failover" "replica %d.%d down, %d live sibling%s" rank slot
                  (List.length live)
                  (if List.length live = 1 then "" else "s");
                respawn ~rank ~slot
            | [] -> rank_uncovered ~rank
          end
      | Member.Registered | Member.Ready ->
          info.Member.m_state <- Member.Dead;
          info.Member.m_conn <- None;
          if not !steady then begin
            (* start-up failure: plain retry, no wave machinery to confuse *)
            trace ~level:Trace.Full t "spawn-retry" "replica %d.%d lost before start" rank slot;
            move_to_spare ~rank ~slot;
            launch ~rank ~slot
          end
          else begin
            trace ~level:Trace.Full t "respawn-interrupted" "replica %d.%d" rank slot;
            match Member.live_slots members ~rank with
            | _ :: _ -> respawn ~rank ~slot
            | [] -> rank_uncovered ~rank
          end
      | Member.Computing | Member.Launching | Member.Dead ->
          trace ~level:Trace.Full t "closure-ignored" "replica %d.%d in state %s" rank slot
            (Member.state_name info.Member.m_state)
  in
  let handle_spawn_died rank slot inc =
    let info = Member.get members ~rank ~slot in
    if inc = info.Member.m_inc && info.Member.m_state = Member.Launching && not !finished_run
    then begin
      trace ~level:Trace.Full t "spawn-failed" "replica %d.%d inc %d" rank slot inc;
      if Member.finished members ~rank then info.Member.m_state <- Member.Dead
      else if not info.Member.m_resume then begin
        move_to_spare ~rank ~slot;
        launch ~rank ~slot
      end
      else begin
        info.Member.m_state <- Member.Dead;
        match Member.live_slots members ~rank with
        | _ :: _ -> respawn ~rank ~slot
        | [] -> rank_uncovered ~rank
      end
    end
  in
  let handle_event = function
    | E_hello (rank, slot, inc, conn) -> handle_hello rank slot inc conn
    | E_msg (rank, slot, inc, msg) -> (
        let info = Member.get members ~rank ~slot in
        if inc = info.Member.m_inc && not !finished_run then
          match msg with
          | Rmsg.Ready _ -> handle_ready rank slot
          | Rmsg.Rank_done _ -> handle_rank_done rank slot
          | msg ->
              trace t "protocol-error" "%s"
                (Format.asprintf "from replica %d.%d: %a" rank slot Rmsg.pp msg))
    | E_closed (rank, slot, inc) -> handle_closed rank slot inc
    | E_spawn_died (rank, slot, inc) -> handle_spawn_died rank slot inc
    | E_window (rank, tok) ->
        if
          tok = window_token.(rank)
          && (not !finished_run)
          && (not (Member.finished members ~rank))
          && Member.live_slots members ~rank = []
        then exhaust ~rank
  in
  Mpivcl.Dispatch.serve cluster ~host ~name:"rdispatcher" env.Renv.net
    ~hello:(function
      | Rmsg.Hello { rank; slot; incarnation } -> Some (rank, slot, incarnation) | _ -> None)
    ~registered:(fun (rank, slot, inc) conn -> E_hello (rank, slot, inc, conn))
    ~msg:(fun (rank, slot, inc) msg -> E_msg (rank, slot, inc, msg))
    ~closed:(fun (rank, slot, inc) -> E_closed (rank, slot, inc))
    events
    ~start:(fun () ->
      for rank = 0 to n - 1 do
        for slot = 0 to degree - 1 do
          launch ~rank ~slot
        done
      done)
    handle_event;
  t

let outcome t = Ivar.read t.result
let peek_outcome t = Ivar.peek t.result
let failovers t = t.failover_count
let respawns t = t.respawn_count
let exhausted t = t.is_exhausted
