open Simkern
module Net = Simnet.Net

type outcome = Dispatch.outcome = Completed of float | Aborted of string

type rstate =
  | R_launching
  | R_registered
  | R_ready
  | R_computing
  | R_stopping
  | R_forgotten

type rank_info = {
  mutable ri_host : int;
  mutable ri_inc : int;
  mutable ri_conn : Message.t Net.conn option;
  mutable ri_st : rstate;
  mutable ri_finished : bool;
}

type ev =
  | E_hello of int * int * Message.t Net.conn
  | E_msg of int * int * Message.t
  | E_closed of int * int
  | E_spawn_died of int * int

type t = {
  env : Env.t;
  result : outcome Ivar.t;
  mutable recovery_count : int;
  mutable is_confused : bool;
  mutable is_race_lost : bool;
  mutable is_ckpt_lost : bool;
}

let trace ?level t event fmt = Engine.record ?level t.env.Env.eng ~source:"dispatcher" ~event fmt

let state_name = function
  | R_launching -> "launching"
  | R_registered -> "registered"
  | R_ready -> "ready"
  | R_computing -> "computing"
  | R_stopping -> "stopping"
  | R_forgotten -> "forgotten"

let spawn (env : Env.t) ~host ~initial_hosts ~spare_limit =
  let eng = env.Env.eng in
  let cluster = env.Env.cluster in
  let cfg = env.Env.cfg in
  let n = cfg.Config.n_ranks in
  let t =
    { env; result = Ivar.create (); recovery_count = 0; is_confused = false;
      is_race_lost = false; is_ckpt_lost = false }
  in
  let events : ev Mailbox.t = Mailbox.create () in
  let ranks =
    Array.init n (fun r ->
        { ri_host = initial_hosts.(r); ri_inc = -1; ri_conn = None; ri_st = R_launching; ri_finished = false })
  in
  (* Counts kept in step with [ranks], so that the all-ready and
     all-finished checks made on every Ready and Rank_done are O(1)
     rather than a scan of every rank. *)
  let n_ready = ref 0 and n_finished = ref 0 in
  let set_state info st =
    if info.ri_st = R_ready then decr n_ready;
    if st = R_ready then incr n_ready;
    info.ri_st <- st
  in
  let free_hosts =
    let used = Array.make spare_limit false in
    Array.iter (fun h -> if h < spare_limit then used.(h) <- true) initial_hosts;
    ref (List.filter (fun h -> not used.(h)) (List.init spare_limit Fun.id))
  in
  (* Recovering until the first Start broadcast; then Steady until a
     failure. *)
  let steady = ref false in
  let completed = ref false in
  let launch r =
    let info = ranks.(r) in
    info.ri_inc <- info.ri_inc + 1;
    info.ri_conn <- None;
    set_state info R_launching;
    let inc = info.ri_inc in
    let target_host = info.ri_host in
    trace ~level:Trace.Full t "launch" "rank %d on host %d (inc %d)" r target_host inc;
    Dispatch.ssh cluster ~host ~name:(Printf.sprintf "ssh-rank%d" r) cfg ~inc
      (fun () ->
        if Config.restarts_all_ranks cfg then
          Vdaemon.spawn env ~rank:r ~host:target_host ~incarnation:inc
        else V2_daemon.spawn env ~rank:r ~host:target_host ~incarnation:inc)
      (E_spawn_died (r, inc)) events
  in
  let move_to_spare r =
    let info = ranks.(r) in
    match !free_hosts with
    | [] -> trace ~level:Trace.Full t "no-spare" "rank %d restarts in place" r
    | spare :: rest ->
        free_hosts := rest @ [ info.ri_host ];
        trace ~level:Trace.Full t "reallocate" "rank %d: host %d -> %d" r info.ri_host spare;
        info.ri_host <- spare
  in
  let old_stopping () =
    Array.fold_left (fun acc info -> if info.ri_st = R_stopping then acc + 1 else acc) 0 ranks
  in
  let begin_recovery ~failed =
    t.recovery_count <- t.recovery_count + 1;
    steady := false;
    trace t "recovery-start" "#%d triggered by rank %d" t.recovery_count failed;
    Array.iteri
      (fun r info ->
        if r <> failed then
          match (info.ri_st, info.ri_conn) with
          | (R_computing | R_ready | R_registered), Some conn ->
              ignore (Net.send conn Message.Terminate);
              set_state info R_stopping
          | (R_computing | R_ready | R_registered), None | (R_launching | R_stopping | R_forgotten), _
            ->
              ())
      ranks
  in
  let maybe_start () =
    if !n_ready = n then begin
      let rank_hosts = Array.map (fun info -> info.ri_host) ranks in
      let resume = t.recovery_count > 0 in
      Array.iter
        (fun info ->
          (match info.ri_conn with
          | Some conn -> ignore (Net.send conn (Message.Start { rank_hosts; resume }))
          | None -> ());
          set_state info R_computing)
        ranks;
      steady := true;
      trace t (if resume then "recovery-complete" else "app-started") ""
    end
  in
  let handle_closed r inc =
    let info = ranks.(r) in
    if inc = info.ri_inc && not !completed then begin
      match info.ri_st with
      | R_stopping ->
          (* Old-wave daemon terminated as ordered: relaunch in place,
             eagerly. *)
          trace ~level:Trace.Full t "old-wave-stopped" "rank %d" r;
          launch r
      | R_computing when !steady ->
          (* Failure detection in steady state. *)
          trace t "failure-detected" "rank %d" r;
          if Config.restarts_all_ranks cfg then begin
            begin_recovery ~failed:r;
            move_to_spare r;
            launch r
          end
          else begin
            (* Sender-logging protocol: restart the failed rank only. *)
            t.recovery_count <- t.recovery_count + 1;
            move_to_spare r;
            launch r
          end
      | R_registered | R_ready | R_computing ->
          (* Failure of a process already recovered in the new wave while
             the recovery is still in progress. *)
          if cfg.Config.dispatcher_buggy && old_stopping () > 0 then begin
            (* Historical bug (§5.3): the closure is misaccounted as an
               old-wave termination; the rank is forgotten and never
               relaunched — the application freezes. *)
            t.is_confused <- true;
            set_state info R_forgotten;
            trace t "dispatcher-confused" "rank %d lost while %d old-wave daemons still stopping"
              r (old_stopping ())
          end
          else if cfg.Config.vcl_seeded_race && t.recovery_count > 0 && not !steady then begin
            (* Seeded defect for the explorer demo (§6 shape, flag-gated,
               off by default): a rank that already re-registered in the
               current recovery wave dies again before the wave reaches
               steady state, and the dispatcher drops it on the floor —
               it takes a second, well-timed fault to reach this state. *)
            t.is_race_lost <- true;
            let was = state_name info.ri_st in
            set_state info R_forgotten;
            trace t "dispatcher-race" "rank %d (%s) lost mid-recovery, wave #%d" r was
              t.recovery_count
          end
          else begin
            trace ~level:Trace.Full t "new-wave-failure" "rank %d (handled)" r;
            move_to_spare r;
            launch r
          end
      | R_launching | R_forgotten ->
          trace ~level:Trace.Full t "closure-ignored" "rank %d in state %s" r
            (state_name info.ri_st)
    end
  in
  let handle_event = function
    | E_hello (r, inc, conn) ->
        let info = ranks.(r) in
        if inc = info.ri_inc && info.ri_st = R_launching && not !completed then begin
          info.ri_conn <- Some conn;
          set_state info R_registered;
          trace ~level:Trace.Full t "rank-registered" "rank %d inc %d" r inc
        end
        else Net.close conn
    | E_msg (r, inc, msg) -> (
        let info = ranks.(r) in
        if inc = info.ri_inc && not !completed then
          match msg with
          | Message.Ready _ ->
              if info.ri_st = R_registered then
                if (not (Config.restarts_all_ranks cfg)) && !steady then begin
                  (* Sender-logging recovery: only the restarted rank needs
                     to resume; everyone else kept computing. *)
                  let rank_hosts = Array.map (fun i -> i.ri_host) ranks in
                  (match info.ri_conn with
                  | Some conn ->
                      ignore (Net.send conn (Message.Start { rank_hosts; resume = true }))
                  | None -> ());
                  set_state info R_computing;
                  trace t "rank-resumed" "rank %d" r
                end
                else begin
                  set_state info R_ready;
                  maybe_start ()
                end
          | Message.Rank_done _ ->
              if not info.ri_finished then begin
                info.ri_finished <- true;
                incr n_finished
              end;
              if !n_finished = n then begin
                completed := true;
                Array.iter
                  (fun i ->
                    match i.ri_conn with
                    | Some conn -> ignore (Net.send conn Message.Shutdown)
                    | None -> ())
                  ranks;
                trace t "app-completed" "";
                Ivar.fill t.result (Completed (Engine.now eng))
              end
          | Message.Ckpt_lost_report _ ->
              (* The rank needed an image and no storage replica survives:
                 recovery is impossible. Relaunching would just loop, so
                 end the run decisively — a lost checkpoint must surface
                 as a verdict, never as a hang. *)
              t.is_ckpt_lost <- true;
              set_state info R_forgotten;
              completed := true;
              trace t "ckpt-lost" "rank %d: no complete checkpoint image survives" r;
              Array.iter
                (fun i ->
                  match i.ri_conn with
                  | Some conn -> ignore (Net.send conn Message.Shutdown)
                  | None -> ())
                ranks;
              Ivar.fill t.result (Aborted "checkpoint storage lost")
          | msg ->
              trace t "protocol-error" "%s" (Format.asprintf "from rank %d: %a" r Message.pp msg))
    | E_closed (r, inc) -> handle_closed r inc
    | E_spawn_died (r, inc) ->
        let info = ranks.(r) in
        if inc = info.ri_inc && info.ri_st = R_launching && not !completed then begin
          (* The daemon died before registering (e.g. killed between spawn
             and Hello): the dispatcher sees a failed launch and simply
             retries — no wave confusion possible. *)
          trace ~level:Trace.Full t "spawn-failed" "rank %d inc %d, retrying" r inc;
          if !steady then begin
            (* Should not happen: launching implies a recovery or startup
               is in progress. *)
            trace t "anomaly" "spawn death in steady state"
          end;
          move_to_spare r;
          launch r
        end
  in
  Dispatch.serve cluster ~host ~name:"dispatcher" env.Env.net
    ~hello:(function
      | Message.Hello { rank; incarnation } -> Some (rank, incarnation) | _ -> None)
    ~registered:(fun (r, inc) conn -> E_hello (r, inc, conn))
    ~msg:(fun (r, inc) msg -> E_msg (r, inc, msg))
    ~closed:(fun (r, inc) -> E_closed (r, inc))
    events
    ~start:(fun () ->
      (* Initial launch of every rank. *)
      for r = 0 to n - 1 do
        launch r
      done)
    handle_event;
  t

let outcome t = Ivar.read t.result
let peek_outcome t = Ivar.peek t.result
let recoveries t = t.recovery_count
let confused t = t.is_confused
let race_lost t = t.is_race_lost
let ckpt_lost t = t.is_ckpt_lost
