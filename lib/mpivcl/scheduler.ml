open Simkern
open Simos

type t = {
  eng : Engine.t;
  cluster : Cluster.t;
  host : int;
  mutable committed_count : int;
}

let trace ?level t event fmt = Engine.record ?level t.eng ~source:"ckpt-scheduler" ~event fmt

(* How long the scheduler waits for the wave's store acks after
   broadcasting markers before abandoning the wave (traced
   [wave-abandoned]): a dead or frozen checkpoint server degrades the
   wave instead of wedging the scheduler. *)
let store_ack_timeout = 20.0

let spawn eng cluster net ~host ~n_ranks ~wave_interval ~server_hosts =
  let t = { eng; cluster; host; committed_count = 0 } in
  let conns : (int, Message.t Simnet.Net.conn) Hashtbl.t = Hashtbl.create 64 in
  let acks : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let current_wave = ref 0 in
  let next_wave = ref 1 in
  (* Bumped on every (dis)connection: a wave only starts over a connection
     set that was stable for the whole inter-wave sleep, which keeps
     markers from reaching a mix of old- and new-incarnation daemons
     during a recovery. *)
  let last_change = ref 0.0 in
  let last_wave_end = ref 0.0 in
  (* Time of the last store ack from any daemon, current wave or not:
     the liveness signal that wakes a dormant cadence (below). *)
  let last_ack = ref 0.0 in
  let abandoned_streak = ref 0 in
  (* Every state change pings [signal]; the main loop re-checks its
     condition on each ping, so no wake-up is ever lost. *)
  let signal = Mailbox.create () in
  let ping () = Mailbox.send signal () in
  (* The messages of one daemon connection: [Sched_hello] first, then
     store acks until it closes. *)
  let handle_daemon conn =
    let rank = ref `Hello in
    fun m ->
      match (!rank, m) with
      | `Hello, None | `Refused, _ -> ()
      | `Hello, Some (Message.Sched_hello { rank = r }) ->
          rank := `Rank r;
          Hashtbl.replace conns r conn;
          last_change := Engine.now eng;
          trace ~level:Trace.Full t "daemon-connected" "%d" r;
          ping ()
      | `Hello, Some msg ->
          rank := `Refused;
          trace t "protocol-error" "%s"
            (Format.asprintf "expected Sched_hello, got %a" Message.pp msg)
      | `Rank r, None -> (
          (* Only forget the rank if this connection is still the
             registered one (a new incarnation may have replaced it). *)
          match Hashtbl.find_opt conns r with
          | Some c when c == conn ->
              Hashtbl.remove conns r;
              last_change := Engine.now eng;
              trace ~level:Trace.Full t "daemon-lost" "%d" r;
              ping ()
          | Some _ | None -> ())
      | `Rank _, Some (Message.Sched_ack { rank = r; wave }) ->
          last_ack := Engine.now eng;
          if wave = !current_wave then Hashtbl.replace acks r ();
          ping ()
      | `Rank _, Some msg ->
          trace t "protocol-error" "%s" (Format.asprintf "unexpected %a" Message.pp msg)
  in
  ignore
    (Cluster.spawn_on cluster ~host ~name:"ckpt-scheduler" (fun () ->
         let listener = Simnet.Net.listen net ~host ~port:Config.scheduler_port in
         Fun.protect
           ~finally:(fun () -> Simnet.Net.close_listener listener)
           (fun () ->
             (* Persistent connections to the checkpoint servers. *)
             let server_conns =
               List.filter_map
                 (fun server_host ->
                   match
                     Simnet.Net.connect net ~host ~to_host:server_host
                       ~to_port:Config.server_port
                   with
                   | Ok conn -> Some conn
                   | Error `Refused -> None)
                 server_hosts
             in
             ignore
               (Cluster.spawn_on cluster ~host ~name:"ckpt-scheduler-accept" (fun () ->
                    (* Connections are forwarded on behalf of the accept
                       loop, which owns the endpoints. *)
                    let owner = Proc.self () in
                    let rec accept_loop () =
                      match Simnet.Net.accept listener with
                      | None -> ()
                      | Some conn ->
                          Simnet.Net.forward ~owner conn (handle_daemon conn);
                          accept_loop ()
                    in
                    accept_loop ()));
             let wait_until cond =
               while not (cond ()) do
                 ignore (Mailbox.recv signal)
               done
             in
             let rec wave_loop () =
               wait_until (fun () -> Hashtbl.length conns = n_ranks);
               (* A wave starts one interval after the previous wave ended
                  or after the membership last changed, whichever is later:
                  the cadence re-anchors on recoveries (markers never reach
                  a mix of old- and new-incarnation daemons), and the
                  application must survive a full interval after a restart
                  before the next global checkpoint — the mechanism behind
                  the paper's non-terminating runs at high fault
                  frequency. *)
               let target = Float.max !last_change !last_wave_end +. wave_interval in
               let now = Engine.now eng in
               if target > now then Proc.sleep (target -. now);
               if
                 Hashtbl.length conns = n_ranks
                 && Engine.now eng >= Float.max !last_change !last_wave_end +. wave_interval
               then begin
                 let wave = !next_wave in
                 incr next_wave;
                 current_wave := wave;
                 Hashtbl.reset acks;
                 trace ~level:Trace.Full t "wave-start" "%d" wave;
                 Hashtbl.iter
                   (fun _rank conn ->
                     ignore (Simnet.Net.send conn (Message.Sched_marker { wave })))
                   conns;
                 (* Wait for the wave's store acks, but never forever: a
                    dead or frozen checkpoint server means some daemons
                    can never ack, and without a deadline the wave state
                    machine wedges here for good. One marker retry covers
                    a straggler; after that the wave is abandoned and the
                    cadence continues. The timer is cancelled on the fast
                    path, so healthy runs see no new events or traces. *)
                 let rec await_acks attempt =
                   let deadline = Engine.now eng +. store_ack_timeout in
                   let fired = ref false in
                   let timer =
                     Engine.schedule eng ~delay:store_ack_timeout (fun () ->
                         fired := true;
                         ping ())
                   in
                   wait_until (fun () ->
                       Hashtbl.length acks = n_ranks
                       || Hashtbl.length conns < n_ranks
                       || Engine.now eng >= deadline);
                   if not !fired then Engine.cancel timer;
                   if Hashtbl.length acks = n_ranks then `Committed
                   else if Hashtbl.length conns < n_ranks then `Membership
                   else if attempt < 1 then begin
                     trace ~level:Trace.Full t "wave-retry" "%d" wave;
                     Hashtbl.iter
                       (fun rank conn ->
                         if not (Hashtbl.mem acks rank) then
                           ignore (Simnet.Net.send conn (Message.Sched_marker { wave })))
                       conns;
                     await_acks (attempt + 1)
                   end
                   else `Abandoned
                 in
                 (match await_acks 0 with
                 | `Committed ->
                     abandoned_streak := 0;
                     List.iter
                       (fun conn -> ignore (Simnet.Net.send conn (Message.Commit { wave })))
                       server_conns;
                     t.committed_count <- t.committed_count + 1;
                     trace t "wave-commit" "%d" wave
                 | `Membership ->
                     abandoned_streak := 0;
                     trace ~level:Trace.Full t "wave-abort" "%d" wave
                 | `Abandoned ->
                     incr abandoned_streak;
                     trace t "wave-abandoned" "wave %d (%d/%d acks)" wave (Hashtbl.length acks)
                       n_ranks;
                     if !abandoned_streak >= 2 then begin
                       (* Two waves in a row timed out with a stable
                          membership: the application plane is wedged or
                          cut off, and re-arming the cadence would only
                          keep the simulation clock alive — masking the
                          wedge from the classifier's quiescence signal.
                          Sleep timerless until a daemon event (a
                          (re)connection, or an ack finally flushed by a
                          revived server — no marker is in flight, so
                          any ack seen while dormant is such a late
                          flush) shows the plane moving again. *)
                       let c0 = !last_change and a0 = !last_ack in
                       trace t "cadence-dormant" "%d" wave;
                       wait_until (fun () -> !last_change <> c0 || !last_ack <> a0);
                       abandoned_streak := 0
                     end);
                 last_wave_end := Engine.now eng;
                 current_wave := 0
               end;
               wave_loop ()
             in
             wave_loop ())));
  t

let committed_count t = t.committed_count
