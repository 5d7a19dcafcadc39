open Simkern
open Simos
module Net = Simnet.Net
module IntSet = Set.Make (Int)

type dev =
  | D_ctrl of Message.t option
  | D_server of Message.t option
  | D_peer of int * Message.t option
  | D_peer_joined of int * Message.t Net.conn
  | D_app of Daemon.app_request
  | D_ckpt_tick of int  (* generation, to ignore stale timers *)

let spawn (env : Env.t) ~rank ~host ~incarnation =
  let eng = env.Env.eng in
  let cluster = env.Env.cluster in
  let cfg = env.Env.cfg in
  let name = Printf.sprintf "vdaemon-%d" rank in
  let src = Printf.sprintf "v2daemon-%d" rank in
  let trace ?level event fmt = Engine.record ?level eng ~source:src ~event fmt in
  Cluster.spawn_on cluster ~host ~name (fun () ->
      let app_proc = ref None in
      let vars =
        Daemon.register env.Env.fci ~host
          ~name:(Printf.sprintf "rank%d@%d" rank host)
          ~main:(Proc.self ())
          ~children:(fun f -> Option.iter f !app_proc)
      in
      trace ~level:Trace.Full "daemon-start" "host %d incarnation %d" host incarnation;
      Daemon.startup_delay cfg env.Env.rng;
      match
        Net.connect env.Env.net ~host ~to_host:env.Env.dispatcher_host
          ~to_port:Config.dispatcher_port
      with
      | Error `Refused -> trace "daemon-abort" "dispatcher unreachable"
      | Ok dconn -> (
          ignore (Net.send dconn (Message.Hello { rank; incarnation }));
          Daemon.handshake env.Env.fci ~host;
          (* Restore walks the same failover ladder as the vcl daemon;
             only when no replica is reachable at all is the checkpoint
             declared lost. *)
          match Daemon.restore env ~source:src ~host ~rank ~incarnation with
          | `Lost ->
              trace "ckpt-lost" "rank %d: no storage replica reachable" rank;
              ignore (Net.send dconn (Message.Ckpt_lost_report { rank }));
              trace "daemon-abort" "checkpoint storage lost"
          | `Image image ->
          Proc.sleep Daemon.restart_settle;
          (match image with
          | Some img -> trace ~level:Trace.Full "restored" "wave %d" img.Message.img_wave
          | None -> trace ~level:Trace.Full "restored" "fresh");
          let listener = Net.listen env.Env.net ~host ~port:Config.daemon_port in
          Fun.protect ~finally:(fun () -> Net.close_listener listener) @@ fun () ->
          let events : dev Mailbox.t = Mailbox.create () in
          ignore
            (Daemon.accept cluster ~host ~name listener
               (fun conn -> function
                 | Message.Peer_hello { rank = peer } -> Some (D_peer_joined (peer, conn))
                 | _ -> None)
               events);
          (* Stores ride the failover ladder too: reconnect to the
             primary if it came back, else to the mirror. *)
          let storage =
            Daemon.storage env ~source:src ~host ~rank (fun m -> D_server m) events
          in
          Net.forward dconn (fun m -> Mailbox.send events (D_ctrl m));
          ignore (Net.send dconn (Message.Ready { rank }));

          (* ---------------- protocol state ---------------- *)
          let n = cfg.Config.n_ranks in
          let lazy_mesh = cfg.Config.lazy_peer_mesh in
          let rank_hosts = ref [||] in
          let peer_conns : (int, Message.t Net.conn) Hashtbl.t = Hashtbl.create 16 in
          let matching : int Proc.slot Matching.t = Matching.create () in
          let seen = Dedup.create () in
          let redelivery : Message.app_msg list ref = ref [] in
          let committed_state = ref [||] in
          (* sender-based logging state *)
          let next_ssn : (int, int) Hashtbl.t = Hashtbl.create 16 in
          let send_log : (int, (int * Message.app_msg) list) Hashtbl.t = Hashtbl.create 16 in
          (* per-sender highest received ssn (FIFO channels: contiguous) *)
          let received : (int, int) Hashtbl.t = Hashtbl.create 16 in
          let local_wave = ref 0 in
          (* (wave, reception bounds at the snapshot): the GC broadcast
             must use the bounds the image covers, not the bounds at
             Store_done time — messages arriving during the transfer are
             not in the image and must stay in the senders' logs. *)
          let ckpt_in_flight : (int * (int * int) list) option ref = ref None in
          let ckpt_gen = ref 0 in
          (* peers we must ask for a resend once they are reachable *)
          let resend_pending = ref IntSet.empty in
          (match image with
          | None -> committed_state := Array.make env.Env.app.App.state_size 0
          | Some img ->
              committed_state := Array.copy img.Message.img_state;
              local_wave := img.Message.img_wave;
              Dedup.add_keys seen img.Message.img_seen;
              List.iter (fun (src, ssn) -> Hashtbl.replace received src ssn)
                img.Message.img_received;
              List.iter
                (fun (dst, entries) -> Hashtbl.replace send_log dst entries)
                img.Message.img_send_log;
              List.iter
                (fun (dst, ssn) -> Hashtbl.replace next_ssn dst ssn)
                img.Message.img_next_ssn;
              Matching.restore matching (img.Message.img_redelivery @ img.Message.img_buffer));

          let consumed_bounds () =
            Hashtbl.fold (fun src ssn acc -> (src, ssn) :: acc) received []
          in
          let join_peer peer conn =
            (* Under a lazy mesh a simultaneous cross-connect can race
               this accept with a connect of our own; each side keeps the
               first connection it obtained for its sends, so per-sender
               ssns stay contiguous on a single FIFO channel. *)
            if not (lazy_mesh && Hashtbl.mem peer_conns peer) then
              Hashtbl.replace peer_conns peer conn;
            Net.forward conn (fun m -> Mailbox.send events (D_peer (peer, m)));
            if IntSet.mem peer !resend_pending then begin
              resend_pending := IntSet.remove peer !resend_pending;
              ignore (Net.send conn (Message.Resend { rank; consumed = consumed_bounds () }))
            end
          in
          let connect_peer peer peer_host =
            match Net.connect env.Env.net ~host ~to_host:peer_host ~to_port:Config.daemon_port with
            | Ok conn ->
                ignore (Net.send conn (Message.Peer_hello { rank }));
                join_peer peer conn;
                true
            | Error `Refused ->
                trace ~level:Trace.Full "peer-connect-failed" "%d" peer;
                false
          in
          let forward_send (m : Message.app_msg) =
            (* Log before sending: a resend must be possible even if the
               wire send fails (the peer may be restarting). *)
            let dst = m.Message.dst in
            let ssn = Option.value ~default:1 (Hashtbl.find_opt next_ssn dst) in
            Hashtbl.replace next_ssn dst (ssn + 1);
            Hashtbl.replace send_log dst
              ((ssn, m) :: Option.value ~default:[] (Hashtbl.find_opt send_log dst));
            (* Lazy mesh: open the channel on first send. *)
            if
              (not (Hashtbl.mem peer_conns dst))
              && lazy_mesh
              && Array.length !rank_hosts > dst
            then ignore (connect_peer dst (!rank_hosts).(dst));
            match Hashtbl.find_opt peer_conns dst with
            | Some conn ->
                if not (Net.send conn ~size:m.Message.bytes (Message.App_logged { msg = m; ssn }))
                then trace ~level:Trace.Full "send-deferred" "to %d (closed, logged)" dst
            | None -> trace ~level:Trace.Full "send-deferred" "to %d (no connection, logged)" dst
          in
          let schedule_tick delay =
            incr ckpt_gen;
            let gen = !ckpt_gen in
            Engine.post eng ~delay (fun () -> Mailbox.send events (D_ckpt_tick gen))
          in
          let take_checkpoint () =
            match !ckpt_in_flight with
            | Some _ -> trace ~level:Trace.Full "checkpoint-skipped" "previous still in flight"
            | None ->
                incr local_wave;
                let wave = !local_wave in
                let logged_msgs =
                  Hashtbl.fold
                    (fun _ entries acc -> List.map snd entries @ acc)
                    send_log []
                in
                let buffer = Matching.buffered matching in
                let img_bytes =
                  Message.image_bytes ~state_bytes:env.Env.state_bytes
                    (buffer @ !redelivery @ logged_msgs)
                in
                let img =
                  {
                    Message.img_rank = rank;
                    img_wave = wave;
                    img_state = Array.copy !committed_state;
                    img_buffer = buffer;
                    img_redelivery = !redelivery;
                    img_logged = [];
                    img_seen = Dedup.keys seen;
                    img_received = consumed_bounds ();
                    img_send_log =
                      Hashtbl.fold (fun dst entries acc -> (dst, entries) :: acc) send_log [];
                    img_next_ssn =
                      Hashtbl.fold (fun dst ssn acc -> (dst, ssn) :: acc) next_ssn [];
                    img_bytes;
                  }
                in
                Local_disk.store env.Env.disk ~host img;
                ckpt_in_flight := Some (wave, img.Message.img_received);
                (match Daemon.ensure_storage storage with
                | Some conn -> ignore (Net.send conn (Message.Store { image = img }))
                | None -> ckpt_in_flight := None);
                trace ~level:Trace.Full "local-checkpoint" "wave %d" wave
          in
          let spawn_app () =
            let state =
              match image with
              | Some img -> Array.copy img.Message.img_state
              | None -> Array.make env.Env.app.App.state_size 0
            in
            committed_state := Array.copy state;
            let ctx =
              Daemon.app_ctx env.Env.rng ~rank ~size:n ~state
                ~set_app_var:(Fci.Control.set_var vars) (fun r -> Mailbox.send events (D_app r))
            in
            let p =
              Cluster.spawn_on cluster ~host ~name:(Printf.sprintf "mpi-%d" rank) (fun () ->
                  env.Env.app.App.main ctx)
            in
            app_proc := Some p;
            (* Independent checkpoint cadence, desynchronised across
               ranks. *)
            schedule_tick (Rng.float env.Env.rng cfg.Config.wave_interval);
            trace ~level:Trace.Full "app-start" ""
          in
          let handle_resend peer consumed =
            let bound =
              Option.value ~default:0 (List.assoc_opt rank consumed)
            in
            match Hashtbl.find_opt peer_conns peer with
            | None -> trace ~level:Trace.Full "resend-no-conn" "%d" peer
            | Some conn ->
                let entries =
                  Option.value ~default:[] (Hashtbl.find_opt send_log peer)
                  |> List.filter (fun (ssn, _) -> ssn > bound)
                  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
                in
                trace ~level:Trace.Full "resend" "%d messages to %d (> ssn %d)"
                  (List.length entries) peer bound;
                List.iter
                  (fun (ssn, m) ->
                    ignore
                      (Net.send conn ~size:m.Message.bytes (Message.App_logged { msg = m; ssn })))
                  entries
          in
          let rec loop () =
            match Mailbox.recv events with
            | D_ctrl None -> trace "daemon-exit" "dispatcher connection lost"
            | D_ctrl (Some Message.Terminate) ->
                Option.iter Proc.kill !app_proc;
                trace "daemon-exit" "terminated on order"
            | D_ctrl (Some Message.Shutdown) ->
                Option.iter Proc.kill !app_proc;
                trace "daemon-exit" "shutdown"
            | D_ctrl (Some (Message.Start { rank_hosts = hosts; resume })) ->
                rank_hosts := hosts;
                trace ~level:Trace.Full (if resume then "resume" else "start") "";
                if resume then begin
                  (* I am the restarted rank: rebuild the full mesh and ask
                     every reachable peer for its logged messages. Even
                     under a lazy mesh every peer must be asked — a
                     first-contact message can be logged at a sender this
                     rank has no local record of. *)
                  for peer = 0 to n - 1 do
                    if peer <> rank then
                      if connect_peer peer hosts.(peer) then
                        ignore
                          (Net.send (Hashtbl.find peer_conns peer)
                             (Message.Resend { rank; consumed = consumed_bounds () }))
                      else resend_pending := IntSet.add peer !resend_pending
                  done;
                  spawn_app ()
                end
                else if lazy_mesh then spawn_app ()
                else begin
                  for peer = 0 to rank - 1 do
                    ignore (connect_peer peer hosts.(peer))
                  done;
                  if Hashtbl.length peer_conns = n - 1 then spawn_app ()
                end;
                loop ()
            | D_ctrl (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from dispatcher: %a" Message.pp msg);
                loop ()
            | D_peer_joined (peer, conn) ->
                join_peer peer conn;
                if
                  (not lazy_mesh)
                  && (not (Option.is_some !app_proc))
                  && Hashtbl.length peer_conns = n - 1
                then spawn_app ();
                loop ()
            | D_peer (peer, None) ->
                Hashtbl.remove peer_conns peer;
                trace ~level:Trace.Full "peer-lost" "%d" peer;
                loop ()
            | D_peer (_, Some (Message.App_logged { msg = m; ssn })) ->
                let src = m.Message.src in
                let bound = Option.value ~default:0 (Hashtbl.find_opt received src) in
                if ssn > bound then Hashtbl.replace received src ssn;
                if Dedup.mem seen ~src ~tag:m.Message.tag then
                  trace "duplicate-dropped" "%d->%d tag %d" src m.Message.dst m.Message.tag
                else begin
                  Dedup.add seen ~src ~tag:m.Message.tag;
                  Daemon.deliver matching ~redelivery m
                end;
                loop ()
            | D_peer (peer, Some (Message.Log_gc { rank = _; consumed })) ->
                (match List.assoc_opt rank consumed with
                | Some bound ->
                    let entries =
                      Option.value ~default:[] (Hashtbl.find_opt send_log peer)
                      |> List.filter (fun (ssn, _) -> ssn > bound)
                    in
                    Hashtbl.replace send_log peer entries
                | None -> ());
                loop ()
            | D_peer (peer, Some (Message.Resend { rank = _; consumed })) ->
                handle_resend peer consumed;
                loop ()
            | D_peer (peer, Some msg) ->
                trace "protocol-error" "%s"
                  (Format.asprintf "from peer %d: %a" peer Message.pp msg);
                loop ()
            | D_server None ->
                (* The storage connection died: an in-flight store will
                   never be acked, so abandon it (the next tick retries
                   over a reconnected ladder) instead of wedging the
                   checkpoint cadence behind a dead server. *)
                (match !ckpt_in_flight with
                | Some (w, _) ->
                    ckpt_in_flight := None;
                    trace ~level:Trace.Full "checkpoint-abandoned"
                      "wave %d: storage connection lost" w
                | None -> ());
                loop ()
            | D_server (Some (Message.Store_done { wave })) ->
                (match !ckpt_in_flight with
                | Some (w, snapshot_bounds) when w = wave ->
                    ckpt_in_flight := None;
                    (match Daemon.storage_link storage with
                    | Some conn -> ignore (Net.send conn (Message.Commit_rank { rank; wave }))
                    | None -> ());
                    (* Senders may prune their logs of everything this
                       checkpoint covers — the bounds at the snapshot, not
                       at Store_done time. *)
                    let gc = Message.Log_gc { rank; consumed = snapshot_bounds } in
                    Hashtbl.iter (fun _peer conn -> ignore (Net.send conn gc)) peer_conns;
                    Fci.Control.set_var vars "wave" wave;
                    trace ~level:Trace.Full "checkpoint-committed" "wave %d" wave
                | Some _ | None -> ());
                loop ()
            | D_server (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from server: %a" Message.pp msg);
                loop ()
            | D_ckpt_tick gen ->
                if gen = !ckpt_gen && Option.is_some !app_proc then begin
                  take_checkpoint ();
                  schedule_tick cfg.Config.wave_interval
                end;
                loop ()
            | D_app (Daemon.A_send m) ->
                forward_send m;
                loop ()
            | D_app (A_recv { src; tag; reply }) ->
                Daemon.serve matching ~redelivery ~dst:rank ~src ~tag reply;
                loop ()
            | D_app (A_commit snapshot) ->
                committed_state := snapshot;
                redelivery := [];
                loop ()
            | D_app A_finalize ->
                ignore (Net.send dconn (Message.Rank_done { rank }));
                trace ~level:Trace.Full "rank-done" "";
                loop ()
          in
          loop ()))
