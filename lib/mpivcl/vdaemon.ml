open Simkern
open Simos
module Net = Simnet.Net
module IntSet = Set.Make (Int)

(* With probability [term_straggler_prob] a daemon adds uniform
   [0, term_straggler_extra] seconds to its termination (e.g. it was
   mid-transfer) — the run-to-run recovery variance behind the paper's
   "chaotic" times (§5.2). *)
let term_straggler_extra = 14.0

type dev =
  | D_ctrl of Message.t option  (* dispatcher connection; None = closed *)
  | D_sched of Message.t option
  | D_server of Message.t option
  | D_peer of int * Message.t option
  | D_peer_joined of int * Message.t Net.conn
  | D_app of Daemon.app_request

(* In-progress local checkpoint. *)
type ckpt = {
  ck_wave : int;
  mutable ck_channels : IntSet.t;  (* peers whose marker is still awaited *)
  mutable ck_logged : Message.app_msg list;  (* newest first *)
  mutable ck_stored : bool;
  ck_state : int array;
  ck_buffer : Message.app_msg list;
  ck_redelivery : Message.app_msg list;
  ck_seen : int list;
}

let spawn (env : Env.t) ~rank ~host ~incarnation =
  let eng = env.Env.eng in
  let cluster = env.Env.cluster in
  let cfg = env.Env.cfg in
  let name = Printf.sprintf "vdaemon-%d" rank in
  let trace ?level event fmt = Engine.record ?level eng ~source:name ~event fmt in
  Cluster.spawn_on cluster ~host ~name (fun () ->
      let app_proc = ref None in
      (* The FAIL-MPI "task": halting kills both unix processes of the
         rank, exactly like the paper's experiments. *)
      let vars =
        Daemon.register env.Env.fci ~host
          ~name:(Printf.sprintf "rank%d@%d" rank host)
          ~main:(Proc.self ())
          ~children:(fun f -> Option.iter f !app_proc)
      in
      trace ~level:Trace.Full "daemon-start" "host %d incarnation %d" host incarnation;
      (* Process restore and socket setup before the dispatcher sees us. *)
      Daemon.startup_delay cfg env.Env.rng;
      match
        Net.connect env.Env.net ~host ~to_host:env.Env.dispatcher_host
          ~to_port:Config.dispatcher_port
      with
      | Error `Refused -> trace "daemon-abort" "dispatcher unreachable"
      | Ok dconn -> (
          ignore (Net.send dconn (Message.Hello { rank; incarnation }));
          (* Initial argument exchange with the dispatcher, then the
             localMPI_setCommand hook (Figure 10's injection point). *)
          Daemon.handshake env.Env.fci ~host;
          (* Restore the last committed image, if any. Only when every
             storage replica is unreachable is the checkpoint declared
             lost (reported to the dispatcher — recovery was needed and
             no complete image survives). *)
          match Daemon.restore env ~source:name ~host ~rank ~incarnation with
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
          (* Accept peer connections; each identifies itself with
             Peer_hello before joining the event stream. *)
          ignore
            (Daemon.accept cluster ~host ~name listener
               (fun conn -> function
                 | Message.Peer_hello { rank = peer } -> Some (D_peer_joined (peer, conn))
                 | _ -> None)
               events);
          let relay conn wrap = Net.forward conn (fun m -> Mailbox.send events (wrap m)) in
          let sconn =
            match
              Net.connect env.Env.net ~host ~to_host:env.Env.scheduler_host
                ~to_port:Config.scheduler_port
            with
            | Ok c ->
                ignore (Net.send c (Message.Sched_hello { rank }));
                relay c (fun m -> D_sched m);
                Some c
            | Error `Refused -> None
          in
          (* Stores ride the failover ladder too, so later waves keep
             landing on storage instead of silently going nowhere. *)
          let storage =
            Daemon.storage env ~source:name ~host ~rank (fun m -> D_server m) events
          in
          relay dconn (fun m -> D_ctrl m);
          ignore (Net.send dconn (Message.Ready { rank }));

          (* ---------------- protocol state ---------------- *)
          let n = cfg.Config.n_ranks in
          let lazy_mesh = cfg.Config.lazy_peer_mesh in
          let peer_conns : (int, Message.t Net.conn) Hashtbl.t = Hashtbl.create 16 in
          (* unexpected messages and parked receive requests from the
             computation process *)
          let matching : int Proc.slot Matching.t = Matching.create () in
          let seen = Dedup.create () in
          let redelivery : Message.app_msg list ref = ref [] in
          let committed_state = ref [||] in
          let last_completed_wave = ref 0 in
          let ckpt : ckpt option ref = ref None in
          let held_sends : Message.app_msg list ref = ref [] in
          let started = ref false in
          let rank_hosts = ref [||] in
          (* Restore protocol state from the image. *)
          (match image with
          | None ->
              committed_state := Array.make env.Env.app.App.state_size 0;
              last_completed_wave := 0
          | Some img ->
              committed_state := Array.copy img.Message.img_state;
              last_completed_wave := img.Message.img_wave;
              Dedup.add_keys seen img.Message.img_seen;
              List.iter
                (fun (m : Message.app_msg) -> Dedup.add seen ~src:m.src ~tag:m.tag)
                img.Message.img_logged;
              Matching.restore matching
                (img.Message.img_redelivery @ img.Message.img_buffer @ img.Message.img_logged));

          let send_app conn (m : Message.app_msg) =
            if not (Net.send conn ~size:m.Message.bytes (Message.App m)) then
              trace ~level:Trace.Full "send-failed" "to %d (closed)" m.Message.dst
          in
          (* Lazy mesh: open the channel on first send. If a wave is in
             progress, our marker must precede every message of ours on
             the new connection, and the peer's marker is awaited before
             the wave can end (the peer may not have cut yet — anything
             it sends before its marker is pre-cut channel state). *)
          let connect_on_demand dst =
            match
              Net.connect env.Env.net ~host ~to_host:(!rank_hosts).(dst)
                ~to_port:Config.daemon_port
            with
            | Error `Refused ->
                trace ~level:Trace.Full "send-failed" "to %d (unreachable)" dst;
                None
            | Ok conn ->
                ignore (Net.send conn (Message.Peer_hello { rank }));
                Hashtbl.replace peer_conns dst conn;
                relay conn (fun m -> D_peer (dst, m));
                (match !ckpt with
                | Some c when not c.ck_stored ->
                    ignore (Net.send conn (Message.Marker { wave = c.ck_wave }));
                    c.ck_channels <- IntSet.add dst c.ck_channels
                | Some _ | None -> ());
                Some conn
          in
          let forward_send (m : Message.app_msg) =
            match Hashtbl.find_opt peer_conns m.Message.dst with
            | Some conn -> send_app conn m
            | None when lazy_mesh && Array.length !rank_hosts > m.Message.dst -> (
                match connect_on_demand m.Message.dst with
                | Some conn -> send_app conn m
                | None -> ())
            | None ->
                trace ~level:Trace.Full "send-failed" "to %d (no connection)" m.Message.dst
          in
          let finish_ckpt (c : ckpt) =
            let logged = List.rev c.ck_logged in
            let img_bytes =
              Message.image_bytes ~state_bytes:env.Env.state_bytes
                (c.ck_buffer @ c.ck_redelivery @ logged)
            in
            let img =
              {
                Message.img_rank = rank;
                img_wave = c.ck_wave;
                img_state = c.ck_state;
                img_buffer = c.ck_buffer;
                img_redelivery = c.ck_redelivery;
                img_logged = logged;
                img_seen = c.ck_seen;
                img_received = [];
                img_send_log = [];
                img_next_ssn = [];
                img_bytes;
              }
            in
            Local_disk.store env.Env.disk ~host img;
            (match Daemon.ensure_storage storage with
            | Some conn -> ignore (Net.send conn (Message.Store { image = img }))
            | None -> trace ~level:Trace.Full "store-skipped" "wave %d: no storage" c.ck_wave);
            trace ~level:Trace.Full "local-checkpoint" "wave %d (%d logged)" c.ck_wave
              (List.length logged)
          in
          let maybe_complete_channels (c : ckpt) =
            if IntSet.is_empty c.ck_channels && not c.ck_stored then begin
              c.ck_stored <- true;
              finish_ckpt c
            end
          in
          let begin_cut wave ~from_peer =
            (* Eager mesh: every peer holds a channel to us, so every
               marker is awaited. Lazy mesh: only established channels can
               carry pre-cut messages — a peer that connects mid-wave is
               added (and sent our marker) on establishment. *)
            let channels =
              if lazy_mesh then
                Hashtbl.fold
                  (fun peer _ acc ->
                    if Some peer = from_peer then acc else IntSet.add peer acc)
                  peer_conns IntSet.empty
              else
                List.init n Fun.id
                |> List.filter (fun r -> r <> rank && Some r <> from_peer)
                |> IntSet.of_list
            in
            let c =
              {
                ck_wave = wave;
                ck_channels = channels;
                ck_logged = [];
                ck_stored = false;
                ck_state = Array.copy !committed_state;
                ck_buffer = Matching.buffered matching;
                ck_redelivery = !redelivery;
                ck_seen = Dedup.keys seen;
              }
            in
            ckpt := Some c;
            trace ~level:Trace.Full "cut" "wave %d" wave;
            Hashtbl.iter
              (fun _peer conn -> ignore (Net.send conn (Message.Marker { wave })))
              peer_conns;
            maybe_complete_channels c
          in
          let handle_marker wave ~from_peer =
            if wave > !last_completed_wave then begin
              match !ckpt with
              | None -> begin_cut wave ~from_peer
              | Some c when c.ck_wave = wave -> (
                  match from_peer with
                  | Some peer ->
                      c.ck_channels <- IntSet.remove peer c.ck_channels;
                      maybe_complete_channels c
                  | None -> ())
              | Some c when wave > c.ck_wave ->
                  (* The wave in progress was aborted (e.g. by a recovery
                     that interleaved with it): it will never complete
                     globally, so drop it and join the new one. Held sends
                     of the blocking variant stay held until the new wave
                     completes. *)
                  trace ~level:Trace.Full "ckpt-abandoned" "wave %d superseded by %d" c.ck_wave
                    wave;
                  ckpt := None;
                  begin_cut wave ~from_peer
              | Some c ->
                  trace ~level:Trace.Full "marker-anomaly" "stale wave %d while checkpointing %d"
                    wave c.ck_wave
            end
          in
          let release_held () =
            let pending = List.rev !held_sends in
            held_sends := [];
            List.iter forward_send pending
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
            trace ~level:Trace.Full "app-start" ""
          in
          let maybe_start () =
            if
              !started
              && (lazy_mesh || Hashtbl.length peer_conns = n - 1)
              && !app_proc = None
            then spawn_app ()
          in
          let connect_lower_peers () =
            if not lazy_mesh then
              for peer = 0 to rank - 1 do
                let peer_host = !rank_hosts.(peer) in
                match
                  Net.connect env.Env.net ~host ~to_host:peer_host ~to_port:Config.daemon_port
                with
                | Ok conn ->
                    ignore (Net.send conn (Message.Peer_hello { rank }));
                    Hashtbl.replace peer_conns peer conn;
                    relay conn (fun m -> D_peer (peer, m))
                | Error `Refused ->
                    trace ~level:Trace.Full "peer-connect-failed" "%d" peer
              done;
            maybe_start ()
          in
          let blocking = cfg.Config.protocol = Config.Blocking in
          (* ---------------- main event loop ---------------- *)
          let rec loop () =
            match Mailbox.recv events with
            | D_ctrl None -> trace "daemon-exit" "dispatcher connection lost"
            | D_ctrl (Some Message.Terminate) ->
                let lag =
                  cfg.Config.term_lag_min
                  +. Rng.float env.Env.rng
                       (cfg.Config.term_lag_max -. cfg.Config.term_lag_min)
                  +.
                  if Rng.float env.Env.rng 1.0 < cfg.Config.term_straggler_prob then
                    Rng.float env.Env.rng term_straggler_extra
                  else 0.0
                in
                trace "terminate-order" "lag %.2f" lag;
                Proc.sleep lag;
                Option.iter Proc.kill !app_proc;
                trace "daemon-exit" "terminated on order"
            | D_ctrl (Some Message.Shutdown) ->
                Option.iter Proc.kill !app_proc;
                trace "daemon-exit" "shutdown"
            | D_ctrl (Some (Message.Start { rank_hosts = hosts; resume })) ->
                rank_hosts := hosts;
                started := true;
                trace ~level:Trace.Full (if resume then "resume" else "start") "";
                connect_lower_peers ();
                loop ()
            | D_ctrl (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from dispatcher: %a" Message.pp msg);
                loop ()
            | D_peer_joined (peer, conn) ->
                (* Under a lazy mesh a simultaneous cross-connect can race
                   this accept with our own connect_on_demand; each side
                   keeps the first connection it obtained for its sends,
                   so every direction stays FIFO on a single channel
                   (markers order correctly against app messages). The
                   second connection is still forwarded for receives. *)
                let fresh = not (Hashtbl.mem peer_conns peer) in
                if fresh || not lazy_mesh then Hashtbl.replace peer_conns peer conn;
                relay conn (fun m -> D_peer (peer, m));
                (* A wave may already be in progress: this channel's marker
                   is still expected through the new connection. With a
                   lazy mesh the cut did not count unconnected peers, so a
                   channel opening mid-wave exchanges markers now. *)
                (if lazy_mesh && fresh then
                   match !ckpt with
                   | Some c when not c.ck_stored ->
                       ignore (Net.send conn (Message.Marker { wave = c.ck_wave }));
                       c.ck_channels <- IntSet.add peer c.ck_channels
                   | Some _ | None -> ());
                maybe_start ();
                loop ()
            | D_peer (peer, None) ->
                (match Hashtbl.find_opt peer_conns peer with
                | Some _ -> Hashtbl.remove peer_conns peer
                | None -> ());
                trace ~level:Trace.Full "peer-lost" "%d" peer;
                loop ()
            | D_peer (_, Some (Message.App m)) ->
                (if Dedup.mem seen ~src:m.Message.src ~tag:m.Message.tag then
                   trace "duplicate-dropped" "%d->%d tag %d" m.Message.src m.Message.dst
                     m.Message.tag
                 else begin
                   Dedup.add seen ~src:m.Message.src ~tag:m.Message.tag;
                   (match !ckpt with
                   | Some c when IntSet.mem m.Message.src c.ck_channels ->
                       c.ck_logged <- m :: c.ck_logged
                   | Some _ | None -> ());
                   Daemon.deliver matching ~redelivery m
                 end);
                loop ()
            | D_peer (peer, Some (Message.Marker { wave })) ->
                handle_marker wave ~from_peer:(Some peer);
                loop ()
            | D_peer (peer, Some msg) ->
                trace "protocol-error" "%s"
                  (Format.asprintf "from peer %d: %a" peer Message.pp msg);
                loop ()
            | D_sched None -> loop ()
            | D_sched (Some (Message.Sched_marker { wave })) ->
                handle_marker wave ~from_peer:None;
                loop ()
            | D_sched (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from scheduler: %a" Message.pp msg);
                loop ()
            | D_server None -> loop ()
            | D_server (Some (Message.Store_done { wave })) ->
                (match !ckpt with
                | Some c when c.ck_wave = wave && c.ck_stored ->
                    last_completed_wave := wave;
                    ckpt := None;
                    if blocking then release_held ();
                    (match sconn with
                    | Some conn -> ignore (Net.send conn (Message.Sched_ack { rank; wave }))
                    | None -> ());
                    (* Expose the completed wave to the fault injector
                       (the conclusion's variable-reading feature). *)
                    Fci.Control.set_var vars "wave" wave;
                    trace ~level:Trace.Full "checkpoint-acked" "wave %d" wave
                | Some _ | None -> ());
                loop ()
            | D_server (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from server: %a" Message.pp msg);
                loop ()
            | D_app (Daemon.A_send m) ->
                if blocking && !ckpt <> None then held_sends := m :: !held_sends
                else forward_send m;
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
