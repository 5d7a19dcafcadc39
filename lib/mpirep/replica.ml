open Simkern
open Simos
module Net = Simnet.Net
module Message = Mpivcl.Message
module Config = Mpivcl.Config
module App = Mpivcl.App
module Matching = Mpivcl.Matching
module Daemon = Mpivcl.Daemon
module Dedup = Mpivcl.Dedup

type dev =
  | D_ctrl of Rmsg.t option
  | D_peer of (int * int) * Rmsg.t option
  | D_peer_joined of int * int * Rmsg.t Net.conn * (int * int) list
  | D_state_req of Rmsg.t Net.conn
  | D_app of Daemon.app_request

let spawn (env : Renv.t) ~rank ~slot ~host ~incarnation ~resume =
  let eng = env.Renv.eng in
  let cluster = env.Renv.cluster in
  let cfg = env.Renv.cfg in
  let name = Printf.sprintf "rdaemon-%d.%d" rank slot in
  let trace ?level event fmt = Engine.record ?level eng ~source:name ~event fmt in
  Cluster.spawn_on cluster ~host ~name (fun () ->
      let app_proc = ref None in
      let vars =
        Daemon.register env.Renv.fci ~host
          ~name:(Printf.sprintf "rank%d.%d@%d" rank slot host)
          ~main:(Proc.self ())
          ~children:(fun f -> Option.iter f !app_proc)
      in
      trace ~level:Trace.Full "daemon-start" "host %d incarnation %d%s" host incarnation
        (if resume then " (respawn)" else "");
      Daemon.startup_delay cfg env.Renv.rng;
      match
        Net.connect env.Renv.net ~host ~to_host:env.Renv.dispatcher_host
          ~to_port:Config.dispatcher_port
      with
      | Error `Refused -> trace "daemon-abort" "dispatcher unreachable"
      | Ok dconn -> (
          ignore (Net.send dconn (Rmsg.Hello { rank; slot; incarnation }));
          Daemon.handshake env.Renv.fci ~host;
          let listener = Net.listen env.Renv.net ~host ~port:Config.daemon_port in
          Fun.protect ~finally:(fun () -> Net.close_listener listener) @@ fun () ->
          let events : dev Mailbox.t = Mailbox.create () in
          ignore
            (Daemon.accept cluster ~host ~name listener
               (fun conn -> function
                 | Rmsg.Peer_hello { rank = pr; slot = ps; consumed } ->
                     Some (D_peer_joined (pr, ps, conn, consumed))
                 | Rmsg.State_req _ -> Some (D_state_req conn)
                 | _ -> None)
               events);
          Net.forward dconn (fun m -> Mailbox.send events (D_ctrl m));
          (* A fresh replica reports Ready now and waits for the all-ready
             Start; a respawned one gets its Start (with a donor)
             immediately after Hello and reports Ready only once the
             donor's state is installed. *)
          if not resume then ignore (Net.send dconn (Rmsg.Ready { rank; slot }));

          (* ---------------- protocol state ---------------- *)
          let n = cfg.Config.n_ranks in
          let peer_conns : (int * int, Rmsg.t Net.conn) Hashtbl.t = Hashtbl.create 32 in
          let matching : int Proc.slot Matching.t = Matching.create () in
          let seen = Dedup.create () in
          let redelivery : Message.app_msg list ref = ref [] in
          let committed_state = ref (Array.make env.Renv.app.App.state_size 0) in
          let send_log = Send_log.create () in
          (* [peer_conns] by rank, in its iteration order, which is the order
             a send goes out in; [None] once the table changes *)
          let links : Rmsg.t Net.conn list array option ref = ref None in
          (* per-source-rank highest received ssn *)
          let received : (int, int) Hashtbl.t = Hashtbl.create 16 in
          (* peer connections expected before the initial app start; -1
             until the Start message tells us *)
          let expected_conns = ref (-1) in

          let consumed_bounds () =
            Hashtbl.fold (fun src ssn acc -> (src, ssn) :: acc) received []
          in
          let forward_send (m : Message.app_msg) =
            (* Log before sending, reusing the ssn if this send is a
               re-execution of a logged one (post-respawn): receivers
               deduplicate by (src, tag), and stable ssns keep every
               replica's reception bounds comparable. *)
            let dst = m.Message.dst in
            let app = Rmsg.App { msg = m; ssn = Send_log.ssn send_log m } in
            let links_by_rank =
              match !links with
              | Some a -> a
              | None ->
                  let a = Array.make n [] in
                  Hashtbl.iter (fun (pr, _) conn -> a.(pr) <- a.(pr) @ [ conn ]) peer_conns;
                  links := Some a;
                  a
            in
            let sent = ref 0 in
            List.iter
              (fun conn -> if Net.send conn ~size:m.Message.bytes app then incr sent)
              links_by_rank.(dst);
            if !sent = 0 then
              trace ~level:Trace.Full "send-deferred"
                "to rank %d (no live replica connected, logged)" dst
          in
          let flush_log ~peer_rank ~consumed conn =
            (* Re-send everything logged for [peer_rank] above the peer's
               reception bound; the receiver's dedup drops overlaps. *)
            let bound = Option.value ~default:0 (List.assoc_opt rank consumed) in
            let entries = Send_log.above send_log ~dst:peer_rank ~bound in
            if entries <> [] then
              trace ~level:Trace.Full "log-flush" "%d messages to rank %d (> ssn %d)"
                (List.length entries) peer_rank bound;
            List.iter
              (fun (ssn, m) ->
                ignore (Net.send conn ~size:m.Message.bytes (Rmsg.App { msg = m; ssn })))
              entries
          in
          let spawn_app () =
            if Option.is_none !app_proc then begin
              let state = Array.copy !committed_state in
              let ctx =
                Daemon.app_ctx env.Renv.rng ~rank ~size:n ~state
                  ~set_app_var:(Fci.Control.set_var vars) (fun r -> Mailbox.send events (D_app r))
              in
              let p =
                Cluster.spawn_on cluster ~host ~name:(Printf.sprintf "rmpi-%d.%d" rank slot)
                  (fun () -> env.Renv.app.App.main ctx)
              in
              app_proc := Some p;
              trace ~level:Trace.Full "app-start" ""
            end
          in
          let maybe_start_app () =
            if !expected_conns >= 0 && Hashtbl.length peer_conns >= !expected_conns then
              spawn_app ()
          in
          let register_peer pr ps conn =
            Hashtbl.replace peer_conns (pr, ps) conn;
            links := None;
            Net.forward conn (fun m -> Mailbox.send events (D_peer ((pr, ps), m)))
          in
          let connect_peer pr ps phost =
            if not (Hashtbl.mem peer_conns (pr, ps)) then
              match
                Net.connect env.Renv.net ~host ~to_host:phost ~to_port:Config.daemon_port
              with
              | Ok conn ->
                  ignore
                    (Net.send conn
                       (Rmsg.Peer_hello { rank; slot; consumed = consumed_bounds () }));
                  register_peer pr ps conn
              | Error `Refused ->
                  trace ~level:Trace.Full "peer-connect-failed" "replica %d.%d" pr ps
          in
          let build_image () =
            let img_send_log, img_next_ssn = Send_log.export send_log in
            let logged = List.concat_map (fun (_, entries) -> List.map snd entries) img_send_log in
            let buffer = Matching.buffered matching in
            let img_bytes =
              Message.image_bytes ~state_bytes:env.Renv.state_bytes
                (buffer @ !redelivery @ logged)
            in
            {
              Message.img_rank = rank;
              img_wave = 0;
              img_state = Array.copy !committed_state;
              img_buffer = buffer;
              img_redelivery = !redelivery;
              img_logged = [];
              img_seen = Dedup.keys seen;
              img_received = consumed_bounds ();
              img_send_log;
              img_next_ssn;
              img_bytes;
            }
          in
          let install_image (img : Message.image) =
            committed_state := Array.copy img.Message.img_state;
            Dedup.add_keys seen img.Message.img_seen;
            List.iter
              (fun (src, ssn) -> Hashtbl.replace received src ssn)
              img.Message.img_received;
            Send_log.import send_log ~send_log:img.Message.img_send_log
              ~next_ssn:img.Message.img_next_ssn;
            (* messages consumed since the donor's last commit are
               re-delivered to the re-executing application *)
            Matching.restore matching (img.Message.img_redelivery @ img.Message.img_buffer)
          in
          let rec loop () =
            match Mailbox.recv events with
            | D_ctrl None -> trace "daemon-exit" "dispatcher connection lost"
            | D_ctrl (Some Rmsg.Shutdown) ->
                Option.iter Proc.kill !app_proc;
                trace "daemon-exit" "shutdown"
            | D_ctrl (Some (Rmsg.Start { members; resume = false; _ })) ->
                trace ~level:Trace.Full "start" "";
                let expected = ref 0 in
                Array.iteri
                  (fun r' ms -> if r' <> rank then expected := !expected + List.length ms)
                  members;
                expected_conns := !expected;
                (* lower ranks listen, higher ranks connect: each inter-rank
                   replica pair gets exactly one link *)
                for r' = 0 to rank - 1 do
                  List.iter
                    (fun mb -> connect_peer r' mb.Rmsg.mb_slot mb.Rmsg.mb_host)
                    members.(r')
                done;
                maybe_start_app ();
                loop ()
            | D_ctrl (Some (Rmsg.Start { resume = true; donor; _ })) -> (
                match donor with
                | None -> trace "state-transfer-failed" "no donor"
                | Some d -> (
                    trace ~level:Trace.Full "state-fetch" "from slot %d on host %d" d.Rmsg.mb_slot
                      d.Rmsg.mb_host;
                    match
                      Net.connect env.Renv.net ~host ~to_host:d.Rmsg.mb_host
                        ~to_port:Config.daemon_port
                    with
                    | Error `Refused -> trace "state-transfer-failed" "donor unreachable"
                    | Ok sc -> (
                        ignore (Net.send sc (Rmsg.State_req { rank; slot }));
                        match Net.recv sc with
                        | Net.Data (Rmsg.State_xfer { image }) ->
                            Net.close sc;
                            install_image image;
                            Proc.sleep Daemon.restart_settle;
                            trace ~level:Trace.Full "restored" "from slot %d (%d bytes)"
                              d.Rmsg.mb_slot image.Message.img_bytes;
                            ignore (Net.send dconn (Rmsg.Ready { rank; slot }));
                            (* peers connect to us on the dispatcher's
                               Peer_update; until then sends are logged and
                               flushed at link establishment *)
                            spawn_app ();
                            loop ()
                        | Net.Data _ | Net.Closed ->
                            Net.close sc;
                            trace "state-transfer-failed" "donor lost mid-transfer")))
            | D_ctrl (Some (Rmsg.Peer_update { rank = pr; slot = ps; host = phost })) ->
                connect_peer pr ps phost;
                loop ()
            | D_ctrl (Some msg) ->
                trace "protocol-error" "%s" (Format.asprintf "from dispatcher: %a" Rmsg.pp msg);
                loop ()
            | D_peer_joined (pr, ps, conn, consumed) ->
                register_peer pr ps conn;
                ignore
                  (Net.send conn (Rmsg.Peer_hello { rank; slot; consumed = consumed_bounds () }));
                flush_log ~peer_rank:pr ~consumed conn;
                maybe_start_app ();
                loop ()
            | D_peer ((pr, ps), Some (Rmsg.Peer_hello { consumed; _ })) ->
                (* acceptor's reply on a link we initiated: flush our log
                   for its rank above its bound *)
                (match Hashtbl.find_opt peer_conns (pr, ps) with
                | Some conn -> flush_log ~peer_rank:pr ~consumed conn
                | None -> ());
                loop ()
            | D_peer (_, Some (Rmsg.App { msg = m; ssn })) ->
                let src = m.Message.src in
                let bound = Option.value ~default:0 (Hashtbl.find_opt received src) in
                if ssn > bound then Hashtbl.replace received src ssn;
                if Dedup.mem seen ~src ~tag:m.Message.tag then
                  trace ~level:Trace.Full "duplicate-dropped" "%d->%d tag %d ssn %d" src
                    m.Message.dst m.Message.tag ssn
                else begin
                  Dedup.add seen ~src ~tag:m.Message.tag;
                  Daemon.deliver matching ~redelivery m
                end;
                loop ()
            | D_peer ((pr, ps), None) ->
                Hashtbl.remove peer_conns (pr, ps);
                links := None;
                trace ~level:Trace.Full "peer-lost" "replica %d.%d" pr ps;
                (* pre-start: a replica listed in our Start died; don't
                   wait for a link that will be re-established (or never
                   come) — the respawn reconnects via Peer_update *)
                if Option.is_none !app_proc && !expected_conns > 0 then begin
                  expected_conns := !expected_conns - 1;
                  maybe_start_app ()
                end;
                loop ()
            | D_peer ((pr, ps), Some msg) ->
                trace "protocol-error" "%s"
                  (Format.asprintf "from replica %d.%d: %a" pr ps Rmsg.pp msg);
                loop ()
            | D_state_req conn ->
                let img = build_image () in
                ignore (Net.send conn ~size:img.Message.img_bytes (Rmsg.State_xfer { image = img }));
                trace ~level:Trace.Full "state-serve" "%d bytes" img.Message.img_bytes;
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
                ignore (Net.send dconn (Rmsg.Rank_done { rank; slot }));
                trace ~level:Trace.Full "rank-done" "";
                loop ()
          in
          loop ()))
