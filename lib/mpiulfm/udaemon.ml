open Simkern
open Simos
module Net = Simnet.Net
module Message = Mpivcl.Message
module Matching = Mpivcl.Matching
module Config = Mpivcl.Config
module App = Mpivcl.App
module Daemon = Mpivcl.Daemon

(* One ulfm daemon per host, the adapter around [Agree]: no recovery
   wave and no relaunch, only heartbeats, the agreement, snapshot
   fetches, the re-knit sync collective and the hosted ranks. *)

type ev =
  | E_ctrl of Umsg.t option
  | E_peer of int * Umsg.t option
  | E_peer_joined of int * Umsg.t Net.conn
  | E_tick
  | E_timer of Agree.timer
  | E_app of int * int * Daemon.app_request  (* epoch, hosted rank, request *)

(* Snapshot history kept per hosted rank (own commits and buddy
   backups). Old entries are pruned; the agreement recomputes a common
   restart point from whatever survives, down to the initial state. *)
let snap_history = 12

(* Period of the all-to-all heartbeat that drives failure suspicion. *)
let heartbeat_period = 2.0

(* Silence (no heartbeat, no app traffic) after which a peer is locally
   suspected and a revoke is raised into any running collective. *)
let suspicion_timeout = 8.0

let spawn (env : Uenv.t) ~id ~incarnation =
  let { Uenv.eng; cluster; cfg; population; _ } = env in
  let n = cfg.Config.n_ranks in
  let host = id in
  let name = Printf.sprintf "udaemon-%d" id in
  let trace ?level event fmt = Engine.record ?level eng ~source:name ~event fmt in
  let now () = Engine.now eng in
  Cluster.spawn_on cluster ~host ~name (fun () ->
      let events : ev Mailbox.t = Mailbox.create () in
      let alive = ref true in
      let ready_sent = ref false in

      (* the accept loop and every hosted application rank; the FCI
         kill/freeze closures and the fence path act on all of them *)
      let self = Proc.self () in
      let acceptor : Proc.t option ref = ref None in
      let app_procs : (int, Proc.t) Hashtbl.t = Hashtbl.create 8 in
      (* Links are forwarded on behalf of this process: they stop,
         continue and die with it, and [stop_task] drops them. *)
      let forward conn wrap =
        Net.forward ~owner:self conn (fun m -> if !alive then Mailbox.send events (wrap m))
      in

      (* ---------------- epoch state and failure detection ---------------- *)
      let ag = ref (Agree.create ~id ~population ~n_ranks:n) in
      let epoch () = Agree.epoch !ag in
      let members () = Agree.members !ag in
      let restart () = match Agree.decision !ag with Some d -> d.Shrinkc.d_restart | None -> 0 in
      let peer_conns : (int, Umsg.t Net.conn) Hashtbl.t = Hashtbl.create 16 in
      (* by daemon id; [neg_infinity] = never heard, so suspected *)
      let last_seen = Float.Array.make population neg_infinity in
      let suspected_extra = Array.make population false in
      let torn = ref false in
      (* [is_member] (by daemon id) and [host_of_rank] (-1 for none) answer
         the per-message lookups on the agreement's ordered members and
         assignment. [refresh] rebuilds both and restarts every member's
         silence clock when they change: at [Start] and on an install. *)
      let is_member = Array.make population false in
      let host_of_rank = Array.make n (-1) in
      let refresh () =
        Array.fill is_member 0 population false;
        List.iter (fun p -> is_member.(p) <- true) (members ());
        Array.fill host_of_rank 0 n (-1);
        (* the first pair of a rank wins, as [List.assoc_opt] finds it *)
        List.iter
          (fun (r, d) -> if host_of_rank.(r) < 0 then host_of_rank.(r) <- d)
          (Agree.assign !ag);
        List.iter (fun p -> if p <> id then Float.Array.set last_seen p (now ())) (members ())
      in

      (* ---------------- snapshots ---------------- *)
      let snaps : (int, (int, int array) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      let pending_fetch : (int, unit) Hashtbl.t = Hashtbl.create 4 in

      (* ---------------- sync collective ---------------- *)
      let sync_stage = ref (`Idle : [ `Idle | `Wait_pre | `Round of int | `Wait_final | `Done ]) in
      let sync_value = ref 0 in
      (* keyed (epoch, from, phase): a peer that installed the next epoch
         first may send its contribution before our Decide arrives *)
      let sync_inbox : (int * int * int, int) Hashtbl.t = Hashtbl.create 32 in
      let apps_spawned = ref false in

      (* ---------------- application plumbing ---------------- *)
      let matching : int Proc.slot Matching.t = Matching.create () in
      let future : (int * Message.app_msg) list ref = ref [] in
      let done_ranks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let last_report : Umsg.t option ref = ref None in
      let dconn : Umsg.t Net.conn option ref = ref None in

      let dsend msg = match !dconn with Some c -> ignore (Net.send c msg) | None -> () in
      let psend ?size p msg =
        match Hashtbl.find_opt peer_conns p with
        | Some c -> ignore (Net.send c ?size msg)
        | None -> ()
      in
      let broadcast_peers msg = Hashtbl.iter (fun _ c -> ignore (Net.send c msg)) peer_conns in

      let suspected p =
        p <> id
        && (suspected_extra.(p) || now () -. Float.Array.get last_seen p > suspicion_timeout)
      in

      (* ---------------- snapshot store ---------------- *)
      let store_snap rank iter state =
        if iter > 0 then begin
          let per_rank =
            match Hashtbl.find_opt snaps rank with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 16 in
                Hashtbl.replace snaps rank h;
                h
          in
          (* First write wins: the pre-finalize and post-finalize commits
             share an iteration key, and re-executions recommit identical
             values; keeping the first stored copy keeps every holder's
             view of iteration [iter] interchangeable. *)
          if not (Hashtbl.mem per_rank iter) then begin
            Hashtbl.replace per_rank iter (Array.copy state);
            if Hashtbl.length per_rank > snap_history then begin
              let oldest = Hashtbl.fold (fun k _ acc -> min k acc) per_rank max_int in
              Hashtbl.remove per_rank oldest
            end
          end
        end
      in
      let avail_of_snaps () =
        Hashtbl.fold
          (fun rank per_rank acc ->
            let iters = Hashtbl.fold (fun k _ acc -> k :: acc) per_rank [] in
            (rank, List.sort Int.compare iters) :: acc)
          snaps []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let holds_snap rank iter =
        match Hashtbl.find_opt snaps rank with
        | Some per_rank -> Hashtbl.mem per_rank iter
        | None -> false
      in
      let view () =
        let suspects = List.filter suspected (members ()) in
        { Agree.torn = !torn; suspects; avail = lazy (avail_of_snaps ()) }
      in
      let buddy () =
        match members () with
        | [] | [ _ ] -> None
        | ms ->
            List.find_index (( = ) id) ms
            |> Option.map (fun i -> List.nth ms ((i + 1) mod List.length ms))
      in

      (* ---------------- application hosting ---------------- *)
      let kill_apps () =
        Hashtbl.iter (fun _ p -> Proc.kill p) app_procs;
        Hashtbl.reset app_procs
      in
      let deliver (m : Message.app_msg) =
        match Matching.deliver matching m with
        | Some reply -> ignore (Proc.fill reply m.Message.data)
        | None -> ()
      in
      let serve_recv dst src tag reply =
        match Matching.serve matching ~dst ~src ~tag reply with
        | Some m -> ignore (Proc.fill reply m.Message.data)
        | None -> ()
      in
      let route_send (m : Message.app_msg) =
        let dst = m.Message.dst in
        let d = if dst >= 0 && dst < n then host_of_rank.(dst) else -1 in
        if d = id then deliver m
        else if d >= 0 then
          psend d ~size:m.Message.bytes (Umsg.App { epoch = epoch (); msg = m })
      in
      let spawn_rank r state =
        let e = epoch () in
        let ctx =
          Daemon.app_ctx env.Uenv.rng ~rank:r ~size:n ~state
            ~set_app_var:(fun _ _ -> ())
            (fun req -> Mailbox.send events (E_app (e, r, req)))
        in
        let p =
          Cluster.spawn_on cluster ~host ~name:(Printf.sprintf "umpi-%d" r) (fun () ->
              env.Uenv.app.App.main ctx)
        in
        Hashtbl.replace app_procs r p
      in
      let spawn_apps () =
        if not !apps_spawned then begin
          let mine = List.filter (fun (_, d) -> d = id) (Agree.assign !ag) in
          let missing =
            restart () > 0
            && List.exists (fun (r, _) -> not (holds_snap r (restart ()))) mine
          in
          if missing then begin
            (* the agreed restart point is gone (donor died mid-fetch or
               pruned): poison this epoch, the next agreement picks a
               point from what actually survives *)
            trace "restart-unavailable" "forcing a new agreement";
            torn := true
          end
          else begin
            apps_spawned := true;
            List.iter
              (fun (r, _) ->
                let state =
                  if restart () = 0 then Array.make env.Uenv.app.App.state_size 0
                  else Array.copy (Hashtbl.find (Hashtbl.find snaps r) (restart ()))
                in
                spawn_rank r state)
              mine;
            if mine <> [] then
              trace ~level:Trace.Full "apps-started" "%d rank%s from iteration %d (epoch %d)"
                (List.length mine)
                (if List.length mine = 1 then "" else "s")
                (restart ()) (epoch ())
          end
        end
      in

      (* ---------------- sync collective ---------------- *)
      let send_sync p phase value = psend p (Umsg.Sync { id; epoch = epoch (); phase; value }) in
      let mesh_complete () =
        List.for_all (fun p -> p = id || Hashtbl.mem peer_conns p) (members ())
      in
      let sync_done () =
        sync_stage := `Done;
        let k = List.length (members ()) in
        (match Shrinkc.sync_plan ~members:(members ()) ~me:id with
        | Shrinkc.Edge _ -> ()
        | Shrinkc.Solo | Shrinkc.Core _ ->
            if !sync_value <> k then
              trace "sync-mismatch" "allreduce sum %d over %d members" !sync_value k);
        trace ~level:Trace.Full "sync-complete" "epoch %d re-knit over %d members" (epoch ()) k;
        spawn_apps ()
      in
      let rec enter_round plan j =
        match plan with
        | Shrinkc.Core { edge; rounds } ->
            if j >= Array.length rounds then begin
              (match edge with Some e -> send_sync e (-2) !sync_value | None -> ());
              sync_done ()
            end
            else begin
              sync_stage := `Round j;
              send_sync rounds.(j) j !sync_value;
              advance_sync ()
            end
        | Shrinkc.Solo | Shrinkc.Edge _ -> ()
      and advance_sync () =
        let plan = Shrinkc.sync_plan ~members:(members ()) ~me:id in
        let take from phase =
          match Hashtbl.find_opt sync_inbox (epoch (), from, phase) with
          | Some v ->
              Hashtbl.remove sync_inbox (epoch (), from, phase);
              Some v
          | None -> None
        in
        let absorb from phase next =
          Option.iter (fun v -> sync_value := !sync_value + v; next ()) (take from phase)
        in
        match (!sync_stage, plan) with
        | `Wait_pre, Shrinkc.Core { edge = Some e; _ } ->
            absorb e (-1) (fun () -> enter_round plan 0)
        | `Round j, Shrinkc.Core { rounds; _ } when j < Array.length rounds ->
            absorb rounds.(j) j (fun () -> enter_round plan (j + 1))
        | `Wait_final, Shrinkc.Edge { partner } ->
            (* the edge's own contribution is in the final sum *)
            Option.iter (fun v -> sync_value := v; sync_done ()) (take partner (-2))
        | _ -> ()
      in
      let maybe_sync () =
        if
          !alive && Agree.started !ag && !sync_stage = `Idle
          && Hashtbl.length pending_fetch = 0
          && mesh_complete ()
        then begin
          match Shrinkc.sync_plan ~members:(members ()) ~me:id with
          | Shrinkc.Solo ->
              sync_value := 1;
              sync_done ()
          | Shrinkc.Edge { partner } ->
              sync_stage := `Wait_final;
              send_sync partner (-1) 1;
              advance_sync ()
          | Shrinkc.Core { edge; rounds = _ } as plan ->
              sync_value := 1;
              if edge = None then enter_round plan 0
              else begin
                sync_stage := `Wait_pre;
                advance_sync ()
              end
        end
      in
      let sync_resend p =
        match (!sync_stage, Shrinkc.sync_plan ~members:(members ()) ~me:id) with
        | `Wait_final, Shrinkc.Edge { partner } when partner = p -> send_sync p (-1) 1
        | `Round j, Shrinkc.Core { rounds; _ }
          when j < Array.length rounds && rounds.(j) = p ->
            send_sync p j !sync_value
        | _ -> ()
      in

      (* ---------------- fetch ---------------- *)
      let donor_of r =
        Option.bind (Agree.decision !ag) (fun d -> List.assoc_opt r d.Shrinkc.d_donors)
      in
      let request_fetch r =
        match donor_of r with
        | Some donor -> psend donor (Umsg.Fetch { id; rank = r; iter = restart () })
        | None -> ()
      in

      (* ---------------- epoch installation and the agreement ---------------- *)
      let stop_task () =
        kill_apps ();
        Option.iter Proc.kill !acceptor;
        alive := false
      in
      let fence () =
        trace "fenced" "excluded from epoch %d, shutting down" (epoch ());
        stop_task ()
      in
      let rec ensure_mesh () =
        if Agree.started !ag then
          List.iter
            (fun p ->
              if p < id && not (Hashtbl.mem peer_conns p) then
                match Net.connect env.Uenv.net ~host ~to_host:p ~to_port:Config.daemon_port with
                | Ok conn ->
                    ignore (Net.send conn (Umsg.Peer_hello { id }));
                    register_peer p conn
                | Error `Refused ->
                    (* no listener: that daemon's host process is gone *)
                    suspected_extra.(p) <- true)
            (members ())
      and register_peer p conn =
        (match Hashtbl.find_opt peer_conns p with
        | Some old when old != conn -> Net.close old
        | _ -> ());
        Hashtbl.replace peer_conns p conn;
        Float.Array.set last_seen p (now ());
        suspected_extra.(p) <- false;
        forward conn (fun m -> E_peer (p, m));
        sync_resend p;
        Hashtbl.iter (fun r () -> if donor_of r = Some p then request_fetch r) pending_fetch;
        maybe_sync ()
      in
      (* [Agree] has already moved to [d]'s epoch *)
      let install (d : Shrinkc.decision) ~ballots =
        refresh ();
        torn := false;
        Array.fill suspected_extra 0 population false;
        let stale_keys =
          Hashtbl.fold
            (fun ((e, _, _) as k) _ acc -> if e < epoch () then k :: acc else acc)
            sync_inbox []
        in
        List.iter (Hashtbl.remove sync_inbox) stale_keys;
        kill_apps ();
        Matching.clear matching;
        apps_spawned := false;
        sync_stage := `Idle;
        sync_value := 0;
        Hashtbl.reset pending_fetch;
        if not is_member.(id) then fence ()
        else begin
          trace "epoch-install" "epoch %d: %d members, restart iteration %d%s" (epoch ())
            (List.length (members ())) (restart ())
            (if d.Shrinkc.d_promoted > 0 then
               Printf.sprintf ", %d spare%s promoted" d.Shrinkc.d_promoted
                 (if d.Shrinkc.d_promoted = 1 then "" else "s")
             else "");
          let report =
            Umsg.Epoch_report
              { epoch = epoch (); members = members (); survivors = Shrinkc.survivors d;
                promoted = d.Shrinkc.d_promoted; adopted = d.Shrinkc.d_adopted; ballots;
                restart = restart () }
          in
          last_report := Some report;
          dsend report;
          List.iter
            (fun (r, _) ->
              if host_of_rank.(r) = id && not (holds_snap r (restart ())) then
                Hashtbl.replace pending_fetch r ())
            d.Shrinkc.d_donors;
          Hashtbl.iter (fun r () -> request_fetch r) pending_fetch;
          let ready_now, later = List.partition (fun (e, _) -> e = epoch ()) !future in
          future := List.filter (fun (e, _) -> e > epoch ()) later;
          List.iter (fun (_, m) -> deliver m) ready_now;
          ensure_mesh ();
          maybe_sync ()
        end
      in
      let perform = function
        | Agree.Send (p, msg) -> psend p msg
        | Agree.Broadcast msg -> broadcast_peers msg
        | Agree.Arm (delay, tm) ->
            Engine.post eng ~delay (fun () -> if !alive then Mailbox.send events (E_timer tm))
        | Agree.Suspect p -> suspected_extra.(p) <- true
        | Agree.Install { decision; ballots } -> install decision ~ballots
        | Agree.Abort reason ->
            dsend (Umsg.Abort { id; reason });
            stop_task ()
        | Agree.Trace { level; event; detail } -> trace ~level event "%s" detail
      in
      let step input =
        let t, actions = Agree.step !ag input in
        ag := t;
        List.iter perform actions
      in

      (* ---------------- dispatcher link ---------------- *)
      let ensure_dconn () =
        if !dconn = None then
          match
            Net.connect env.Uenv.net ~host ~to_host:env.Uenv.dispatcher_host
              ~to_port:Config.dispatcher_port
          with
          | Error `Refused -> ()
          | Ok conn ->
              dconn := Some conn;
              forward conn (fun m -> E_ctrl m);
              ignore (Net.send conn (Umsg.Hello { id; inc = incarnation }));
              if !ready_sent then ignore (Net.send conn (Umsg.Ready { id }));
              Hashtbl.iter (fun r () -> ignore (Net.send conn (Umsg.Rank_done { rank = r }))) done_ranks;
              (match !last_report with Some r -> ignore (Net.send conn r) | None -> ())
      in

      (* ---------------- event handlers ---------------- *)
      let arm_tick () =
        Engine.post eng ~delay:heartbeat_period (fun () ->
            if !alive then Mailbox.send events E_tick)
      in
      let handle_tick () =
        if Agree.started !ag then begin
          broadcast_peers (Umsg.Heartbeat { id; epoch = epoch () });
          ensure_mesh ();
          ensure_dconn ();
          step (Agree.Check (view ()));
          maybe_sync ()
        end
        else ensure_dconn ();
        arm_tick ()
      in
      let handle_peer_msg p (msg : Umsg.t) =
        Float.Array.set last_seen p (now ());
        suspected_extra.(p) <- false;
        (* a peer we no longer consider a member is fenced: tell it *)
        if Agree.started !ag && not is_member.(p) then step (Agree.Outsider p);
        match msg with
        | Umsg.Peer_hello _ -> ()
        | Umsg.Heartbeat { epoch = he; _ } -> step (Agree.Heartbeat (p, he))
        | Umsg.Backup { rank; iter; state } -> store_snap rank iter state
        | Umsg.Fetch { id = from; rank; iter } -> (
            match Hashtbl.find_opt snaps rank with
            | Some per_rank when Hashtbl.mem per_rank iter ->
                psend from ~size:env.Uenv.state_bytes
                  (Umsg.Snapshot { rank; iter; state = Hashtbl.find per_rank iter })
            | _ -> psend from (Umsg.Snapshot { rank; iter = -1; state = [||] }))
        | Umsg.Snapshot { rank; iter; state } ->
            if iter >= 0 then begin
              store_snap rank iter state;
              if Hashtbl.mem pending_fetch rank then begin
                Hashtbl.remove pending_fetch rank;
                maybe_sync ()
              end
            end
            else begin
              trace "fetch-failed" "rank %d iteration %d" rank iter;
              torn := true;
              step (Agree.Torn (view ()))
            end
        | Umsg.Sync { id = from; epoch = e; phase; value } ->
            if e >= epoch () then begin
              Hashtbl.replace sync_inbox (e, from, phase) value;
              advance_sync ()
            end
        | Umsg.App { epoch = e; msg } ->
            if e = epoch () then deliver msg
            else if e > epoch () then future := !future @ [ (e, msg) ]
        | msg -> step (Agree.Message (view (), p, msg))
      in
      let handle_app e rank (req : Daemon.app_request) =
        if e = epoch () then
          match req with
          | A_send m -> route_send m
          | A_recv { src; tag; reply } -> serve_recv rank src tag reply
          | A_commit state -> (
              store_snap rank state.(0) state;
              match buddy () with
              | Some b when b <> id ->
                  psend b ~size:env.Uenv.state_bytes
                    (Umsg.Backup { rank; iter = state.(0); state })
              | _ -> ())
          | A_finalize ->
              if not (Hashtbl.mem done_ranks rank) then
                trace ~level:Trace.Full "rank-done" "rank %d (epoch %d)" rank (epoch ());
              Hashtbl.replace done_ranks rank ();
              dsend (Umsg.Rank_done { rank })
      in

      (* ---------------- FCI wiring ---------------- *)
      ignore
        (Daemon.register env.Uenv.fci ~host
           ~name:(Printf.sprintf "udaemon%d@%d" id host)
           ~main:self
           ~children:(fun f ->
             Hashtbl.iter (fun _ p -> f p) app_procs;
             Option.iter f !acceptor));
      trace ~level:Trace.Full "daemon-start" "host %d incarnation %d" host incarnation;
      Daemon.startup_delay cfg env.Uenv.rng;
      ensure_dconn ();
      Daemon.handshake env.Uenv.fci ~host;
      let listener = Net.listen env.Uenv.net ~host ~port:Config.daemon_port in
      Fun.protect ~finally:(fun () -> Net.close_listener listener) @@ fun () ->
      acceptor :=
        Some
          (Daemon.accept cluster ~host ~name listener
             (fun conn -> function
               | Umsg.Peer_hello { id = p } -> Some (E_peer_joined (p, conn))
               | _ -> None)
             events);
      ready_sent := true;
      dsend (Umsg.Ready { id });
      arm_tick ();
      let rec loop () =
        if !alive then begin
          (match Mailbox.recv events with
          | E_ctrl None -> dconn := None
          | E_ctrl (Some (Umsg.Start { ids })) ->
              if not (Agree.started !ag) then begin
                step (Agree.Start ids);
                refresh ();
                trace ~level:Trace.Full "start" "";
                ensure_mesh ();
                maybe_sync ()
              end
          | E_ctrl (Some Umsg.Shutdown) ->
              stop_task ();
              trace ~level:Trace.Full "daemon-exit" "shutdown"
          | E_ctrl (Some msg) ->
              trace "protocol-error" "%s" (Format.asprintf "from dispatcher: %a" Umsg.pp msg)
          | E_peer_joined (p, conn) -> register_peer p conn
          | E_peer (p, Some msg) -> handle_peer_msg p msg
          | E_peer (p, None) ->
              (match Hashtbl.find_opt peer_conns p with
              | Some _ ->
                  Hashtbl.remove peer_conns p;
                  if Agree.started !ag && is_member.(p) then begin
                    trace ~level:Trace.Full "peer-lost" "daemon %d" p;
                    torn := true;
                    step (Agree.Torn (view ()))
                  end
              | None -> ())
          | E_tick -> handle_tick ()
          | E_timer tm -> step (Agree.Timeout (view (), tm))
          | E_app (e, rank, req) -> handle_app e rank req);
          loop ()
        end
      in
      loop ())
