open Simkern
open Simos
module Net = Simnet.Net
module Message = Mpivcl.Message
module Matching = Mpivcl.Matching
module Config = Mpivcl.Config
module App = Mpivcl.App
module Daemon = Mpivcl.Daemon

(* One ulfm daemon per host. Unlike the rollback families there is no
   recovery wave and no relaunch: every daemon watches its peers with
   heartbeats, raises a revoke into whatever is running when one goes
   silent, agrees with the survivors on the next epoch's dense
   communicator (two-phase, ballot-ordered, quorum = majority of the
   superseded epoch), fetches missing restart snapshots from buddies,
   re-knits the synchronisation collective and restarts its assigned
   ranks from the agreed iteration. A daemon that finds itself outside
   the decided survivor set fences itself off and exits. *)

type ev =
  | E_ctrl of Umsg.t option
  | E_peer of int * Umsg.t option
  | E_peer_joined of int * Umsg.t Net.conn
  | E_tick
  | E_propose of int
  | E_ballot_timeout of int
  | E_app of int * int * Daemon.app_request  (* epoch, hosted rank, request *)

(* In-flight ballot bookkeeping for the candidate role. *)
type ballot_state = {
  bs_ballot : int;
  bs_proposed : int list;
  bs_grants : (int, (int * Shrinkc.decision) option * (int * int list) list) Hashtbl.t;
  mutable bs_decision : Shrinkc.decision option; (* Some once phase 2 started *)
  bs_accepts : (int, unit) Hashtbl.t;
}

(* Snapshot history kept per hosted rank (own commits and buddy
   backups). Old entries are pruned; the agreement recomputes a common
   restart point from whatever survives, down to the initial state. *)
let snap_history = 12

(* Period of the all-to-all daemon heartbeat that drives failure
   suspicion. *)
let heartbeat_period = 2.0

(* Silence (no heartbeat, no app traffic) after which a peer is locally
   suspected and a revoke is raised into any running collective. *)
let suspicion_timeout = 8.0

(* Per-ballot agreement round timeout before the candidate abandons the
   ballot and retries with a higher one. *)
let agree_timeout = 3.0

(* Agreement attempts before a daemon concludes it is on the wrong side
   of a partition and aborts cleanly rather than risk a split-brain
   shrink. *)
let max_ballots = 25

let index_of x xs =
  let rec go i = function
    | [] -> None
    | y :: _ when y = x -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 xs

let spawn (env : Uenv.t) ~id ~incarnation =
  let eng = env.Uenv.eng in
  let cluster = env.Uenv.cluster in
  let cfg = env.Uenv.cfg in
  let n = cfg.Config.n_ranks in
  let population = env.Uenv.population in
  let host = id in
  let name = Printf.sprintf "udaemon-%d" id in
  let trace ?level event fmt = Engine.record ?level eng ~source:name ~event fmt in
  Cluster.spawn_on cluster ~host ~name (fun () ->
      let events : ev Mailbox.t = Mailbox.create () in
      let alive = ref true in
      let started = ref false in
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

      (* ---------------- epoch state ---------------- *)
      let epoch = ref 0 in
      (* [members] and [assign] keep the order the agreement and the mesh
         iterate them in; [is_member] (by daemon id) and [host_of_rank]
         (-1 for none) answer the per-message lookups. [set_members] and
         [set_assign] change each list and its array together. *)
      let members = ref [] in
      let assign = ref [] in
      let is_member = Array.make population false in
      let host_of_rank = Array.make n (-1) in
      let set_members ms =
        members := ms;
        Array.fill is_member 0 population false;
        List.iter (fun p -> is_member.(p) <- true) ms
      in
      let set_assign a =
        assign := a;
        Array.fill host_of_rank 0 n (-1);
        (* the first pair of a rank wins, as [List.assoc_opt] finds it *)
        List.iter (fun (r, d) -> if host_of_rank.(r) < 0 then host_of_rank.(r) <- d) a
      in
      let restart = ref 0 in
      let last_decision : Shrinkc.decision option ref = ref None in

      (* ---------------- failure detection ---------------- *)
      let peer_conns : (int, Umsg.t Net.conn) Hashtbl.t = Hashtbl.create 16 in
      (* by daemon id; [neg_infinity] = never heard, so suspected *)
      let last_seen = Float.Array.make population neg_infinity in
      let suspected_extra = Array.make population false in
      let torn = ref false in
      let revoked = ref false in

      (* ---------------- agreement ---------------- *)
      let attempt = ref 0 in
      let ballots_used = ref 0 in
      let ballots_total = ref 0 in
      let promised : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let accepted : (int, int * Shrinkc.decision) Hashtbl.t = Hashtbl.create 8 in
      let proposing : ballot_state option ref = ref None in
      let propose_token = ref 0 in
      let propose_armed = ref false in
      let ballot_token = ref 0 in

      (* ---------------- snapshots ---------------- *)
      let snaps : (int, (int, int array) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      let pending_fetch : (int, unit) Hashtbl.t = Hashtbl.create 4 in

      (* ---------------- sync collective ---------------- *)
      let sync_stage :
          [ `Idle | `Wait_pre | `Round of int | `Wait_final | `Done ] ref =
        ref `Idle
      in
      let sync_value = ref 0 in
      (* keyed (epoch, from, phase): a peer that installed the next epoch
         first may send its contribution before our Decide arrives *)
      let sync_inbox : (int * int * int, int) Hashtbl.t = Hashtbl.create 32 in
      let apps_spawned = ref false in

      (* ---------------- application plumbing ---------------- *)
      let matching : int Ivar.t Matching.t = Matching.create () in
      let future : (int * Message.app_msg) list ref = ref [] in
      let done_ranks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let last_report : Umsg.t option ref = ref None in
      let dconn : Umsg.t Net.conn option ref = ref None in

      let now () = Engine.now eng in
      let dsend msg = match !dconn with Some c -> ignore (Net.send c msg) | None -> () in
      let psend p msg =
        match Hashtbl.find_opt peer_conns p with
        | Some c -> ignore (Net.send c msg)
        | None -> ()
      in
      let psend_sized p ~size msg =
        match Hashtbl.find_opt peer_conns p with
        | Some c -> ignore (Net.send c ~size msg)
        | None -> ()
      in
      let broadcast_peers msg = Hashtbl.iter (fun _ c -> ignore (Net.send c msg)) peer_conns in

      let suspected p =
        p <> id
        && (suspected_extra.(p) || now () -. Float.Array.get last_seen p > suspicion_timeout)
      in
      let suspected_now () = List.filter suspected !members in
      let any_suspected () = List.exists suspected !members in
      let agreement_needed () = !started && (!torn || !revoked || any_suspected ()) in

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
      let buddy () =
        match !members with
        | [] | [ _ ] -> None
        | ms -> (
            match index_of id ms with
            | None -> None
            | Some i -> Some (List.nth ms ((i + 1) mod List.length ms)))
      in

      (* ---------------- application hosting ---------------- *)
      let kill_apps () =
        Hashtbl.iter (fun _ p -> Proc.kill p) app_procs;
        Hashtbl.reset app_procs
      in
      let deliver (m : Message.app_msg) =
        match Matching.deliver matching m with
        | Some reply -> Ivar.fill reply m.Message.data
        | None -> ()
      in
      let serve_recv dst src tag reply =
        match Matching.serve matching ~dst ~src ~tag reply with
        | Some m -> Ivar.fill reply m.Message.data
        | None -> ()
      in
      let route_send (m : Message.app_msg) =
        let dst = m.Message.dst in
        let d = if dst >= 0 && dst < n then host_of_rank.(dst) else -1 in
        if d = id then deliver m
        else if d >= 0 then
          psend_sized d ~size:m.Message.bytes (Umsg.App { epoch = !epoch; msg = m })
      in
      let spawn_rank r state =
        let e = !epoch in
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
          let mine = List.filter (fun (_, d) -> d = id) !assign in
          let missing =
            !restart > 0
            && List.exists (fun (r, _) -> not (holds_snap r !restart)) mine
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
                  if !restart = 0 then Array.make env.Uenv.app.App.state_size 0
                  else Array.copy (Hashtbl.find (Hashtbl.find snaps r) !restart)
                in
                spawn_rank r state)
              mine;
            if mine <> [] then
              trace ~level:Trace.Full "apps-started" "%d rank%s from iteration %d (epoch %d)"
                (List.length mine)
                (if List.length mine = 1 then "" else "s")
                !restart !epoch
          end
        end
      in

      (* ---------------- sync collective ---------------- *)
      let send_sync p phase value =
        psend p (Umsg.Sync { id; epoch = !epoch; phase; value })
      in
      let mesh_complete () =
        List.for_all (fun p -> p = id || Hashtbl.mem peer_conns p) !members
      in
      let sync_done () =
        sync_stage := `Done;
        let k = List.length !members in
        (match Shrinkc.sync_plan ~members:!members ~me:id with
        | Shrinkc.Edge _ -> ()
        | Shrinkc.Solo | Shrinkc.Core _ ->
            if !sync_value <> k then
              trace "sync-mismatch" "allreduce sum %d over %d members" !sync_value k);
        trace ~level:Trace.Full "sync-complete" "epoch %d re-knit over %d members" !epoch k;
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
        let plan = Shrinkc.sync_plan ~members:!members ~me:id in
        let take from phase =
          match Hashtbl.find_opt sync_inbox (!epoch, from, phase) with
          | Some v ->
              Hashtbl.remove sync_inbox (!epoch, from, phase);
              Some v
          | None -> None
        in
        match (!sync_stage, plan) with
        | `Wait_pre, Shrinkc.Core { edge = Some e; _ } -> (
            match take e (-1) with
            | Some v ->
                sync_value := !sync_value + v;
                enter_round plan 0
            | None -> ())
        | `Round j, Shrinkc.Core { rounds; _ } when j < Array.length rounds -> (
            match take rounds.(j) j with
            | Some v ->
                sync_value := !sync_value + v;
                enter_round plan (j + 1)
            | None -> ())
        | `Wait_final, Shrinkc.Edge { partner } -> (
            match take partner (-2) with
            | Some v ->
                sync_value := v;
                sync_done ()
            | None -> ())
        | _ -> ()
      in
      let maybe_sync () =
        if
          !alive && !started && !sync_stage = `Idle
          && Hashtbl.length pending_fetch = 0
          && mesh_complete ()
        then begin
          match Shrinkc.sync_plan ~members:!members ~me:id with
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
        match (!sync_stage, Shrinkc.sync_plan ~members:!members ~me:id) with
        | `Wait_final, Shrinkc.Edge { partner } when partner = p -> send_sync p (-1) 1
        | `Round j, Shrinkc.Core { rounds; _ }
          when j < Array.length rounds && rounds.(j) = p ->
            send_sync p j !sync_value
        | _ -> ()
      in

      (* ---------------- fetch ---------------- *)
      let donor_of r =
        match !last_decision with
        | Some d -> List.assoc_opt r d.Shrinkc.d_donors
        | None -> None
      in
      let request_fetch r =
        match donor_of r with
        | Some donor -> psend donor (Umsg.Fetch { id; rank = r; iter = !restart })
        | None -> ()
      in

      (* ---------------- agreement ---------------- *)
      let raise_revoke () =
        if !started && not !revoked then begin
          revoked := true;
          trace "revoke" "epoch %d (suspects: %s%s)" !epoch
            (String.concat "," (List.map string_of_int (suspected_now ())))
            (if !torn then "; torn link" else "")
        end;
        broadcast_peers (Umsg.Revoke { id; epoch = !epoch })
      in
      let arm_ballot_timeout () =
        incr ballot_token;
        let tok = !ballot_token in
        Engine.post eng ~delay:agree_timeout (fun () ->
            if !alive then Mailbox.send events (E_ballot_timeout tok))
      in
      let arm_propose delay =
        incr propose_token;
        let tok = !propose_token in
        propose_armed := true;
        Engine.post eng ~delay (fun () ->
            if !alive then Mailbox.send events (E_propose tok))
      in
      let ensure_propose () =
        if !alive && agreement_needed () && !proposing = None && not !propose_armed
        then begin
          let unsusp = List.filter (fun p -> not (suspected p)) !members in
          let idx = Option.value ~default:0 (index_of id unsusp) in
          arm_propose (0.05 +. (0.3 *. float_of_int idx))
        end
      in
      let stop_task () =
        kill_apps ();
        Option.iter Proc.kill !acceptor;
        alive := false
      in
      let do_abort reason =
        trace "abort" "%s" reason;
        dsend (Umsg.Abort { id; reason });
        stop_task ()
      in
      let fence () =
        trace "fenced" "excluded from epoch %d, shutting down" !epoch;
        stop_task ()
      in
      let rec ensure_mesh () =
        if !started then
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
            !members
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
      and install (d : Shrinkc.decision) =
        let ballots_spent = !ballots_used in
        epoch := d.Shrinkc.d_epoch;
        set_members d.Shrinkc.d_members;
        set_assign d.Shrinkc.d_assign;
        restart := d.Shrinkc.d_restart;
        last_decision := Some d;
        proposing := None;
        incr propose_token;
        propose_armed := false;
        incr ballot_token;
        ballots_used := 0;
        torn := false;
        revoked := false;
        Array.fill suspected_extra 0 population false;
        List.iter (fun p -> if p <> id then Float.Array.set last_seen p (now ())) !members;
        let stale_keys =
          Hashtbl.fold
            (fun ((e, _, _) as k) _ acc -> if e < !epoch then k :: acc else acc)
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
          trace "epoch-install" "epoch %d: %d members, restart iteration %d%s" !epoch
            (List.length !members) !restart
            (if d.Shrinkc.d_promoted > 0 then
               Printf.sprintf ", %d spare%s promoted" d.Shrinkc.d_promoted
                 (if d.Shrinkc.d_promoted = 1 then "" else "s")
             else "");
          let report =
            Umsg.Epoch_report
              {
                epoch = !epoch;
                members = !members;
                survivors = Shrinkc.survivors d;
                promoted = d.Shrinkc.d_promoted;
                adopted = d.Shrinkc.d_adopted;
                ballots = ballots_spent;
                restart = !restart;
              }
          in
          last_report := Some report;
          dsend report;
          List.iter
            (fun (r, _) ->
              if host_of_rank.(r) = id && not (holds_snap r !restart) then
                Hashtbl.replace pending_fetch r ())
            d.Shrinkc.d_donors;
          Hashtbl.iter (fun r () -> request_fetch r) pending_fetch;
          let ready_now, later = List.partition (fun (e, _) -> e = !epoch) !future in
          future := List.filter (fun (e, _) -> e > !epoch) later;
          List.iter (fun (_, m) -> deliver m) ready_now;
          ensure_mesh ();
          maybe_sync ()
        end
      in
      let consider (d : Shrinkc.decision) = if d.Shrinkc.d_epoch > !epoch then install d in
      let check_phase2 bs =
        match bs.bs_decision with
        | Some d when List.for_all (fun p -> Hashtbl.mem bs.bs_accepts p) bs.bs_proposed ->
            trace ~level:Trace.Full "decide" "b%d epoch %d" bs.bs_ballot d.Shrinkc.d_epoch;
            broadcast_peers (Umsg.Decide { decision = d });
            proposing := None;
            install d
        | _ -> ()
      in
      let check_phase1 bs =
        if
          bs.bs_decision = None
          && List.for_all (fun p -> Hashtbl.mem bs.bs_grants p) bs.bs_proposed
        then
          if List.length bs.bs_proposed >= Shrinkc.quorum !members then begin
            let inst = !epoch + 1 in
            let prior =
              Hashtbl.fold
                (fun _ (acc, _) best ->
                  match (acc, best) with
                  | Some (b, d), Some (b', _) when b > b' -> Some (b, d)
                  | Some (b, d), None -> Some (b, d)
                  | _ -> best)
                bs.bs_grants None
            in
            let decision =
              match prior with
              | Some (_, d) -> d
              | None ->
                  let avail =
                    Hashtbl.fold (fun p (_, av) acc -> (p, av) :: acc) bs.bs_grants []
                  in
                  Shrinkc.next ~n_ranks:n ~prev_assign:!assign ~members:bs.bs_proposed
                    ~avail ~epoch:inst
            in
            bs.bs_decision <- Some decision;
            Hashtbl.replace bs.bs_accepts id ();
            Hashtbl.replace promised inst bs.bs_ballot;
            Hashtbl.replace accepted inst (bs.bs_ballot, decision);
            List.iter
              (fun p ->
                if p <> id then
                  psend p (Umsg.Accept { id; ballot = bs.bs_ballot; decision }))
              bs.bs_proposed;
            arm_ballot_timeout ();
            check_phase2 bs
          end
          else begin
            (* a quorum of the superseded epoch is unreachable: we must
               not shrink (split-brain risk); retry after a beat in case
               the partition heals, abort when the ballot budget runs
               out *)
            trace "quorum-lost" "only %d of %d members reachable (quorum %d)"
              (List.length bs.bs_proposed) (List.length !members)
              (Shrinkc.quorum !members);
            proposing := None;
            arm_propose agree_timeout
          end
      in
      let start_ballot () =
        incr attempt;
        incr ballots_used;
        incr ballots_total;
        if !ballots_used > max_ballots then
          do_abort
            (Printf.sprintf "agreement exhausted after %d ballots at epoch %d"
               max_ballots !epoch)
        else begin
          let proposed = List.filter (fun p -> not (suspected p)) !members in
          let b = Shrinkc.ballot ~population ~attempt:!attempt ~id in
          let bs =
            {
              bs_ballot = b;
              bs_proposed = proposed;
              bs_grants = Hashtbl.create 8;
              bs_decision = None;
              bs_accepts = Hashtbl.create 8;
            }
          in
          proposing := Some bs;
          trace ~level:Trace.Full "ballot" "b%d proposing %d of %d members" b
            (List.length proposed) (List.length !members);
          (* self-grant; with a sole survivor this is already phase-1
             complete *)
          let inst = !epoch + 1 in
          Hashtbl.replace promised inst b;
          Hashtbl.replace bs.bs_grants id (Hashtbl.find_opt accepted inst, avail_of_snaps ());
          List.iter
            (fun p -> if p <> id then psend p (Umsg.Prepare { id; ballot = b; epoch = !epoch }))
            proposed;
          arm_ballot_timeout ();
          check_phase1 bs
        end
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
        if !started then begin
          broadcast_peers (Umsg.Heartbeat { id; epoch = !epoch });
          ensure_mesh ();
          ensure_dconn ();
          if agreement_needed () then begin
            if any_suspected () || !torn then raise_revoke ();
            ensure_propose ()
          end;
          maybe_sync ()
        end
        else ensure_dconn ();
        arm_tick ()
      in
      let handle_peer_msg p (msg : Umsg.t) =
        Float.Array.set last_seen p (now ());
        suspected_extra.(p) <- false;
        (* a peer we no longer consider a member is fenced: tell it *)
        (if !started && not is_member.(p) then
           match !last_decision with
           | Some d when not (List.mem p d.Shrinkc.d_members) ->
               psend p (Umsg.Stale { decision = d })
           | _ -> ());
        match msg with
        | Umsg.Peer_hello _ -> ()
        | Umsg.Heartbeat { epoch = he; _ } ->
            if he > !epoch then psend p (Umsg.Probe { id; epoch = !epoch })
        | Umsg.Probe { epoch = pe; _ } -> (
            if pe < !epoch then
              match !last_decision with
              | Some d -> psend p (Umsg.Stale { decision = d })
              | None -> ())
        | Umsg.Revoke { epoch = re; _ } ->
            if re = !epoch then begin
              revoked := true;
              ensure_propose ()
            end
        | Umsg.Prepare { id = from; ballot = b; epoch = pe } ->
            if pe < !epoch then (
              match !last_decision with
              | Some d -> psend p (Umsg.Stale { decision = d })
              | None -> ())
            else begin
              if pe = !epoch then revoked := true;
              let inst = pe + 1 in
              let prom = Option.value ~default:(-1) (Hashtbl.find_opt promised inst) in
              if b >= prom then begin
                Hashtbl.replace promised inst b;
                psend from
                  (Umsg.Grant
                     {
                       id;
                       ballot = b;
                       epoch = pe;
                       accepted = Hashtbl.find_opt accepted inst;
                       avail = avail_of_snaps ();
                     })
              end
              else psend from (Umsg.Reject { id; ballot = b; promised = prom })
            end
        | Umsg.Grant { id = from; ballot = b; _ } -> (
            match !proposing with
            | Some bs when bs.bs_ballot = b && bs.bs_decision = None ->
                Hashtbl.replace bs.bs_grants from
                  ( (match msg with
                    | Umsg.Grant { accepted = a; _ } -> a
                    | _ -> None),
                    match msg with
                    | Umsg.Grant { avail; _ } -> avail
                    | _ -> [] );
                check_phase1 bs
            | _ -> ())
        | Umsg.Reject { ballot = b; promised = prom; _ } -> (
            match !proposing with
            | Some bs when bs.bs_ballot = b ->
                proposing := None;
                attempt := max !attempt (Shrinkc.ballot_attempt ~population prom);
                arm_propose agree_timeout
            | _ -> ())
        | Umsg.Accept { id = from; ballot = b; decision } ->
            let inst = decision.Shrinkc.d_epoch in
            if inst <= !epoch then (
              match !last_decision with
              | Some d -> psend p (Umsg.Stale { decision = d })
              | None -> ())
            else begin
              let prom = Option.value ~default:(-1) (Hashtbl.find_opt promised inst) in
              if b >= prom then begin
                Hashtbl.replace promised inst b;
                Hashtbl.replace accepted inst (b, decision);
                psend from (Umsg.Accepted { id; ballot = b; epoch = inst })
              end
              else psend from (Umsg.Reject { id; ballot = b; promised = prom })
            end
        | Umsg.Accepted { id = from; ballot = b; _ } -> (
            match !proposing with
            | Some bs when bs.bs_ballot = b && bs.bs_decision <> None ->
                Hashtbl.replace bs.bs_accepts from ();
                check_phase2 bs
            | _ -> ())
        | Umsg.Decide { decision } -> consider decision
        | Umsg.Stale { decision } -> consider decision
        | Umsg.Backup { rank; iter; state } -> store_snap rank iter state
        | Umsg.Fetch { id = from; rank; iter } -> (
            match Hashtbl.find_opt snaps rank with
            | Some per_rank when Hashtbl.mem per_rank iter ->
                psend_sized from ~size:env.Uenv.state_bytes
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
              raise_revoke ();
              ensure_propose ()
            end
        | Umsg.Sync { id = from; epoch = e; phase; value } ->
            if e >= !epoch then begin
              Hashtbl.replace sync_inbox (e, from, phase) value;
              advance_sync ()
            end
        | Umsg.App { epoch = e; msg } ->
            if e = !epoch then deliver msg
            else if e > !epoch then future := !future @ [ (e, msg) ]
        | msg -> trace "protocol-error" "%s" (Format.asprintf "from peer %d: %a" p Umsg.pp msg)
      in
      let handle_app e rank (req : Daemon.app_request) =
        if e = !epoch then
          match req with
          | A_send m -> route_send m
          | A_recv { src; tag; reply } -> serve_recv rank src tag reply
          | A_commit state -> (
              store_snap rank state.(0) state;
              match buddy () with
              | Some b when b <> id ->
                  psend_sized b ~size:env.Uenv.state_bytes
                    (Umsg.Backup { rank; iter = state.(0); state })
              | _ -> ())
          | A_finalize ->
              if not (Hashtbl.mem done_ranks rank) then
                trace ~level:Trace.Full "rank-done" "rank %d (epoch %d)" rank !epoch;
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
              if not !started then begin
                started := true;
                set_members (List.sort_uniq Int.compare ids);
                set_assign (List.init n (fun r -> (r, r)));
                List.iter
                  (fun p -> if p <> id then Float.Array.set last_seen p (now ()))
                  !members;
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
                  if !started && is_member.(p) then begin
                    trace ~level:Trace.Full "peer-lost" "daemon %d" p;
                    torn := true;
                    raise_revoke ();
                    ensure_propose ()
                  end
              | None -> ())
          | E_tick -> handle_tick ()
          | E_propose tok ->
              propose_armed := false;
              if tok = !propose_token && agreement_needed () && !proposing = None then
                start_ballot ()
          | E_ballot_timeout tok ->
              if tok = !ballot_token then (
                match !proposing with
                | Some bs ->
                    let heard p =
                      if bs.bs_decision = None then Hashtbl.mem bs.bs_grants p
                      else Hashtbl.mem bs.bs_accepts p
                    in
                    List.iter
                      (fun p ->
                        if p <> id && not (heard p) then suspected_extra.(p) <- true)
                      bs.bs_proposed;
                    trace ~level:Trace.Full "ballot-timeout" "b%d" bs.bs_ballot;
                    proposing := None;
                    ensure_propose ()
                | None -> ())
          | E_app (e, rank, req) -> handle_app e rank req);
          loop ()
        end
      in
      loop ())
