open Simkern
open Simos

(* A storage slot on the server's disk. The prepare/commit protocol
   stamps an image incomplete before the transfer starts and seals it
   after the last byte lands: a server killed mid-store leaves the
   incomplete stamp behind, and the restart scan discards the torn
   image instead of ever serving it. *)
type slot = { s_image : Message.image; s_complete : bool }

let respawn_delay = 45.0

(* Bound on the waits for a mirror's ack and for a resync reply, the
   same 20 s the scheduler gives a wave's store acks. *)
let ack_timeout = 20.0

type t = {
  eng : Engine.t;
  cluster : Cluster.t;
  net : Message.t Simnet.Net.t;
  host : int;
  index : int;  (* this server's shard: serves ranks with rank mod n = index *)
  server_hosts : int array;
  replicas : int;
  respawn : float option;
  transfer_time : int -> float;
  (* The two tables model the host's disk: they survive the server
     *process* dying (FAIL kills tasks, not file systems), which is what
     makes torn-write detection meaningful on restart. *)
  pending : (int, slot) Hashtbl.t;  (* rank -> in-progress image *)
  committed_tbl : (int, Message.image) Hashtbl.t;  (* rank -> last complete image *)
  mutable listener : Message.t Simnet.Net.listener option;
  mutable mirror_conn : Message.t Simnet.Net.conn option;
  mutable halted : bool;
  mutable torn_count : int;
  mutable resync_count : int;
  mutable respawn_count : int;
}

let trace ?level t event fmt = Engine.record ?level t.eng ~source:"ckpt-server" ~event fmt

let n_servers t = Array.length t.server_hosts
let mirrored t = t.replicas >= 2 && n_servers t >= 2
let primary_index t ~rank = rank mod n_servers t

(* One transfer at a time: the server NIC/disk is the shared resource. *)
let worker_loop jobs =
  let rec run () =
    let job = Mailbox.recv jobs in
    job ();
    run ()
  in
  run ()

(* Replicate a freshly sealed image to the rank's mirror (the next
   server in the ring) and wait for its ack; only then may the daemon's
   store be acknowledged. A dead or frozen mirror degrades replication
   (traced [mirror-skip]) instead of wedging the store pipeline — the
   mirror catches up through the resync pull when it comes back. *)
let mirror_push t (image : Message.image) =
  let rank = image.Message.img_rank and wave = image.Message.img_wave in
  let skip why =
    t.mirror_conn <- None;
    trace t "mirror-skip" "rank %d wave %d: %s" rank wave why
  in
  let conn =
    match t.mirror_conn with
    | Some c when Simnet.Net.is_open c -> Some c
    | _ -> (
        let to_host = t.server_hosts.((t.index + 1) mod n_servers t) in
        match
          Simnet.Net.connect t.net ~host:t.host ~to_host ~to_port:Config.server_port
        with
        | Ok c ->
            t.mirror_conn <- Some c;
            Some c
        | Error `Refused -> None)
  in
  match conn with
  | None -> skip "mirror unreachable"
  | Some c ->
      if not (Simnet.Net.send c ~size:image.Message.img_bytes (Message.Mirror_store { image }))
      then skip "mirror connection lost"
      else (
        match Simnet.Net.recv_timeout c ~timeout:ack_timeout with
        | Some (Simnet.Net.Data (Message.Mirror_ack { rank = r; wave = w }))
          when r = rank && w = wave ->
            trace ~level:Trace.Full t "mirror-ack" "rank %d wave %d" rank wave
        | Some (Simnet.Net.Data _) -> skip "mirror protocol error"
        | Some Simnet.Net.Closed -> skip "mirror died"
        | None -> skip "mirror ack timeout")

let handle_conn t jobs conn =
  let transfer_time = t.transfer_time in
  let rec run () =
    match Simnet.Net.recv conn with
    | Simnet.Net.Closed -> ()
    | Simnet.Net.Data msg ->
        (match msg with
        | Message.Store { image } ->
            Mailbox.send jobs (fun () ->
                let rank = image.Message.img_rank in
                (* prepare: stamp the slot incomplete before the bytes
                   start flowing, seal it after — the torn-write marker *)
                Hashtbl.replace t.pending rank { s_image = image; s_complete = false };
                Proc.sleep (transfer_time image.Message.img_bytes);
                Hashtbl.replace t.pending rank { s_image = image; s_complete = true };
                trace ~level:Trace.Full t "store" "rank %d wave %d (%d bytes)" rank
                  image.Message.img_wave image.Message.img_bytes;
                if mirrored t && primary_index t ~rank = t.index then mirror_push t image;
                ignore (Simnet.Net.send conn (Message.Store_done { wave = image.Message.img_wave })))
        | Message.Mirror_store { image } ->
            (* Handled inline, NOT through the jobs worker: the primary's
               worker blocks on our ack, so routing this through our own
               worker would deadlock two servers mirroring to each other. *)
            let rank = image.Message.img_rank in
            Hashtbl.replace t.pending rank { s_image = image; s_complete = false };
            Proc.sleep (transfer_time image.Message.img_bytes);
            Hashtbl.replace t.pending rank { s_image = image; s_complete = true };
            trace ~level:Trace.Full t "mirror-store" "rank %d wave %d (%d bytes)" rank
              image.Message.img_wave image.Message.img_bytes;
            ignore
              (Simnet.Net.send conn
                 (Message.Mirror_ack { rank; wave = image.Message.img_wave }))
        | Message.Sync_pull { shard } ->
            (* A respawned neighbour rebuilds a shard from our committed
               images. Served inline for the same reason as mirror
               stores; the bulk transfer pays for its total size. *)
            let n = n_servers t in
            let images =
              Hashtbl.fold
                (fun rank img acc -> if rank mod n = shard then img :: acc else acc)
                t.committed_tbl []
              |> List.sort (fun (a : Message.image) b ->
                     compare a.Message.img_rank b.Message.img_rank)
            in
            let total =
              List.fold_left (fun acc (i : Message.image) -> acc + i.Message.img_bytes) 0 images
            in
            Proc.sleep (transfer_time total);
            trace ~level:Trace.Full t "sync-serve" "shard %d: %d image(s), %d bytes" shard
              (List.length images) total;
            ignore (Simnet.Net.send conn ~size:(max 64 total) (Message.Sync_images { images }))
        | Message.Fetch { rank; local_wave } -> (
            match Hashtbl.find_opt t.committed_tbl rank with
            | Some image when local_wave = Some image.Message.img_wave ->
                (* The host already has this wave on local disk: no
                   transfer needed. *)
                trace ~level:Trace.Full t "fetch-local" "rank %d wave %d" rank
                  image.Message.img_wave;
                ignore (Simnet.Net.send conn (Message.Fetch_use_local { wave = image.Message.img_wave }))
            | Some image ->
                Mailbox.send jobs (fun () ->
                    Proc.sleep (transfer_time image.Message.img_bytes);
                    trace ~level:Trace.Full t "fetch-remote" "rank %d wave %d" rank
                      image.Message.img_wave;
                    (* Transfer time is modelled by the worker sleep above;
                       the reply itself is metadata. *)
                    ignore (Simnet.Net.send conn (Message.Fetch_image { image = Some image })))
            | None ->
                trace ~level:Trace.Full t "fetch-none" "rank %d" rank;
                ignore (Simnet.Net.send conn (Message.Fetch_image { image = None })))
        | Message.Commit { wave } ->
            (* Commit is the atomic slot flip: only sealed images move,
               and the committed wave for a rank never regresses. An
               in-flight (torn) image is simply left out of the wave. *)
            let moved = ref 0 in
            Hashtbl.iter
              (fun rank slot ->
                if slot.s_complete && slot.s_image.Message.img_wave = wave then begin
                  let regresses =
                    match Hashtbl.find_opt t.committed_tbl rank with
                    | Some cur -> cur.Message.img_wave > wave
                    | None -> false
                  in
                  if not regresses then begin
                    Hashtbl.replace t.committed_tbl rank slot.s_image;
                    incr moved
                  end
                end)
              (Hashtbl.copy t.pending);
            Hashtbl.iter
              (fun rank slot ->
                if slot.s_complete && slot.s_image.Message.img_wave <= wave then
                  Hashtbl.remove t.pending rank)
              (Hashtbl.copy t.pending);
            trace ~level:Trace.Full t "commit" "wave %d (%d images)" wave !moved
        | Message.Commit_rank { rank; wave } ->
            (match Hashtbl.find_opt t.pending rank with
            | Some slot when slot.s_complete && slot.s_image.Message.img_wave = wave ->
                Hashtbl.replace t.committed_tbl rank slot.s_image;
                Hashtbl.remove t.pending rank;
                trace t "commit-rank" "rank %d wave %d" rank wave;
                (* v2's per-rank commits bypass the scheduler, so the
                   primary forwards them to the mirror itself. *)
                if mirrored t && primary_index t ~rank = t.index then begin
                  match t.mirror_conn with
                  | Some c when Simnet.Net.is_open c ->
                      ignore (Simnet.Net.send c (Message.Commit_rank { rank; wave }))
                  | Some _ | None -> ()
                end
            | Some _ | None ->
                trace ~level:Trace.Full t "commit-rank-miss" "rank %d wave %d" rank wave)
        | Message.Peer_hello _ | Message.App _ | Message.Marker _ | Message.Hello _
        | Message.Ready _ | Message.Start _ | Message.Terminate | Message.Rank_done _
        | Message.Shutdown | Message.Sched_hello _ | Message.Sched_marker _
        | Message.Sched_ack _ | Message.Store_done _ | Message.Fetch_use_local _
        | Message.Fetch_image _ | Message.App_logged _ | Message.Log_gc _
        | Message.Resend _ | Message.Mirror_ack _ | Message.Sync_images _
        | Message.Ckpt_lost_report _ ->
            trace t "protocol-error" "%s" (Format.asprintf "unexpected %a" Message.pp msg));
        run ()
  in
  run ()

(* Restart-time disk scan and shard resync, run by a respawned server
   before it opens its listener ("re-syncs its shard from its mirror
   before serving"). *)
let recover t =
  let torn =
    Hashtbl.fold
      (fun rank slot acc -> if not slot.s_complete then (rank, slot.s_image.Message.img_wave) :: acc else acc)
      t.pending []
  in
  List.iter (fun (rank, _) -> Hashtbl.remove t.pending rank) torn;
  if torn <> [] then begin
    t.torn_count <- t.torn_count + List.length torn;
    trace t "torn-discarded" "%s"
      (String.concat ", "
         (List.map (fun (r, w) -> Printf.sprintf "rank %d wave %d" r w)
            (List.sort compare torn)))
  end;
  if mirrored t then begin
    let n = n_servers t in
    let pull ~from_index ~shard =
      let to_host = t.server_hosts.(from_index) in
      match Simnet.Net.connect t.net ~host:t.host ~to_host ~to_port:Config.server_port with
      | Error `Refused ->
          trace t "resync-skip" "shard %d: server %d unreachable" shard from_index
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Simnet.Net.close c)
            (fun () ->
              if not (Simnet.Net.send c (Message.Sync_pull { shard })) then
                trace t "resync-skip" "shard %d: connection lost" shard
              else
                match Simnet.Net.recv_timeout c ~timeout:ack_timeout with
                | Some (Simnet.Net.Data (Message.Sync_images { images })) ->
                    let installed = ref 0 in
                    List.iter
                      (fun (img : Message.image) ->
                        let newer =
                          match Hashtbl.find_opt t.committed_tbl img.Message.img_rank with
                          | Some cur -> img.Message.img_wave > cur.Message.img_wave
                          | None -> true
                        in
                        if newer then begin
                          Hashtbl.replace t.committed_tbl img.Message.img_rank img;
                          incr installed
                        end)
                      images;
                    t.resync_count <- t.resync_count + 1;
                    trace t "resync" "shard %d from server %d: %d image(s)" shard from_index
                      !installed
                | Some (Simnet.Net.Data _) | Some Simnet.Net.Closed | None ->
                    trace t "resync-skip" "shard %d: no reply" shard)
    in
    (* Our own shard from the mirror that replicated it, and the
       neighbour shard we mirror from that shard's primary. *)
    pull ~from_index:((t.index + 1) mod n) ~shard:t.index;
    pull ~from_index:((t.index + n - 1) mod n) ~shard:((t.index + n - 1) mod n)
  end

let close_listener t =
  match t.listener with
  | Some l ->
      t.listener <- None;
      Simnet.Net.close_listener l
  | None -> ()

let rec start t ~first =
  let jobs = Mailbox.create () in
  ignore
    (Cluster.spawn_on t.cluster ~host:t.host ~name:"ckpt-server-worker" (fun () -> worker_loop jobs));
  let proc =
    Cluster.spawn_on t.cluster ~host:t.host ~name:"ckpt-server" (fun () ->
        if not first then recover t;
        let listener = Simnet.Net.listen t.net ~host:t.host ~port:Config.server_port in
        t.listener <- Some listener;
        Fun.protect
          ~finally:(fun () -> close_listener t)
          (fun () ->
            let rec accept_loop () =
              match Simnet.Net.accept listener with
              | None -> ()
              | Some conn ->
                  ignore
                    (Cluster.spawn_on t.cluster ~host:t.host ~name:"ckpt-server-conn" (fun () ->
                         handle_conn t jobs conn));
                  accept_loop ()
            in
            accept_loop ()))
  in
  match t.respawn with
  | None -> ()
  | Some delay ->
      (* The storage plane restarts a dead server after [delay] (the
         paper's operator restart). Registering the hook is free in
         unperturbed runs: it only ever fires when something killed the
         server, and [halt] disarms it before teardown. *)
      Proc.on_exit proc (fun _reason ->
          if not t.halted then begin
            close_listener t;
            t.mirror_conn <- None;
            Engine.post t.eng ~delay (fun () ->
                if not t.halted then begin
                  t.respawn_count <- t.respawn_count + 1;
                  trace t "respawn" "server %d (host %d) restarting" t.index t.host;
                  start t ~first:false
                end)
          end)

let spawn eng cluster net ~host ~bandwidth ?(jitter = 0.0) ?(index = 0) ?server_hosts
    ?(replicas = 1) ?respawn () =
  let server_hosts = match server_hosts with Some a -> a | None -> [| host |] in
  let rng = Rng.split (Engine.rng eng) in
  let transfer_time bytes =
    let noise = 1.0 +. (jitter *. ((Rng.float rng 2.0) -. 1.0)) in
    Float.max 0.0 (float_of_int bytes /. bandwidth *. noise)
  in
  let t =
    {
      eng;
      cluster;
      net;
      host;
      index;
      server_hosts;
      replicas;
      respawn;
      transfer_time;
      pending = Hashtbl.create 64;
      committed_tbl = Hashtbl.create 64;
      listener = None;
      mirror_conn = None;
      halted = false;
      torn_count = 0;
      resync_count = 0;
      respawn_count = 0;
    }
  in
  start t ~first:true;
  t

let committed_wave t ~rank =
  Option.map (fun (i : Message.image) -> i.Message.img_wave) (Hashtbl.find_opt t.committed_tbl rank)

let pending_torn t ~rank =
  match Hashtbl.find_opt t.pending rank with
  | Some slot -> not slot.s_complete
  | None -> false

let torn_discarded t = t.torn_count
let resyncs t = t.resync_count
let respawns t = t.respawn_count

let inject_kill t = Cluster.kill_all t.cluster ~host:t.host

let freeze t =
  List.iter (fun p -> Proc.freeze p) (Cluster.tasks t.cluster ~host:t.host)

let unfreeze t =
  List.iter (fun p -> Proc.unfreeze p) (Cluster.tasks t.cluster ~host:t.host)

let halt t =
  t.halted <- true;
  Cluster.kill_all t.cluster ~host:t.host
