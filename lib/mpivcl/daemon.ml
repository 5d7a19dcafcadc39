open Simkern
open Simos
module Net = Simnet.Net

let handshake_delay = 0.1
let local_restore_time = 0.2
let restart_settle = 0.1
let fetch_retries = 3
let fetch_backoff = 0.5

let register fci ~host ~name ~main ~children =
  let vars = Fci.Control.make_vars () in
  (match fci with
  | Some rt ->
      Fci.Runtime.register rt ~machine:host
        (Fci.Control.with_vars (Fci.Control.of_procs ~name ~main ~children) vars)
  | None -> ());
  vars

let startup_delay (cfg : Config.t) rng =
  Proc.sleep (cfg.init_delay_min +. Rng.float rng (cfg.init_delay_max -. cfg.init_delay_min))

let handshake fci ~host =
  Proc.sleep handshake_delay;
  match fci with
  | Some rt -> Fci.Runtime.breakpoint rt ~machine:host `Before "localMPI_setCommand"
  | None -> ()

let accept cluster ~host ~name listener classify events =
  Cluster.spawn_on cluster ~host ~name:(name ^ "-accept") (fun () ->
      let rec loop () =
        match Net.accept listener with
        | None -> ()
        | Some conn ->
            (match Net.recv conn with
            | Net.Data m -> (
                match classify conn m with
                | Some ev -> Mailbox.send events ev
                | None -> Net.close conn)
            | Net.Closed -> Net.close conn);
            loop ()
      in
      loop ())

type app_request =
  | A_send of Message.app_msg
  | A_recv of { src : int; tag : int; reply : int Proc.slot }
  | A_commit of int array
  | A_finalize

let app_ctx rng ~rank ~size ~state ~set_app_var post =
  let salt = Rng.int64 rng in
  let reply = Proc.slot () in
  {
    App.rank;
    size;
    state;
    send =
      (fun ~dst ~tag ?(bytes = 1024) data ->
        post (A_send { Message.src = rank; dst; tag; data; bytes }));
    recv =
      (fun ~src ~tag ->
        post (A_recv { src; tag; reply });
        Proc.await reply);
    commit = (fun () -> post (A_commit (Array.copy state)));
    finalize = (fun () -> post A_finalize);
    set_app_var;
    noise =
      (fun k ->
        let x =
          Int64.to_int
            (Int64.logand (Rng.int64 (Rng.create (Int64.add salt (Int64.of_int k)))) 0xFFFFFL)
        in
        (float_of_int x /. 524287.5) -. 1.0);
  }

let deliver matching ~redelivery (m : Message.app_msg) =
  match Matching.deliver matching m with
  | Some reply ->
      redelivery := m :: !redelivery;
      ignore (Proc.fill reply m.data)
  | None -> ()

let serve matching ~redelivery ~dst ~src ~tag reply =
  match Matching.serve matching ~dst ~src ~tag reply with
  | Some (m : Message.app_msg) ->
      redelivery := m :: !redelivery;
      ignore (Proc.fill reply m.data)
  | None -> ()

let fetch_from (env : Env.t) ~host ~rank to_host =
  match Net.connect env.net ~host ~to_host ~to_port:Config.server_port with
  | Error `Refused -> `Unreachable
  | Ok fconn ->
      let local_wave = Local_disk.newest_wave env.disk ~host ~rank in
      ignore (Net.send fconn (Message.Fetch { rank; local_wave }));
      let result =
        match Net.recv fconn with
        | Net.Data (Message.Fetch_use_local { wave }) ->
            Proc.sleep local_restore_time;
            `Image (Local_disk.lookup env.disk ~host ~rank ~wave)
        | Net.Data (Message.Fetch_image { image }) -> `Image image
        | Net.Data _ -> `Image None
        | Net.Closed -> `Unreachable
      in
      Net.close fconn;
      result

let restore env ~source ~host ~rank ~incarnation =
  let with_backoff to_host =
    let rec attempt k =
      match fetch_from env ~host ~rank to_host with
      | `Image _ as r -> r
      | `Unreachable ->
          if k + 1 < fetch_retries then begin
            Proc.sleep
              (Net.Perturb.backoff ~rto_initial:fetch_backoff ~rto_max:(8.0 *. fetch_backoff)
                 ~attempt:k);
            attempt (k + 1)
          end
          else `Unreachable
    in
    attempt 0
  in
  let rec walk = function
    | [] -> `Lost
    | to_host :: rest -> (
        match with_backoff to_host with
        | `Image img -> `Image img
        | `Unreachable ->
            if rest <> [] then
              Engine.record env.Env.eng ~source ~event:"fetch-failover"
                "server host %d unreachable, trying mirror" to_host;
            walk rest)
  in
  if incarnation = 0 then `Image None else walk (Env.storage_hosts env ~rank)

type storage = {
  mutable conn : Message.t Net.conn option;
  replicas : int list;
  connect : int -> Message.t Net.conn option;  (* forwards the new link *)
  eng : Engine.t;
  source : string;
}

let storage (env : Env.t) ~source ~host ~rank wrap events =
  let replicas = Env.storage_hosts env ~rank in
  let connect to_host =
    match Net.connect env.net ~host ~to_host ~to_port:Config.server_port with
    | Ok c ->
        Net.forward c (fun m -> Mailbox.send events (wrap m));
        Some c
    | Error `Refused -> None
  in
  { conn = connect (List.hd replicas); replicas; connect; eng = env.eng; source }

let storage_link s = s.conn

let ensure_storage s =
  (match s.conn with
  | Some c when Net.is_open c -> ()
  | Some _ | None ->
      s.conn <- None;
      List.iter
        (fun to_host ->
          if s.conn = None then
            match s.connect to_host with
            | Some c ->
                Engine.record s.eng ~source:s.source ~event:"server-reconnect"
                  "storage host %d%s" to_host
                  (if to_host = List.hd s.replicas then "" else " (mirror)");
                s.conn <- Some c
            | None -> ())
        s.replicas);
  s.conn
