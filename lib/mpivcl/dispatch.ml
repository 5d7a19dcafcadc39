open Simkern
open Simos
module Net = Simnet.Net

type outcome = Completed of float | Aborted of string

let fabric eng ?fci (cfg : Config.t) (base : Layout.t) =
  let cluster, net = Layout.fabric eng base in
  (* Perturb the fabric before any process starts, then hand it to the
     FCI control plane so daemon traffic rides the same links. *)
  (match cfg.net with
  | Some profile -> Net.Perturb.apply (Net.perturb net) profile
  | None -> ());
  (match fci with
  | Some rt -> Fci.Runtime.set_fabric rt (Net.perturb net)
  | None -> ());
  (* Validate the declared topology against the compute pool at launch —
     a fabric too small for the job is a configuration error, not a
     mid-run trace. Unperturbed runs never consult the geometry. *)
  (match cfg.topology with
  | Some spec -> (
      let topo = Simtopo.Topo.for_cluster spec ~n_compute:base.n_compute in
      match fci with
      | Some rt -> Fci.Runtime.set_topology rt topo
      | None -> ())
  | None -> ());
  (cluster, net)

let serve cluster ~host ~name net ~hello ~registered ~msg ~closed events ~start handle =
  ignore
    (Cluster.spawn_on cluster ~host ~name (fun () ->
         let listener = Net.listen net ~host ~port:Config.dispatcher_port in
         Fun.protect ~finally:(fun () -> Net.close_listener listener) @@ fun () ->
         (* Accept daemon connections; each starts with Hello and is then
            pumped into the event mailbox tagged by the daemon's key. *)
         ignore
           (Cluster.spawn_on cluster ~host ~name:(name ^ "-accept") (fun () ->
                let rec accept_loop () =
                  match Net.accept listener with
                  | None -> ()
                  | Some conn ->
                      ignore
                        (Cluster.spawn_on cluster ~host ~name:(name ^ "-conn") (fun () ->
                             match Net.recv conn with
                             | Net.Data m -> (
                                 match hello m with
                                 | Some key ->
                                     Mailbox.send events (registered key conn);
                                     let rec pump_loop () =
                                       match Net.recv conn with
                                       | Net.Data m ->
                                           Mailbox.send events (msg key m);
                                           pump_loop ()
                                       | Net.Closed -> Mailbox.send events (closed key)
                                     in
                                     pump_loop ()
                                 | None -> Net.close conn)
                             | Net.Closed -> Net.close conn));
                      accept_loop ()
                in
                accept_loop ()));
         start ();
         let rec main_loop () =
           handle (Mailbox.recv events);
           main_loop ()
         in
         main_loop ()))

let ssh cluster ~host ~name (cfg : Config.t) ~inc daemon died events =
  ignore
    (Cluster.spawn_on cluster ~host ~name (fun () ->
         if inc > 0 then Proc.sleep cfg.relaunch_delay;
         Proc.sleep cfg.ssh_delay;
         Proc.on_exit (daemon ()) (fun _ -> Mailbox.send events died)))
