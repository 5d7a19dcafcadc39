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
            forwarded into the event mailbox tagged by the daemon's key,
            on behalf of the accept loop, which owns the endpoints. *)
         ignore
           (Cluster.spawn_on cluster ~host ~name:(name ^ "-accept") (fun () ->
                let owner = Proc.self () in
                let rec accept_loop () =
                  match Net.accept listener with
                  | None -> ()
                  | Some conn ->
                      let key = ref `Hello in
                      Net.forward ~owner conn (fun m ->
                          match (!key, m) with
                          | `Hello, Some m -> (
                              match hello m with
                              | Some k ->
                                  key := `Key k;
                                  Mailbox.send events (registered k conn)
                              | None ->
                                  key := `Refused;
                                  Net.close conn)
                          | `Hello, None -> Net.close conn
                          | `Key k, Some m -> Mailbox.send events (msg k m)
                          | `Key k, None -> Mailbox.send events (closed k)
                          | `Refused, _ -> ());
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
