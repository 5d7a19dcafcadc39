(* The ckpt suite: the checkpoint storage plane.

   Part 1 — the replication-off guarantee: the same fixed-seed BT runs
   at --ckpt-replicas 1 (the historical single-copy plane) vs
   --ckpt-replicas 2. Failure-free, the mirror traffic must be invisible
   to the application — the same outcome, completion time, fault count
   and checksums — and mirroring may allocate at most 5% more minor
   words; the suite refuses to write its file otherwise. (Storage-plane
   counters like committed_waves may differ: mirrored stores take
   longer, so fewer tail waves seal before completion.)

   Part 2 — store/fetch latency vs replica count: a single client
   against a fresh storage plane, timing (in simulated seconds) the
   store ack with and without a mirror in the loop, and the fetch round
   trip.

   Part 3 — recovery with and without failover: a rank kill whose
   recovery reads from its healthy primary vs the same kill after the
   primary was shot (`halt service ckpt[1]`), forcing the fetch ladder
   onto the mirror. The wall-clock companion of
   `failmpi_experiments ckptfault`. *)

let reps = 5
let n_machines = Experiments.Harness.machines_for Fixture.n_ranks

let run_bt ?scenario ~ckpt_replicas ~seed () =
  Fixture.bt4 ?scenario ~seed (fun c -> { c with Mpivcl.Config.ckpt_replicas })

(* Part 2: one store and one fetch against a bare storage plane. *)

open Simkern
open Simos

let micro ~replicas =
  let eng = Engine.create () in
  let cluster = Cluster.create eng ~size:4 in
  let net = Simnet.Net.create eng () in
  let hosts = Array.init replicas (fun i -> i) in
  let servers =
    Array.to_list
      (Array.mapi
         (fun index host ->
           Mpivcl.Ckpt_server.spawn eng cluster net ~host ~bandwidth:1e8 ~index
             ~server_hosts:hosts ~replicas ())
         hosts)
  in
  let store_lat = ref nan and fetch_lat = ref nan in
  ignore
    (Cluster.spawn_on cluster ~host:3 ~name:"client" (fun () ->
         match
           Simnet.Net.connect net ~host:3 ~to_host:0
             ~to_port:Mpivcl.Config.server_port
         with
         | Error `Refused -> failwith "ckpt bench: server refused"
         | Ok conn ->
             let image =
               {
                 Mpivcl.Message.img_rank = 0;
                 img_wave = 1;
                 img_state = [| 1; 0; 0 |];
                 img_buffer = [];
                 img_redelivery = [];
                 img_logged = [];
                 img_seen = [];
                 img_received = [];
                 img_send_log = [];
                 img_next_ssn = [];
                 img_bytes = 10_000_000;
               }
             in
             let t0 = Engine.now eng in
             ignore (Simnet.Net.send conn (Mpivcl.Message.Store { image }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Mpivcl.Message.Store_done _) ->
                 store_lat := Engine.now eng -. t0
             | _ -> failwith "ckpt bench: no store ack");
             ignore (Simnet.Net.send conn (Mpivcl.Message.Commit { wave = 1 }));
             Proc.sleep 0.1;
             let t1 = Engine.now eng in
             ignore
               (Simnet.Net.send conn
                  (Mpivcl.Message.Fetch { rank = 0; local_wave = None }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Mpivcl.Message.Fetch_image { image = Some _ }) ->
                 fetch_lat := Engine.now eng -. t1
             | _ -> failwith "ckpt bench: no fetched image")));
  ignore (Engine.run ~until:60.0 eng);
  List.iter Mpivcl.Ckpt_server.halt servers;
  (!store_lat, !fetch_lat)

module S = Fail_lang.Codegen.Scenario

let kill_only =
  S.source ~n_machines [ { S.machine = 1; anchor = S.After 40; kind = S.Kill } ]

let kill_after_primary_down =
  (* rank 1's primary is server 1 mod 3; shoot it, then the rank. *)
  S.source ~n_machines
    [
      { S.machine = 1; anchor = S.After 35; kind = S.Service_kill { service = S.S_ckpt 1 } };
      { S.machine = 1; anchor = S.After 5; kind = S.Kill };
    ]

let run ~smoke:_ =
  Printf.printf "ckpt: 1 vs 2 replicas, failure-free (%d runs each)...\n%!" reps;
  let sample ckpt_replicas =
    Fixture.sample ~counters:false ~reps (fun ~seed -> run_bt ~ckpt_replicas ~seed ())
  in
  Fixture.overheads ~suite:"ckpt" ~group:"replication_off" ~limit_pct:5.0
    ("single_copy", sample 1)
    [ ("mirrored", sample 2, "failure-free mirroring changed an observable") ]
  @ List.concat_map
      (fun replicas ->
        Printf.printf "ckpt: store/fetch at %d replica(s)...\n%!" replicas;
        let store_s, fetch_s = micro ~replicas in
        let path m = Printf.sprintf "store_fetch/%d/%s" replicas m in
        [
          Record.num ~layer:"mpivcl" (path "store_sim_s") "s" store_s;
          Record.num ~layer:"mpivcl" (path "fetch_sim_s") "s" fetch_s;
        ])
      [ 1; 2 ]
  @ List.concat_map
      (fun (label, scenario, ckpt_replicas) ->
        Printf.printf "ckpt: recovery %s...\n%!" label;
        let r, wall_ms = Fixture.timed (run_bt ~scenario ~ckpt_replicas ~seed:1L) in
        Fixture.verdict ~counters:[ ("recoveries", "mpivcl") ]
          (Printf.sprintf "recovery/%s/%d" label ckpt_replicas)
          ~wall_ms r)
      [
        ("healthy-primary", kill_only, 2);
        ("failover-to-mirror", kill_after_primary_down, 2);
        ("primary-lost-unmirrored", kill_after_primary_down, 1);
      ]
