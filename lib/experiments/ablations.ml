let aggregate_campaign ?jobs cells =
  List.map (fun (label, results) -> Harness.aggregate ~label results)
    (Harness.campaign ?jobs cells)

let dispatcher_fix ?jobs ?(reps = 9) ?(n_ranks = 49) () =
  let n_machines = Harness.machines_for n_ranks in
  let klass = Workload.Bt_model.B in
  let cfg buggy = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.dispatcher_buggy = buggy } in
  let scenarios =
    [
      ( "5 faults/50s",
        Fail_lang.Paper_scenarios.simultaneous ~n_machines ~period:50 ~count:5 );
      ("state-sync", Fail_lang.Paper_scenarios.state_synchronized ~n_machines ~period:50);
    ]
  in
  List.concat_map
    (fun (name, scenario) ->
      List.map
        (fun buggy ->
          Harness.cell
            ~tag:
              (Printf.sprintf "%s (%s)" name
                 (if buggy then "historical" else "corrected"))
            ~reps ~base_seed:1000
            (fun ~seed ->
              Harness.run_bt ~cfg:(cfg buggy) ~klass ~n_ranks ~n_machines
                ~scenario:(Some scenario) ~seed ()))
        [ true; false ])
    scenarios
  |> aggregate_campaign ?jobs

let protocol_overhead ?jobs ?(n_ranks = 49) () =
  let n_machines = Harness.machines_for n_ranks in
  let klass = Workload.Bt_model.B in
  List.concat_map
    (fun interval ->
      List.map
        (fun protocol ->
          let cfg =
            {
              (Mpivcl.Config.default ~n_ranks) with
              Mpivcl.Config.protocol;
              wave_interval = interval;
            }
          in
          Harness.cell
            ~tag:
              (Printf.sprintf "wave %2.0fs %s" interval (Mpivcl.Config.protocol_name protocol))
            ~reps:2 ~base_seed:700
            (fun ~seed ->
              Harness.run_bt ~cfg ~klass ~n_ranks ~n_machines ~scenario:None ~seed ()))
        [ Mpivcl.Config.Non_blocking; Mpivcl.Config.Blocking ])
    [ 10.0; 30.0; 60.0 ]
  |> aggregate_campaign ?jobs

let wave_interval ?jobs ?(reps = 4) ?(n_ranks = 49) () =
  let n_machines = Harness.machines_for n_ranks in
  let klass = Workload.Bt_model.B in
  let scenario = Some (Fail_lang.Paper_scenarios.frequency ~n_machines ~period:50) in
  List.map
    (fun interval ->
      let cfg =
        { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.wave_interval = interval }
      in
      Harness.cell
        ~tag:(Printf.sprintf "ckpt every %2.0fs" interval)
        ~reps ~base_seed:800
        (fun ~seed -> Harness.run_bt ~cfg ~klass ~n_ranks ~n_machines ~scenario ~seed ()))
    [ 10.0; 20.0; 30.0; 40.0 ]
  |> aggregate_campaign ?jobs

let protocol_comparison ?jobs ?(reps = 4) ?(n_ranks = 49) () =
  let n_machines = Harness.machines_for n_ranks in
  let klass = Workload.Bt_model.B in
  List.concat_map
    (fun period ->
      let scenario = Some (Fail_lang.Paper_scenarios.frequency ~n_machines ~period) in
      List.map
        (fun (label, cfg) ->
          Harness.cell
            ~tag:(Printf.sprintf "1/%ds %s" period label)
            ~reps ~base_seed:1100
            (fun ~seed ->
              Harness.run_bt ~cfg ~klass ~n_ranks ~n_machines ~scenario ~seed ()))
        [
          (* Vdummy baseline: no checkpoint ever commits, so every fault
             restarts the application from scratch. *)
          ( "Vdummy (no ckpt)",
            { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.wave_interval = 1e9 } );
          ( "Vcl (coordinated)",
            { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol = Mpivcl.Config.Non_blocking } );
          ( "V2 (msg logging)",
            { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol = Mpivcl.Config.Sender_logging } );
        ])
    [ 65; 50; 40; 30 ]
  |> aggregate_campaign ?jobs

let render_protocol_comparison aggs =
  Harness.render_table
    ~title:"Ablation: coordinated checkpointing vs sender-based message logging" aggs

let render_dispatcher_fix aggs =
  Harness.render_table ~title:"Ablation: historical vs corrected dispatcher" aggs

let render_protocol_overhead aggs =
  Harness.render_table ~title:"Ablation: non-blocking vs blocking Chandy-Lamport (no faults)" aggs

let render_wave_interval aggs =
  Harness.render_table ~title:"Ablation: checkpoint interval under 1 fault / 50 s" aggs
