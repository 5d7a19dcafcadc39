(* failmpi_run: run one fault-injection experiment against the NAS BT
   model under any registered protocol backend.

   Examples:
     failmpi_run --ranks 49 --class B                 (no faults)
     failmpi_run --paper fig5-frequency --seed 3
     failmpi_run --scenario my.fail --param X=5 --trace
     failmpi_run --list-protocols
     failmpi_run --protocol replication --replicas 2 --ranks 4 \
       --scenario scenarios/replica_split.fail \
       --param START=20 --param GAP=0 --param FIRST=2 --param SECOND=6 *)

open Cmdliner

(* "0,1,2:3,4" -> ([0;1;2], [3;4]) — the two sides of a --net-partition. *)
let parse_partition s =
  let hosts part =
    let fields = String.split_on_char ',' part in
    let fields = List.filter (fun f -> f <> "") fields in
    if fields = [] then Error (`Msg "empty host list")
    else
      List.fold_left
        (fun acc f ->
          match (acc, int_of_string_opt (String.trim f)) with
          | Ok hs, Some h when h >= 0 -> Ok (h :: hs)
          | Ok _, _ -> Error (`Msg (Printf.sprintf "bad host %S" f))
          | (Error _ as e), _ -> e)
        (Ok []) fields
      |> Result.map List.rev
  in
  match String.index_opt s ':' with
  | None -> Error (`Msg "expected HOSTS:HOSTS (e.g. 0,1:2,3)")
  | Some i -> (
      match
        ( hosts (String.sub s 0 i),
          hosts (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Ok a, Ok b -> Ok (a, b)
      | (Error _ as e), _ | _, (Error _ as e) -> e)

let partition_conv =
  Arg.conv
    ( parse_partition,
      fun ppf (a, b) ->
        let side hs = String.concat "," (List.map string_of_int hs) in
        Format.fprintf ppf "%s:%s" (side a) (side b) )

let net_profile ~loss ~latency ~jitter ~partition ~heal ~net_seed =
  if
    loss = 0.0 && latency = 0.0 && jitter = 0.0 && partition = None && heal = None
    && net_seed = None
  then None
  else
    Some
      {
        Simnet.Net.Perturb.base = { Simnet.Net.Perturb.loss; latency; jitter };
        partition;
        heal_at = heal;
        seed = Option.map Int64.of_int net_seed;
      }

let list_protocols () =
  print_endline "registered protocol backends:";
  List.iter
    (fun (module B : Failmpi.Backend.S) ->
      Printf.printf "  %-12s %s%s\n" B.name B.doc
        (match B.aliases with
        | [] -> ""
        | aliases -> Printf.sprintf " (aliases: %s)" (String.concat ", " aliases)))
    (Failmpi.Backend.all ());
  0

let run (d : Cli.t) scenario_file paper params ckpt_servers ckpt_replicas spares show_trace
    analyze trace_csv show_protocols net =
  let ( let* ) = Result.bind in
  if show_protocols then list_protocols ()
  else
    match
      let* scenario = Cli.scenario_source ~file_flag:"--scenario" scenario_file paper in
      Cli.check
        { d with Cli.scenario; params; ckpt_servers; ckpt_replicas; spares; net }
        ~also:[ Cli.output "--trace-csv" trace_csv ]
    with
  | Error msg ->
      prerr_endline ("failmpi_run: " ^ msg);
      1
  | Ok (spec, klass) ->
      (* A trace output gets every event, not the milestones alone. *)
      let spec =
        if show_trace || analyze || trace_csv <> None then
          { spec with Failmpi.Run.trace_level = Simkern.Trace.Full }
        else spec
      in
      let expected = Workload.Bt_model.reference_checksum klass ~n_ranks:d.ranks in
      let r = Failmpi.Run.execute ~expected_checksum:expected spec in
      Printf.printf "outcome:          %s%s\n"
        (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
        (match r.Failmpi.Run.outcome with
        | Failmpi.Run.Completed t -> Printf.sprintf " (%.1f s)" t
        | Failmpi.Run.Degraded { at; survivors } ->
            Printf.sprintf " (%.1f s, %d survivors)" at survivors
        | Failmpi.Run.Aborted reason -> Printf.sprintf " (%s)" reason
        | Failmpi.Run.Ckpt_lost -> " (no complete checkpoint image on any replica)"
        | Failmpi.Run.Non_terminating ->
            (* only reached when the deadline passes with the backend
               still running: say which deadline *)
            Printf.sprintf " (still running at --timeout %g s)" d.timeout
        | Failmpi.Run.Buggy | Failmpi.Run.Net_hung -> "");
      Printf.printf "protocol:         %s\n"
        (Mpivcl.Config.protocol_name spec.Failmpi.Run.cfg.Mpivcl.Config.protocol);
      Printf.printf "injected faults:  %d\n" r.Failmpi.Run.injected_faults;
      (* Every backend reports the same uniform counter set (plus its
         extension counters): print them generically. *)
      List.iter
        (fun (name, v) -> Printf.printf "%-17s %d\n" (name ^ ":") v)
        (Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics);
      (match r.Failmpi.Run.checksum_ok with
      | Some true -> Printf.printf "checksums:        all %d ranks correct\n" d.ranks
      | Some false -> Printf.printf "checksums:        MISMATCH\n"
      | None -> ());
      if analyze then
        Format.printf "@.trace analysis:@.%a@." Experiments.Trace_analysis.pp
          (Experiments.Trace_analysis.summarize r.Failmpi.Run.trace);
      (match trace_csv with
      | Some path ->
          let oc = open_out path in
          output_string oc (Experiments.Trace_analysis.events_csv r.Failmpi.Run.trace);
          close_out oc;
          Printf.printf "trace written to %s\n" path
      | None -> ());
      if show_trace then Format.printf "%a@." Simkern.Trace.pp r.Failmpi.Run.trace;
      (* Exit codes: 0 ok, 2 checksum mismatch, 4 checkpoint storage lost —
         scripts can tell a lost storage plane from a wrong answer. *)
      (match r.Failmpi.Run.outcome with
      | Failmpi.Run.Ckpt_lost -> 4
      | _ -> (
          match r.Failmpi.Run.checksum_ok with Some false -> 2 | Some true | None -> 0))

let cmd =
  let scenario =
    Arg.(
      value
      & opt (some file) None
      & info [ "scenario" ] ~docv:"FILE" ~doc:"FAIL scenario to inject (default: none).")
  in
  let paper =
    Arg.(
      value
      & opt (some string) None
      & info [ "paper" ] ~docv:"NAME" ~doc:"Use a built-in paper scenario.")
  in
  let ckpt_servers =
    Arg.(
      value & opt int 3
      & info [ "ckpt-servers" ] ~docv:"N"
          ~doc:
            "Checkpoint servers in the storage plane (rollback backends); rank r's \
             primary is server r mod N, its mirror the next server in the ring.")
  in
  let ckpt_replicas =
    Arg.(
      value & opt int 1
      & info [ "ckpt-replicas" ] ~docv:"N"
          ~doc:
            "Checkpoint storage replication factor (rollback backends), 1 or 2. 1 keeps \
             the historical single-server plane; 2 mirrors every store to the rank's \
             mirror server before acking and restores fail over to it.")
  in
  let spares =
    Arg.(
      value & opt int 0
      & info [ "spares" ] ~docv:"N"
          ~doc:
            "Warm spare daemons promoted into the communicator on shrink (with \
             --protocol ulfm).")
  in
  let show_trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the execution trace.") in
  let analyze =
    Arg.(value & flag & info [ "analyze" ] ~doc:"Print a trace analysis (faults, recoveries, checkpoints).")
  in
  let trace_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE" ~doc:"Write the raw trace as CSV to FILE.")
  in
  let show_protocols =
    Arg.(
      value & flag
      & info [ "list-protocols" ]
          ~doc:"List the registered protocol backends and exit.")
  in
  let net_loss =
    Arg.(
      value & opt float 0.0
      & info [ "net-loss" ] ~docv:"P"
          ~doc:
            "Per-message drop probability on every inter-host link, in [0,1]. The \
             reliable transport retransmits with exponential backoff, so moderate loss \
             costs time, not correctness.")
  in
  let net_latency =
    Arg.(
      value & opt float 0.0
      & info [ "net-latency" ] ~docv:"SECONDS"
          ~doc:"Extra one-way latency added to every inter-host link.")
  in
  let net_jitter =
    Arg.(
      value & opt float 0.0
      & info [ "net-jitter" ] ~docv:"SECONDS"
          ~doc:"Uniform extra delay in [0,SECONDS) per message.")
  in
  let net_partition =
    Arg.(
      value
      & opt (some partition_conv) None
      & info [ "net-partition" ] ~docv:"HOSTS:HOSTS"
          ~doc:
            "Open a bidirectional cut between two comma-separated sets of compute \
             hosts from launch, e.g. $(b,0,1:2,3). Combine with $(b,--net-heal) to \
             close it.")
  in
  let net_heal =
    Arg.(
      value
      & opt (some float) None
      & info [ "net-heal" ] ~docv:"SECONDS"
          ~doc:"Remove every network fault at this simulated time.")
  in
  let net_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "net-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the network perturbation RNG (defaults to a stream split from \
             the experiment seed; fix it to vary fault timing independently of the \
             workload).")
  in
  let net =
    Term.(
      const (fun loss latency jitter partition heal net_seed ->
          net_profile ~loss ~latency ~jitter ~partition ~heal ~net_seed)
      $ net_loss $ net_latency $ net_jitter $ net_partition $ net_heal $ net_seed)
  in
  Cmd.v
    (Cmd.info "failmpi_run" ~doc:"Inject faults into a fault-tolerant MPI running NAS BT")
    Term.(
      const run
      $ Cli.term ~ranks:49 ~klass:"B" ~timeout:1500.0 ~topology:"topology"
      $ scenario $ paper $ Cli.params $ ckpt_servers $ ckpt_replicas $ spares $ show_trace
      $ analyze $ trace_csv $ show_protocols $ net)

let () = exit (Cmd.eval' cmd)
