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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_param s =
  match String.index_opt s '=' with
  | Some i -> (
      let name = String.sub s 0 i in
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt value with
      | Some v -> Ok (name, v)
      | None -> Error (`Msg "parameter value must be an integer"))
  | None -> Error (`Msg "expected NAME=INT")

let param_conv = Arg.conv (parse_param, fun ppf (n, v) -> Format.fprintf ppf "%s=%d" n v)

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

let topology_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Simtopo.Topo.spec_of_string s)),
      fun ppf spec -> Format.pp_print_string ppf (Simtopo.Topo.spec_to_string spec) )

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

let run scenario_file paper params ranks klass protocol replicas ckpt_servers
    ckpt_replicas spares seed timeout fixed seeded show_trace analyze trace_csv
    show_protocols net topology =
  if show_protocols then list_protocols ()
  else begin
    if not (Workload.Stencil.valid_ranks ranks) then begin
      prerr_endline
        (Printf.sprintf "failmpi_run: --ranks must be a positive square number (got %d)" ranks);
      exit 1
    end;
    (* A timeout of zero or less reports every run non-terminating, and
       a NaN one never fires. *)
    if not (timeout > 0.0) then begin
      prerr_endline (Printf.sprintf "failmpi_run: --timeout must be > 0 (got %g)" timeout);
      exit 1
    end;
    (match trace_csv with
    | Some path ->
        let parent = Filename.dirname path in
        if not (Sys.file_exists parent && Sys.is_directory parent) then begin
          prerr_endline
            (Printf.sprintf "failmpi_run: --trace-csv parent directory %s does not exist" parent);
          exit 1
        end
    | None -> ());
    (match net with
    | Some profile -> (
        try Simnet.Net.Perturb.check_profile profile
        with Invalid_argument msg ->
          prerr_endline (Printf.sprintf "failmpi_run: %s" msg);
          exit 1)
    | None -> ());
    let klass =
      match Workload.Bt_model.klass_of_string klass with
      | Some k -> k
      | None ->
          prerr_endline "failmpi_run: class must be A, B or C";
          exit 1
    in
    if replicas < 1 then begin
      prerr_endline "failmpi_run: --replicas must be at least 1";
      exit 1
    end;
    if spares < 0 then begin
      prerr_endline "failmpi_run: --spares must be at least 0";
      exit 1
    end;
    (* The storage plane keeps a primary copy and at most one mirror;
       Run.execute refuses other factors too. *)
    if ckpt_replicas < 1 || ckpt_replicas > 2 then begin
      prerr_endline
        (Printf.sprintf "failmpi_run: --ckpt-replicas must be 1 or 2 (got %d)" ckpt_replicas);
      exit 1
    end;
    if ckpt_servers < 1 then begin
      prerr_endline "failmpi_run: --ckpt-servers must be at least 1";
      exit 1
    end;
    if ckpt_replicas > ckpt_servers then begin
      prerr_endline "failmpi_run: --ckpt-replicas cannot exceed --ckpt-servers";
      exit 1
    end;
    let (module B : Failmpi.Backend.S) =
      match Failmpi.Backend.find protocol with
      | Some b -> b
      | None ->
          prerr_endline
            (Printf.sprintf "failmpi_run: unknown protocol %s (registered: %s)" protocol
               (String.concat ", " (Failmpi.Backend.names ())));
          exit 1
    in
    let protocol =
      match B.protocol ~replicas with
      | Mpivcl.Config.Ulfm _ -> Mpivcl.Config.Ulfm { spares }
      | p ->
          if spares > 0 then begin
            prerr_endline
              (Printf.sprintf
                 "failmpi_run: --spares only applies to the ulfm backend, not %s" B.name);
            exit 1
          end;
          p
    in
    (* Warm spares live on compute hosts beyond the ranks; grow the
       allocation if the paper-style default leaves no room for them. *)
    let n_machines = max (B.default_machines ~n_ranks:ranks ~replicas) (ranks + spares) in
    (* Same launch-time validation the deployments perform, but with a
       clean CLI error instead of an exception trace. *)
    (match topology with
    | Some spec -> (
        try ignore (Simtopo.Topo.for_cluster spec ~n_compute:n_machines)
        with Invalid_argument msg ->
          prerr_endline (Printf.sprintf "failmpi_run: %s" msg);
          exit 1)
    | None -> ());
    let scenario =
      match (scenario_file, paper) with
      | Some path, None -> Some (read_file path)
      | None, Some name -> (
          match List.assoc_opt name Fail_lang.Paper_scenarios.all with
          | Some src -> Some src
          | None ->
              prerr_endline
                (Printf.sprintf "failmpi_run: unknown paper scenario %s (available: %s)"
                   name
                   (String.concat ", " (List.map fst Fail_lang.Paper_scenarios.all)));
              exit 1)
      | Some _, Some _ ->
          prerr_endline "failmpi_run: give either --scenario or --paper, not both";
          exit 1
      | None, None -> None
    in
    (* Same compilation Run.execute performs, so a scenario error
       (unbound parameter, bad syntax) is a clean CLI error too. *)
    (match scenario with
    | Some src -> (
        match Fail_lang.Compile.compile_source ~params src with
        | Ok _ -> ()
        | Error msg ->
            prerr_endline (Printf.sprintf "failmpi_run: scenario error: %s" msg);
            exit 1)
    | None -> ());
    let cfg =
      {
        (Mpivcl.Config.default ~n_ranks:ranks) with
        Mpivcl.Config.protocol;
        n_ckpt_servers = ckpt_servers;
        ckpt_replicas;
        dispatcher_buggy = not fixed;
        vcl_seeded_race = seeded;
        net;
        topology;
      }
    in
    let spec =
      {
        (Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks:ranks ~n_machines ~scenario ())
        with
        Failmpi.Run.params;
        seed = Int64.of_int seed;
        timeout;
      }
    in
    let expected = Workload.Bt_model.reference_checksum klass ~n_ranks:ranks in
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
          Printf.sprintf " (still running at --timeout %g s)" timeout
      | Failmpi.Run.Buggy | Failmpi.Run.Net_hung -> "");
    Printf.printf "protocol:         %s\n" (Mpivcl.Config.protocol_name protocol);
    Printf.printf "injected faults:  %d\n" r.Failmpi.Run.injected_faults;
    (* Every backend reports the same uniform counter set (plus its
       extension counters): print them generically. *)
    List.iter
      (fun (name, v) -> Printf.printf "%-17s %d\n" (name ^ ":") v)
      (Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics);
    (match r.Failmpi.Run.checksum_ok with
    | Some true -> Printf.printf "checksums:        all %d ranks correct\n" ranks
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
    match r.Failmpi.Run.outcome with
    | Failmpi.Run.Ckpt_lost -> 4
    | _ -> (
        match r.Failmpi.Run.checksum_ok with Some false -> 2 | Some true | None -> 0)
  end

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
  let params =
    Arg.(
      value & opt_all param_conv []
      & info [ "param"; "p" ] ~docv:"NAME=INT" ~doc:"Scenario parameter (repeatable).")
  in
  let ranks =
    Arg.(value & opt int 49 & info [ "ranks"; "n" ] ~docv:"N" ~doc:"MPI ranks (square number).")
  in
  let klass =
    Arg.(value & opt string "B" & info [ "class"; "c" ] ~docv:"CLASS" ~doc:"NAS class: A, B or C.")
  in
  let protocol =
    Arg.(
      value & opt string "vcl"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:
            "Fault-tolerance protocol backend; see $(b,--list-protocols) for the \
             registered names.")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Replicas per logical rank (with --protocol replication).")
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
  let seed = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Experiment seed.") in
  let timeout =
    Arg.(
      value & opt float 1500.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Simulated seconds after which a run still going is reported \
             non-terminating. The default, 1500 s, is the paper's and is sized for \
             its 49-rank class B figure; fewer ranks run longer (4 ranks of class B \
             need about 2600 s).")
  in
  let fixed =
    Arg.(
      value & flag
      & info [ "fixed-dispatcher" ] ~doc:"Use the corrected dispatcher instead of the historical one.")
  in
  let seeded =
    Arg.(
      value & flag
      & info [ "seeded-defect" ]
          ~doc:
            "Enable the seeded vcl dispatcher race used by the failmpi_explore acceptance \
             demo (replaying its minimized witnesses).")
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
            "Open a bidirectional cut between two comma-separated host sets from \
             launch, e.g. $(b,0,1:2,3). Combine with $(b,--net-heal) to close it.")
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
  let topology =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"SPEC"
          ~doc:
            "Fabric geometry behind the compute hosts: $(b,flat), $(b,fat-tree:K) \
             (K-ary fat tree, K even) or $(b,torus:XxY)/$(b,torus:XxYxZ). Scenario \
             topology destinations ($(b,switch agg[2]), $(b,pod 1), $(b,rack 3)) \
             resolve against it; unperturbed runs are byte-identical to the default \
             flat mesh.")
  in
  Cmd.v
    (Cmd.info "failmpi_run" ~doc:"Inject faults into a fault-tolerant MPI running NAS BT")
    Term.(
      const run $ scenario $ paper $ params $ ranks $ klass $ protocol $ replicas
      $ ckpt_servers $ ckpt_replicas $ spares $ seed $ timeout $ fixed $ seeded
      $ show_trace $ analyze $ trace_csv $ show_protocols $ net $ topology)

let () = exit (Cmd.eval' cmd)
