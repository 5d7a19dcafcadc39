(* failmpi_explore: systematic fault-space search against a protocol
   backend — grid over (target x time-bucket) for 1-2 faults, seeded
   random sampling beyond, §5 classification per run, delta-debugging
   minimization of every failing plan.

   Examples:
     failmpi_explore --max-faults 1 --budget 50 --jobs 2
     failmpi_explore --seeded-defect --fixed-dispatcher --json report.json --emit out/
     failmpi_explore --protocol v2 --buckets 10,25,40 --freeze 8 *)

open Cmdliner

let parse_ints s =
  let parts = String.split_on_char ',' (String.trim s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match int_of_string_opt (String.trim p) with
        | Some v -> go (v :: acc) rest
        | None -> Error (`Msg "expected a comma-separated list of integers"))
  in
  go [] parts

let ints_conv =
  Arg.conv
    ( parse_ints,
      fun ppf xs ->
        Format.pp_print_string ppf (String.concat "," (List.map string_of_int xs)) )

let topology_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Simtopo.Topo.spec_of_string s)),
      fun ppf spec -> Format.pp_print_string ppf (Simtopo.Topo.spec_to_string spec) )

let run protocol replicas ranks klass max_faults budget jobs seed targets buckets freeze
    timeout fixed seeded shrink_hangs net services topo fork corpus json_file emit_dir =
  (match jobs with
  | Some n when n <= 0 ->
      prerr_endline (Printf.sprintf "failmpi_explore: --jobs must be >= 1 (got %d)" n);
      exit 1
  | _ -> ());
  (* A timeout of zero or less reports every plan non-terminating, and
     a NaN one never fires. *)
  if not (timeout > 0.0) then begin
    prerr_endline (Printf.sprintf "failmpi_explore: --timeout must be > 0 (got %g)" timeout);
    exit 1
  end;
  if not (Workload.Stencil.valid_ranks ranks) then begin
    prerr_endline
      (Printf.sprintf "failmpi_explore: --ranks must be a positive square number (got %d)" ranks);
    exit 1
  end;
  if budget <= 0 then begin
    prerr_endline (Printf.sprintf "failmpi_explore: --budget must be >= 1 (got %d)" budget);
    exit 1
  end;
  (* Past the explorer, a negative thaw is a scenario that does not
     parse and a negative bucket a timer in the past. [Explore.plans]
     refuses a target outside the compute hosts; a negative one is
     caught here so that the message names the flag. *)
  let non_negative flag v =
    if v < 0 then begin
      prerr_endline (Printf.sprintf "failmpi_explore: --%s must be >= 0 (got %d)" flag v);
      exit 1
    end
  in
  Option.iter (non_negative "freeze") freeze;
  List.iter (non_negative "buckets") buckets;
  Option.iter (List.iter (non_negative "targets")) targets;
  (* Output paths are checked before the campaign, not after it. *)
  let parent_exists flag path =
    let parent = Filename.dirname path in
    if not (Sys.file_exists parent && Sys.is_directory parent) then begin
      prerr_endline
        (Printf.sprintf "failmpi_explore: --%s parent directory %s does not exist" flag parent);
      exit 1
    end
  in
  Option.iter (parent_exists "corpus") corpus;
  Option.iter (parent_exists "json") json_file;
  Option.iter (parent_exists "emit") emit_dir;
  let klass =
    match Workload.Bt_model.klass_of_string klass with
    | Some k -> k
    | None ->
        prerr_endline "failmpi_explore: class must be A, B or C";
        exit 1
  in
  let (module B : Failmpi.Backend.S) =
    match Failmpi.Backend.find protocol with
    | Some b -> b
    | None ->
        prerr_endline
          (Printf.sprintf "failmpi_explore: unknown protocol %s (registered: %s)" protocol
             (String.concat ", " (Failmpi.Backend.names ())));
        exit 1
  in
  let protocol = B.protocol ~replicas in
  let n_machines = B.default_machines ~n_ranks:ranks ~replicas in
  (match topo with
  | Some spec -> (
      try ignore (Simtopo.Topo.for_cluster spec ~n_compute:n_machines)
      with Invalid_argument msg ->
        prerr_endline (Printf.sprintf "failmpi_explore: %s" msg);
        exit 1)
  | None -> ());
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks:ranks) with
      Mpivcl.Config.protocol;
      dispatcher_buggy = not fixed;
      vcl_seeded_race = seeded;
      topology = topo;
    }
  in
  let spec =
    {
      (Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks:ranks ~n_machines ~scenario:None ())
      with
      Failmpi.Run.seed = Int64.of_int seed;
      timeout;
    }
  in
  (* Shoot at the initial rank hosts by default: faults on spare hosts
     are absorbed silently by the idle controllers. *)
  let targets = match targets with Some ts -> ts | None -> List.init ranks Fun.id in
  let ecfg =
    {
      (Explore.default_config ~n_machines ~targets ~buckets) with
      Explore.max_faults;
      budget;
      sample_seed = seed;
      kinds =
        Fail_lang.Fault.explorer_kinds ~freeze ~net ~services
          ~topo:(match topo with Some (Simtopo.Topo.Fat_tree _) -> true | Some _ | None -> false);
      shrink_hangs;
    }
  in
  let t0 = Unix.gettimeofday () in
  let report, _stats =
    try Explore.run_spec ?jobs ~fork ?corpus ecfg ~spec
    with Invalid_argument msg ->
      (* [Explore.run_spec] prefixes its own name; re-badge for the CLI. *)
      let prefix = "Explore.run_spec: " in
      let plen = String.length prefix in
      let msg =
        if String.length msg > plen && String.sub msg 0 plen = prefix then
          String.sub msg plen (String.length msg - plen)
        else msg
      in
      prerr_endline ("failmpi_explore: " ^ msg);
      exit 1
  in
  print_string (Explore.render report);
  Printf.printf "[%.1f s wall clock]\n" (Unix.gettimeofday () -. t0);
  (match json_file with
  | Some path ->
      let oc = open_out path in
      output_string oc (Explore.to_json report);
      close_out oc;
      Printf.printf "report written to %s\n" path
  | None -> ());
  (match emit_dir with
  | Some dir ->
      if report.Explore.minimized <> [] then begin
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i (m : Explore.minimized) ->
            let path =
              Filename.concat dir
                (Printf.sprintf "witness-%02d-%s.fail" i
                   (Explore.verdict_name m.Explore.min_verdict))
            in
            let oc = open_out path in
            output_string oc m.Explore.scenario;
            close_out oc;
            Printf.printf
              "minimized witness written to %s (replay: failmpi_run --ranks %d --class %s \
               --scenario %s%s%s)\n"
              path ranks
              (Workload.Bt_model.klass_name klass)
              path
              (if fixed then " --fixed-dispatcher" else "")
              (if seeded then " --seeded-defect" else ""))
          report.Explore.minimized
      end
  | None -> ());
  if List.exists (fun (m : Explore.minimized) -> m.Explore.min_verdict = Explore.Buggy)
       report.Explore.minimized
  then 3
  else 0

let cmd =
  let protocol =
    Arg.(
      value & opt string "vcl"
      & info [ "protocol" ] ~docv:"NAME" ~doc:"Protocol backend under test.")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N" ~doc:"Replicas per rank (with --protocol replication).")
  in
  let ranks =
    Arg.(value & opt int 9 & info [ "ranks"; "n" ] ~docv:"N" ~doc:"MPI ranks (square number).")
  in
  let klass =
    Arg.(value & opt string "A" & info [ "class"; "c" ] ~docv:"CLASS" ~doc:"NAS class: A, B or C.")
  in
  let max_faults =
    Arg.(
      value & opt int 2
      & info [ "max-faults" ] ~docv:"K"
          ~doc:"Plans carry up to $(docv) faults (grid to 2, sampled beyond).")
  in
  let budget =
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc:"Maximum number of plans to run.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fan runs out over $(docv) worker processes (at most 64, none at 1), with \
             or without --fork; reports are bit-identical at any width. Defaults to \
             FAILMPI_JOBS, or the number of cores.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:"Run seed, also seeding the >= 3-fault random sampler.")
  in
  let targets =
    Arg.(
      value
      & opt (some ints_conv) None
      & info [ "targets" ] ~docv:"M0,M1,.."
          ~doc:"Machines to aim at (default: the initial rank hosts).")
  in
  let buckets =
    Arg.(
      value
      & opt ints_conv [ 25; 10; 3 ]
      & info [ "buckets" ] ~docv:"S0,S1,.."
          ~doc:
            "Injection delays in seconds, relative to the previous fault (first fault: to \
             scenario start).")
  in
  let freeze =
    Arg.(
      value
      & opt (some int) None
      & info [ "freeze" ] ~docv:"THAW"
          ~doc:"Also draw freeze faults thawing after $(docv) seconds.")
  in
  let timeout =
    Arg.(value & opt float 600.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-run timeout.")
  in
  let fixed =
    Arg.(
      value & flag
      & info [ "fixed-dispatcher" ]
          ~doc:"Use the corrected dispatcher instead of the historical one.")
  in
  let seeded =
    Arg.(
      value & flag
      & info [ "seeded-defect" ]
          ~doc:
            "Enable the seeded vcl dispatcher race (acceptance demo: the search must \
             rediscover it and shrink the witness to two faults).")
  in
  let shrink_hangs =
    Arg.(
      value & flag
      & info [ "shrink-hangs" ] ~doc:"Also minimize non-terminating plans, not just buggy ones.")
  in
  let net =
    Arg.(
      value & flag
      & info [ "net" ]
          ~doc:
            "Also draw network faults (partition, degraded links, heal), searching the \
             combined process x network fault space.")
  in
  let services =
    Arg.(
      value & flag
      & info [ "services" ]
          ~doc:
            "Also draw infrastructure-service faults (checkpoint server and scheduler \
             kills and freeze/thaws) into the search space; the target index selects \
             the ckpt replica.")
  in
  let topo =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topo" ] ~docv:"SPEC"
          ~doc:
            "Fabric geometry ($(b,fat-tree:K), $(b,torus:XxY), $(b,flat)). With a \
             fat tree, also draw topology faults — edge/aggregation switch kills and \
             intra-pod degrades — into the search space (the target index selects the \
             component).")
  in
  let fork =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "fork" ]
                ~doc:
                  "Prefix-sharing scheduler (the default): plans sharing a fault prefix \
                   execute it once up to each divergence point, with a report \
                   byte-identical to replaying every plan." );
            ( false,
              info [ "no-fork" ]
                ~doc:"Replay every plan from $(i,t) = 0 instead of forking." );
          ])
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persistent coverage-guided corpus: skip plans $(docv) already recorded as tried, \
             spend the freed budget on mutants of plans that produced new coverage, and save \
             the updated corpus when the campaign ends.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report as JSON to $(docv).")
  in
  let emit_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"DIR" ~doc:"Write each minimized witness as a .fail file into $(docv).")
  in
  Cmd.v
    (Cmd.info "failmpi_explore"
       ~doc:"Search the fault space of a protocol backend and minimize what breaks it"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 on a clean search, 3 when a buggy-classified witness was found.";
         ])
    Term.(
      const run $ protocol $ replicas $ ranks $ klass $ max_faults $ budget $ jobs $ seed
      $ targets $ buckets $ freeze $ timeout $ fixed $ seeded $ shrink_hangs $ net
      $ services $ topo $ fork $ corpus $ json_file $ emit_dir)

let () = exit (Cmd.eval' cmd)
