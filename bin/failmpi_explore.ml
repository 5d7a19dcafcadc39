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

let run (d : Cli.t) max_faults budget jobs targets buckets freeze shrink_hangs net services fork
    corpus json_file emit_dir =
  match
    Cli.check
      { d with Cli.targets = Option.value targets ~default:[] }
      ~also:
        [
          Option.fold ~none:(Ok ()) ~some:(Cli.within "--jobs" 1 Explore.Prefix.max_jobs) jobs;
          Cli.at_least "--max-faults" 1 max_faults;
          Cli.at_least "--budget" 1 budget;
          Cli.delays "--buckets" buckets;
          Cli.delays "--freeze" (Option.to_list freeze);
          Cli.output "--corpus" corpus;
          Cli.output "--json" json_file;
          Cli.output "--emit" emit_dir;
        ]
  with
  | Error msg ->
      prerr_endline ("failmpi_explore: " ^ msg);
      1
  | Ok (spec, klass) -> (
      let n_machines = spec.Failmpi.Run.n_compute in
      (* Shoot at the initial rank hosts by default: faults on spare hosts
         are absorbed silently by the idle controllers. *)
      let targets = match targets with Some ts -> ts | None -> List.init d.ranks Fun.id in
      let ecfg =
        {
          (Explore.default_config ~n_machines ~targets ~buckets) with
          Explore.max_faults;
          budget;
          sample_seed = d.seed;
          kinds =
            Fail_lang.Fault.explorer_kinds ~freeze ~net ~services
              ~topo:
                (match d.topology with
                | Some (_, Simtopo.Topo.Fat_tree _) -> true
                | Some _ | None -> false);
          shrink_hangs;
        }
      in
      let t0 = Unix.gettimeofday () in
      match Explore.run_spec ?jobs ~fork ?corpus ecfg ~spec with
      | exception Invalid_argument msg ->
          (* Past [Cli.check], only a corpus can be refused; drop the
             library's own prefix. *)
          let prefix = "Explore.run_spec: " in
          let n = String.length prefix in
          prerr_endline
            ("failmpi_explore: "
            ^
            if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n)
            else msg);
          1
      | report, _stats ->
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
                      "minimized witness written to %s (replay: failmpi_run --ranks %d --class \
                       %s --scenario %s%s%s)\n"
                      path d.ranks
                      (Workload.Bt_model.klass_name klass)
                      path
                      (if d.fixed then " --fixed-dispatcher" else "")
                      (if d.seeded then " --seeded-defect" else ""))
                  report.Explore.minimized
              end
          | None -> ());
          if
            List.exists
              (fun (m : Explore.minimized) -> m.Explore.min_verdict = Explore.Buggy)
              report.Explore.minimized
          then 3
          else 0)

let cmd =
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
      const run
      $ Cli.term ~ranks:9 ~klass:"A" ~timeout:600.0 ~topology:"topo"
      $ max_faults $ budget $ jobs $ targets $ buckets $ freeze $ shrink_hangs $ net $ services
      $ fork $ corpus $ json_file $ emit_dir)

let () = exit (Cmd.eval' cmd)
