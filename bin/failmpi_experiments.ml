(* failmpi_experiments: regenerate every table and figure of the paper's
   evaluation section, plus the ablations and the planned-feature delay
   experiment.

   Examples:
     failmpi_experiments fig5
     failmpi_experiments fig7 --quick
     failmpi_experiments all --jobs 8 *)

open Cmdliner
module Experiment = Experiments.Experiment

let with_timer f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%.1f s wall clock]\n\n%!" (Unix.gettimeofday () -. t0)

let run exp_name quick csv jobs =
  let todo =
    if exp_name = "all" then Ok Experiment.all
    else
      match List.find_opt (fun e -> e.Experiment.name = exp_name) Experiment.all with
      | Some e -> Ok [ e ]
      | None ->
          Error
            (Printf.sprintf "unknown experiment %s (available: all, %s)" exp_name
               (String.concat ", " Experiment.names))
  in
  match Result.bind (Cli.all [ Cli.jobs jobs; Cli.output "--csv" csv ]) (fun () -> todo) with
  | Error msg ->
      prerr_endline ("failmpi_experiments: " ^ msg);
      1
  | Ok todo ->
      Option.iter Par.set_default_jobs jobs;
      List.iter (fun e -> with_timer (fun () -> Experiment.run ~quick ~csv e)) todo;
      0

let cmd =
  let exp_name =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:("One of: all, " ^ String.concat ", " Experiment.names ^ "."))
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced repetitions and sizes (smoke mode).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each figure's aggregates as CSV into DIR.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run campaign repetitions on $(docv) domains in parallel (results are \
             bit-identical to a sequential run). Defaults to the FAILMPI_JOBS environment \
             variable, or the number of cores.")
  in
  Cmd.v
    (Cmd.info "failmpi_experiments"
       ~doc:"Regenerate the tables and figures of the FAIL-MPI paper")
    Term.(const run $ exp_name $ quick $ csv $ jobs)

let () = exit (Cmd.eval' cmd)
