(* failc: compile and inspect FAIL scenarios.

   Examples:
     failc scenario.fail
     failc scenario.fail --param X=5 --param N=52 --dump
     failc scenario.fail --dot ADV1
     failc --paper fig5-frequency --dump *)

open Cmdliner

let run file paper params dump dot =
  match
    Result.bind (Cli.scenario_source ~file_flag:"FILE" file paper)
      (Option.to_result ~none:"give a FILE or --paper NAME")
  with
  | Error msg ->
      prerr_endline ("failc: " ^ msg);
      1
  | Ok source -> (
      match Fail_lang.Compile.compile_source ~params source with
      | Error msg ->
          prerr_endline ("failc: " ^ msg);
          1
      | Ok plan ->
          let daemons = List.map fst plan.Fail_lang.Compile.automata in
          Printf.printf "compiled %d daemon(s): %s; %d deployment(s)\n" (List.length daemons)
            (String.concat ", " daemons)
            (List.length plan.Fail_lang.Compile.deployments);
          if dump then print_string (Fail_lang.Codegen.dump plan);
          (match dot with
          | Some name -> (
              match Fail_lang.Compile.automaton plan name with
              | Some a -> print_string (Fail_lang.Codegen.to_dot a)
              | None ->
                  prerr_endline ("failc: no daemon named " ^ name);
                  exit 1)
          | None -> ());
          0)

let cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"FAIL scenario source file.")
  in
  let paper =
    Arg.(
      value
      & opt (some string) None
      & info [ "paper" ] ~docv:"NAME" ~doc:"Use a built-in paper scenario instead of a file.")
  in
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Print the compiled automata.") in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"DAEMON" ~doc:"Print a Graphviz digraph of one daemon.")
  in
  Cmd.v
    (Cmd.info "failc" ~doc:"Compile and inspect FAIL fault-injection scenarios")
    Term.(const run $ file $ paper $ Cli.params $ dump $ dot)

let () = exit (Cmd.eval' cmd)
