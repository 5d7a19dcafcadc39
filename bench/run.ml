(* The bench driver.

     dune exec bench/run.exe -- [--smoke] [SUITE...]

   Runs the named suites, or all of them, and writes BENCH_<suite>.json
   for each into the current directory (see record.ml for the format).
   --smoke bounds the two long suites for CI: explore's three campaigns
   run 60, 40 and 30 plans instead of 500, 200 and 120, and scale stops
   at 1024 hosts.

   Suites run in the order below, whatever the command line says, each
   in a forked process of its own, so no suite is measured on a heap or
   runtime state that another left behind (and explore's workers can
   fork: the runtime refuses [Unix.fork] once a process has created a
   domain, as campaign and topo do). The driver itself creates no
   domain. A suite that refuses its result — a check that two runs must
   agree failed — names it, writes no file and exits 1; the driver then
   exits 1, as it does when a suite's process crashes. *)

let suites =
  [
    ("explore", Explore_bench.run);
    ("micro", Micro.run);
    ("backends", Backends.run);
    ("campaign", Campaign.run);
    ("netfault", Netfault.run);
    ("topo", Topo.run);
    ("ckpt", Ckpt.run);
    ("scale", Scale.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let names = List.filter (( <> ) "--smoke") args in
  List.iter
    (fun name ->
      if not (List.mem_assoc name suites) then begin
        Printf.eprintf "bench: unknown suite %s (valid suites: %s)\n" name
          (String.concat " " (List.map fst suites));
        exit 1
      end)
    names;
  let header = Record.header ~smoke in
  List.iter
    (fun (suite, run) ->
      if names = [] || List.mem suite names then begin
        flush_all ();
        match Unix.fork () with
        | 0 ->
            Record.write header ~suite (run ~smoke);
            exit 0
        | pid -> (
            match snd (Unix.waitpid [] pid) with
            | Unix.WEXITED 0 -> ()
            | Unix.WEXITED _ -> exit 1
            | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
                Printf.eprintf "bench: suite %s was killed by a signal\n" suite;
                exit 1)
      end)
    suites
