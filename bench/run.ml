(* The bench driver.

     dune exec bench/run.exe -- [--smoke] [SUITE...]

   Runs the named suites, or all of them, and writes BENCH_<suite>.json
   for each into the current directory (see record.ml for the format).
   --smoke bounds the two long suites for CI: explore's three campaigns
   run 60, 40 and 30 plans instead of 500, 200 and 120, and scale stops
   at 1024 hosts. A suite that refuses
   its result — a check that two runs must agree failed — exits 1 with
   its message and writes no file.

   The order below is fixed, whatever the command line says. explore
   comes first: the OCaml runtime refuses [Unix.fork] in a process that
   has ever created a domain, and campaign and topo create domains. *)

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
      if names = [] || List.mem suite names then Record.write header ~suite (run ~smoke))
    suites
