(* The backends suite: one small faulty experiment cycle per registered
   protocol backend, timed with Bechamel. The workload is the same for
   every backend — a 4-rank stencil under the fault-frequency scenario —
   so the records compare what each protocol costs the simulator. Only
   the cluster size differs (each backend's own default_machines). Each
   run is checked against the stencil's reference checksum. *)

let replicas = 2

let run ~smoke:_ =
  List.concat_map
    (fun (module B : Failmpi.Backend.S) ->
      Printf.printf "backends: %s...\n%!" B.name;
      let n_compute = B.default_machines ~n_ranks:Fixture.n_ranks ~replicas in
      let cycle () =
        Fixture.stencil ~iterations:30 ~protocol:(B.protocol ~replicas)
          ~scenario:(Fail_lang.Paper_scenarios.frequency ~n_machines:n_compute ~period:10)
          ~n_compute ~seed:1L ()
      in
      let r, wall_ms = Fixture.timed cycle in
      let test = Bechamel.Test.make ~name:B.name (Bechamel.Staged.stage cycle) in
      Fixture.fit_records ~layer:"core" B.name (Fixture.ols test)
      @ Fixture.verdict B.name ~wall_ms r)
    (Failmpi.Backend.all ())
