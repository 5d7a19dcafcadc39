(* The backends suite: one small faulty experiment cycle per registered
   protocol backend, timed with Bechamel. The workload is the same for
   every backend — a 4-rank stencil under the fault-frequency scenario —
   so the records compare what each protocol costs the simulator. Only
   the cluster size differs (each backend's own default_machines). Each
   run is checked against the stencil's reference checksum.

   Four ranks are too few for per-message bookkeeping over the ranks or
   daemons to show, so each backend also runs once at the paper's scale:
   a fault-free BT-49 class B run, the families-bt49 benchmark's spec at
   seed 1. Its minor words are [Gc.minor_words] on this domain, exact to
   the word; its promoted words are read after a [Gc.minor], from an
   empty minor heap at both ends, so both are the same on every pass. *)

let replicas = 2

let bt49 (module B : Failmpi.Backend.S) =
  let n_ranks = 49 in
  let cfg =
    { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol = B.protocol ~replicas }
  in
  let prefix = B.name ^ "/bt49/" in
  let words = Fixture.words () in
  let r, wall_ms =
    Fixture.timed (fun () ->
        Experiments.Harness.run_bt ~cfg ~klass:Workload.Bt_model.B ~n_ranks
          ~n_machines:(B.default_machines ~n_ranks ~replicas)
          ~scenario:None ~seed:1L ())
  in
  let minor_words, promoted_words = words () in
  if r.Failmpi.Run.checksum_ok <> Some true then
    Record.refuse "backends" "%s: the fault-free BT-49 run is %s without correct checksums"
      B.name (Failmpi.Run.outcome_name r.Failmpi.Run.outcome);
  [
    Record.num ~layer:"simkern" (prefix ^ "minor_words") "words" minor_words;
    Record.num ~layer:"simkern" (prefix ^ "promoted_words") "words" promoted_words;
    Record.num ~layer:"core" (prefix ^ "wall_ms") "ms" wall_ms;
  ]

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
      @ Fixture.verdict B.name ~wall_ms r
      @ bt49 (module B))
    (Failmpi.Backend.all ())
