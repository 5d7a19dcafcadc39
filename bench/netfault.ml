(* The netfault suite: network perturbation.

   Part 1 — the pristine-path guarantee: the same fixed-seed BT runs
   with no perturbation profile vs an applied-but-all-zero profile. The
   two must agree on every observable (outcome, time, faults, checksums,
   counters), and the zero profile may allocate at most 2% more minor
   words; the suite refuses to write its file otherwise.

   Part 2 — the cost of surviving loss: one fixed-seed run per
   (backend x loss level), recording wall time, simulated completion
   time, the fabric counters and the verdict. This is the wall-clock
   companion of `failmpi_experiments netfault`, which sweeps the same
   grid for simulated-time figures. *)

let reps = 5
let loss_levels = [ 0.0; 0.02; 0.05; 0.10 ]

let profile_of loss =
  if loss = 0.0 then None
  else
    Some
      {
        Simnet.Net.Perturb.default_profile with
        Simnet.Net.Perturb.base = { Simnet.Net.Perturb.loss; latency = 0.0; jitter = 0.0 };
      }

let run ~smoke:_ =
  Printf.printf "netfault: no profile vs zero profile (%d runs each)...\n%!" reps;
  let sample net =
    Fixture.sample ~reps (fun ~seed -> Fixture.bt4 ~seed (fun c -> { c with Mpivcl.Config.net }))
  in
  let perturb_off =
    Fixture.overheads ~suite:"netfault" ~group:"perturb_off" ~limit_pct:2.0
      ("plain", sample None)
      [
        ( "zero_profile",
          sample (Some Simnet.Net.Perturb.default_profile),
          "zero profile diverged from the pristine path" );
      ]
  in
  perturb_off
  @ List.concat_map
      (fun (module B : Failmpi.Backend.S) ->
        List.concat_map
          (fun loss ->
            Printf.printf "netfault: %s at %g%% loss...\n%!" B.name (loss *. 100.0);
            let r, wall_ms =
              Fixture.timed (fun () ->
                  Fixture.bt4 ~seed:1L (fun c ->
                      {
                        c with
                        Mpivcl.Config.protocol = B.protocol ~replicas:2;
                        net = profile_of loss;
                      }))
            in
            Fixture.verdict ~counters:Fixture.net_counters
              (Printf.sprintf "loss_curve/%s/%.2f" B.name loss)
              ~wall_ms r)
          loss_levels)
      (Failmpi.Backend.all ())
