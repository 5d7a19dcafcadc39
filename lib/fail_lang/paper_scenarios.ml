let adv2_controller =
  {|
Daemon ADV2 {
  node 1:
    onload -> continue, goto 2;
    ?crash -> !no(P1), goto 1;
  node 2:
    onexit -> goto 1;
    onerror -> goto 1;
    onload -> continue, goto 2;
    ?crash -> !ok(P1), halt, goto 1;
}
|}

let frequency ~n_machines ~period =
  Printf.sprintf
    {|
// Figure 5(a): one fault every %d seconds on a uniformly chosen node.
Daemon ADV1 {
  node 1:
    always int ran = FAIL_RANDOM(0, %d);
    time g_timer = %d;
    timer -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, %d);
    ?ok -> goto 1;
    ?no -> !crash(G1[ran]), goto 2;
}
%s
P1 : ADV1 on machine %d;
G1[%d] : ADV2 on machines 0 .. %d;
|}
    period (n_machines - 1) period (n_machines - 1) adv2_controller n_machines n_machines
    (n_machines - 1)

let simultaneous ~n_machines ~period ~count =
  Printf.sprintf
    {|
// Figure 7(a): %d back-to-back faults every %d seconds.
Daemon ADV1 {
  int nb_crash = %d;
  node 1:
    always int ran = FAIL_RANDOM(0, %d);
    time g_timer = %d;
    timer -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, %d);
    ?ok && nb_crash > 1 -> !crash(G1[ran]), nb_crash = nb_crash - 1, goto 2;
    ?ok && nb_crash <= 1 -> nb_crash = %d, goto 1;
    ?no -> !crash(G1[ran]), goto 2;
}
%s
P1 : ADV1 on machine %d;
G1[%d] : ADV2 on machines 0 .. %d;
|}
    count period count (n_machines - 1) period (n_machines - 1) count adv2_controller
    n_machines n_machines (n_machines - 1)

let synchronized ~n_machines ~period =
  Printf.sprintf
    {|
// Figure 8: second fault on the first controller seeing the recovery wave.
Daemon ADV1 {
  node 1:
    always int ran = FAIL_RANDOM(0, %d);
    time g_timer = %d;
    timer -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, %d);
    ?ok -> goto 3;
    ?no -> !crash(G1[ran]), goto 2;
  node 3:
    ?waveok -> !crash(FAIL_SENDER), goto 4;
  node 4:
}

Daemon ADVnodes {
  int wave = 1;
  node 1:
    onload && wave <> 2 -> continue, wave = wave + 1, goto 2;
    onload && wave == 2 -> continue, wave = wave + 1, !waveok(P1), goto 2;
    ?crash -> !no(P1), goto 1;
  node 2:
    onexit -> goto 1;
    onerror -> goto 1;
    onload && wave <> 2 -> continue, wave = wave + 1, goto 2;
    onload && wave == 2 -> continue, wave = wave + 1, !waveok(P1), goto 2;
    ?crash -> !ok(P1), halt, goto 1;
}

P1 : ADV1 on machine %d;
G1[%d] : ADVnodes on machines 0 .. %d;
|}
    (n_machines - 1) period (n_machines - 1) n_machines n_machines (n_machines - 1)

let state_synchronized ~n_machines ~period =
  Printf.sprintf
    {|
// Figure 10: second fault just before localMPI_setCommand in the recovery
// wave, i.e. right after the relaunched daemon registered with the
// dispatcher.
Daemon ADV1 {
  node 1:
    always int ran = FAIL_RANDOM(0, %d);
    time g_timer = %d;
    timer -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, %d);
    ?ok -> goto 3;
    ?no -> !crash(G1[ran]), goto 2;
  node 3:
    ?waveok -> !crash(FAIL_SENDER), goto 4;
  node 4:
    ?waveok -> !nocrash(FAIL_SENDER), goto 4;
}

Daemon ADVstate {
  node 1:
    onload -> continue, goto 2;
    ?crash -> !no(P1), goto 1;
  node 11:
    onload -> !waveok(P1), stop, goto 3;
    ?crash -> !no(P1), goto 11;
  node 2:
    ?crash -> !ok(P1), halt, goto 11;
    onload -> !waveok(P1), stop, goto 3;
  node 3:
    ?crash -> !ok(P1), continue, goto 4;
    ?nocrash -> continue, goto 5;
  node 4:
    before(localMPI_setCommand) -> halt, goto 5;
  node 5:
    onload -> continue, goto 5;
}

P1 : ADV1 on machine %d;
G1[%d] : ADVstate on machines 0 .. %d;
|}
    (n_machines - 1) period (n_machines - 1) n_machines n_machines (n_machines - 1)

let replica_split ~n_machines ~n_ranks ~rank ~start ~gap =
  let second = rank + n_ranks in
  Printf.sprintf
    {|
// Replica split (replication backend): kill slot 0 of rank %d at t=%d,
// then slot 1 (machine %d = rank + n_ranks) %d s later. A gap shorter
// than the respawn latency exhausts the rank's replication inside the
// failover window (Buggy-equivalent); a longer gap is absorbed as two
// independent failovers.
Daemon SPLIT {
  node 1:
    time t_first = %d;
    timer -> !crash(G1[%d]), goto 2;
  node 2:
    ?ok -> goto 3;
    ?no -> goto 3;
  node 3:
    time t_second = %d;
    timer -> !crash(G1[%d]), goto 4;
  node 4:
    ?ok -> goto 5;
    ?no -> goto 5;
  node 5:
}
%s
P1 : SPLIT on machine %d;
G1[%d] : ADV2 on machines 0 .. %d;
|}
    rank start second gap start rank gap second adv2_controller n_machines n_machines
    (n_machines - 1)

(* §6 shape, in the explorer's fault-plan form ({!Codegen.Scenario}):
    kill machine [first] at [start] seconds, then kill machine [second]
    [gap] seconds after the [nth] cumulative daemon registration —
    with [nth] = initial launches + 1, that is [gap] seconds into the
    recovery wave the first kill triggered. A parameterized file version
    lives in [scenarios/double_strike.fail]. *)
let double_strike ~n_machines ~first ~second ~start ~nth ~gap =
  Codegen.Scenario.source ~n_machines
    [
      { Codegen.Scenario.machine = first; anchor = Codegen.Scenario.After start; kind = Codegen.Scenario.Kill };
      {
        Codegen.Scenario.machine = second;
        anchor = Codegen.Scenario.On_reload { nth; delay = gap };
        kind = Codegen.Scenario.Kill;
      };
    ]

let partition_wave ~n_machines ~victim ~target ~loss ~latency ~start ~wave ~gap ~heal =
  Codegen.Scenario.source ~n_machines
    [
      {
        Codegen.Scenario.machine = victim;
        anchor = Codegen.Scenario.After start;
        kind = Codegen.Scenario.Degrade { loss; latency };
      };
      { Codegen.Scenario.machine = victim; anchor = Codegen.Scenario.After wave; kind = Codegen.Scenario.Partition };
      { Codegen.Scenario.machine = target; anchor = Codegen.Scenario.After gap; kind = Codegen.Scenario.Kill };
      { Codegen.Scenario.machine = 0; anchor = Codegen.Scenario.After heal; kind = Codegen.Scenario.Heal };
    ]

let rack_blackout ~n_machines ~switch ~start ~heal =
  Codegen.Scenario.source ~n_machines
    [
      {
        Codegen.Scenario.machine = switch;
        anchor = Codegen.Scenario.After start;
        kind = Codegen.Scenario.Switch_kill { tier = Ast.Tier_agg };
      };
      { Codegen.Scenario.machine = 0; anchor = Codegen.Scenario.After heal; kind = Codegen.Scenario.Heal };
    ]

let shrink_storm ~n_machines ~targets ~start ~step ~victim ~lag =
  Codegen.Scenario.source ~n_machines
    (List.mapi
       (fun i m ->
         {
           Codegen.Scenario.machine = m;
           anchor = Codegen.Scenario.After (if i = 0 then start else step);
           kind = Codegen.Scenario.Kill;
         })
       targets
    @ [
        {
          Codegen.Scenario.machine = victim;
          anchor = Codegen.Scenario.After lag;
          kind = Codegen.Scenario.Partition;
        };
      ])

(* Checkpoint sniper, in the explorer's fault-plan form
    ({!Codegen.Scenario}): kill checkpoint server [server] (a service
    fault — [halt service ckpt\[server\]]) at [start] seconds, timed to
    land inside a wave's store window so the in-flight image is torn on
    that server's disk, then kill the process on machine [rank] [gap]
    seconds later while the server is still respawning. With mirroring
    on ([ckpt_replicas >= 2]) the restarted rank fails over to the
    mirror and recovery completes; with a single replica the restart
    finds no complete image and the run ends in the Ckpt_lost verdict
    instead of hanging. A parameterized file version lives in
    [scenarios/ckpt_sniper.fail]. *)
let ckpt_sniper ~n_machines ~server ~start ~rank ~gap =
  Codegen.Scenario.source ~n_machines
    [
      {
        Codegen.Scenario.machine = server;
        anchor = Codegen.Scenario.After start;
        kind = Codegen.Scenario.Service_kill { service = Codegen.Scenario.S_ckpt server };
      };
      {
        Codegen.Scenario.machine = rank;
        anchor = Codegen.Scenario.After gap;
        kind = Codegen.Scenario.Kill;
      };
    ]

let all =
  [
    ("fig5-frequency", frequency ~n_machines:53 ~period:50);
    ("fig7-simultaneous", simultaneous ~n_machines:53 ~period:50 ~count:3);
    ("fig8-synchronized", synchronized ~n_machines:53 ~period:50);
    ("fig10-state-synchronized", state_synchronized ~n_machines:53 ~period:50);
    (* Replication-backend scenarios: 9 ranks at degree 2 on 20 machines
       (18 replicas + 2 spares, the CLI's allocation). *)
    ("replica-split", replica_split ~n_machines:20 ~n_ranks:9 ~rank:4 ~start:50 ~gap:0);
    ( "replica-split-staggered",
      replica_split ~n_machines:20 ~n_ranks:9 ~rank:4 ~start:50 ~gap:40 );
    (* §6 shape for 9 ranks on 13 machines: kill rank 0 at t=25, then
       its relaunched daemon on the first spare (machine 9) 1 s after the
       10th cumulative load, while old-wave daemons still stop. This is
       the Recovery checker's counterexample: the historical dispatcher
       forgets rank 0 (buggy), the corrected one completes. Same plan as
       scenarios/double_strike.fail with FIRST=0 SECOND=9. *)
    ( "double-strike",
      double_strike ~n_machines:13 ~first:0 ~second:9 ~start:25 ~nth:10 ~gap:1 );
    (* Network fault cascade for 9 ranks on 13 machines: degrade the
       victim's links at t=20 (10% loss, +2 ms), cut it off 10 s later,
       kill another rank mid-outage, heal 8 s after the kill — early
       enough that connect retries have not exhausted. A parameterized
       file version lives in scenarios/partition_wave.fail. *)
    ( "partition-wave",
      partition_wave ~n_machines:13 ~victim:2 ~target:5 ~loss:100 ~latency:2 ~start:20
        ~wave:10 ~gap:5 ~heal:8 );
    (* Rack blackout for 4 ranks at degree 2 on 10 machines: kill
       aggregation switch 0 of the declared fabric at t=30, heal 20 s
       later — before connect retries exhaust, so the retransmitting
       transport drains and the run completes. A parameterized file
       version lives in scenarios/rack_blackout.fail. *)
    ("rack-blackout", rack_blackout ~n_machines:10 ~switch:0 ~start:30 ~heal:20);
    (* Shrink storm for 9 ranks on 13 machines (hosts 9..12 double as the
       ulfm warm-spare pool): staggered kills at t=25, 28, 31 land inside
       a running collective, then machine 2 is cut off 2 s after the last
       kill — during the survivor agreement the kills triggered. The
       unsuspected membership drops to exactly a majority of the original
       epoch, so the shrink backend must still decide (and the partition
       victim, alone on its side, must not). A parameterized file version
       lives in scenarios/shrink_storm.fail. *)
    ( "shrink-storm",
      shrink_storm ~n_machines:13 ~targets:[ 1; 5; 7 ] ~start:25 ~step:3 ~victim:2
        ~lag:2 );
    (* Checkpoint sniper for 9 ranks on 13 machines: shoot checkpoint
       server 0 at t=32 — 2 s into the first wave's store window, so the
       in-flight image is torn on its disk — then kill rank 3 while the
       server is down. With mirroring on (ckpt_replicas >= 2) the rank
       restores from server 0's mirror; with a single replica the restart
       finds no complete image and the run ends in Ckpt_lost instead of
       hanging. A parameterized file version lives in
       scenarios/ckpt_sniper.fail. *)
    ("ckpt-sniper", ckpt_sniper ~n_machines:13 ~server:0 ~start:32 ~rank:3 ~gap:6);
  ]
