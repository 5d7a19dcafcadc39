type t = {
  recoveries : int;
  committed_waves : int;
  confused : bool;
  failovers : int;
  respawns : int;
  extra : (string * int) list;
  net : Simnet.Net.Perturb.stats option;
}

let zero =
  {
    recoveries = 0;
    committed_waves = 0;
    confused = false;
    failovers = 0;
    respawns = 0;
    extra = [];
    net = None;
  }

let counters t =
  [
    ("recoveries", t.recoveries);
    ("committed_waves", t.committed_waves);
    ("confused", if t.confused then 1 else 0);
    ("failovers", t.failovers);
    ("respawns", t.respawns);
  ]
  @ t.extra
  @
  match t.net with
  | None -> []
  | Some s ->
      [
        ("net_dropped", s.Simnet.Net.Perturb.dropped);
        ("net_delayed", s.delayed);
        ("net_retransmits", s.retransmits);
        ("net_conn_timeouts", s.conn_timeouts);
      ]

let find t name = List.assoc_opt name (counters t)
