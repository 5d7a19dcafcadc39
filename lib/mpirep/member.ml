type state = Launching | Registered | Ready | Computing | Dead

type 'conn replica = {
  rank : int;
  slot : int;
  mutable m_host : int;
  mutable m_inc : int;
  mutable m_conn : 'conn option;
  mutable m_state : state;
  mutable m_resume : bool;
}

type 'conn t = {
  n_ranks : int;
  degree : int;
  table : 'conn replica array array;
  finished : bool array;
}

let create ~n_ranks ~degree ~host_of =
  {
    n_ranks;
    degree;
    table =
      Array.init n_ranks (fun rank ->
          Array.init degree (fun slot ->
              {
                rank;
                slot;
                m_host = host_of ~rank ~slot;
                m_inc = -1;
                m_conn = None;
                m_state = Launching;
                m_resume = false;
              }));
    finished = Array.make n_ranks false;
  }

let get t ~rank ~slot = t.table.(rank).(slot)

let live_slots t ~rank =
  Array.to_list t.table.(rank)
  |> List.filter (fun r -> r.m_state = Computing && Option.is_some r.m_conn)

let pending_slots t ~rank =
  Array.to_list t.table.(rank)
  |> List.filter (fun r ->
         match r.m_state with
         | Launching | Registered | Ready -> true
         | Computing | Dead -> false)

let all_ready t =
  Array.for_all (fun row -> Array.for_all (fun r -> r.m_state = Ready) row) t.table

let snapshot t =
  Array.map
    (fun row ->
      Array.to_list row
      |> List.filter_map (fun r ->
             if r.m_state = Dead then None
             else Some { Rmsg.mb_slot = r.slot; mb_host = r.m_host }))
    t.table

let mark_finished t ~rank = t.finished.(rank) <- true
let finished t ~rank = t.finished.(rank)
let all_finished t = Array.for_all Fun.id t.finished
let iter f t = Array.iter (Array.iter f) t.table

let state_name = function
  | Launching -> "launching"
  | Registered -> "registered"
  | Ready -> "ready"
  | Computing -> "computing"
  | Dead -> "dead"
