type agg = {
  label : string;
  runs : int;
  completed : int;
  degraded : int;
  aborted : int;
  non_terminating : int;
  buggy : int;
  net_hung : int;
  ckpt_lost : int;
  mean_time : float option;
  stddev_time : float option;
  mean_survivors : float option;
  pct_degraded : float;
  pct_aborted : float;
  pct_non_terminating : float;
  pct_buggy : float;
  pct_net_hung : float;
  pct_ckpt_lost : float;
  mean_faults : float;
  checksum_failures : int;
  mean_counters : (string * float) list;
}

let replicate ?jobs ~reps ~base_seed run = Par.map_seeds ?jobs ~reps ~base_seed run

type 'a cell = {
  tag : 'a;
  reps : int;
  base_seed : int;
  runner : seed:int64 -> Failmpi.Run.result;
}

let cell ~tag ~reps ~base_seed runner = { tag; reps; base_seed; runner }

(* Every experiment table funnels through here: the (cell x seed) grid is
   flattened into one job list so the pool stays saturated even when a
   single configuration has fewer repetitions than domains. Each job is
   a pure function of its seed, so the parallel result list is
   bit-for-bit the sequential one. *)
let campaign ?jobs cells =
  let jobs_list =
    List.concat_map
      (fun c -> List.init c.reps (fun i -> (c, Int64.of_int (c.base_seed + i))))
      cells
  in
  let results = Par.map ?jobs (fun (c, seed) -> c.runner ~seed) jobs_list in
  let rec regroup cells results =
    match cells with
    | [] -> []
    | c :: rest ->
        let rec take n acc = function
          | results when n = 0 -> (List.rev acc, results)
          | r :: results -> take (n - 1) (r :: acc) results
          | [] -> invalid_arg "Harness.campaign: result count mismatch"
        in
        let mine, others = take c.reps [] results in
        (c.tag, mine) :: regroup rest others
  in
  regroup cells results

(* Mean of every backend counter seen across [results], keyed by the
   Metrics counter names. Names are sorted so mixed-backend campaigns
   emit a stable column order no matter which backend's results arrive
   first. A counter a run's backend did not report counts as 0 for that
   run. *)
let mean_counters results =
  let names = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (name, _) -> if not (List.mem name !names) then names := name :: !names)
        (Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics))
    results;
  let runs = List.length results in
  List.sort String.compare !names
  |> List.map (fun name ->
         let total =
           List.fold_left
             (fun acc r ->
               acc
               + Option.value ~default:0
                   (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics name))
             0 results
         in
         (name, if runs = 0 then 0.0 else float_of_int total /. float_of_int runs))

let counter agg name =
  match List.assoc_opt name agg.mean_counters with Some v -> v | None -> 0.0

let aggregate ~label results =
  let runs = List.length results in
  (* Degraded runs finished and have a wall-clock time: they count in the
     time statistics (that IS the recovery-time-vs-answer-quality
     trade-off) but are tallied separately from plain completions. *)
  let times =
    List.filter_map
      (fun r ->
        match r.Failmpi.Run.outcome with
        | Failmpi.Run.Completed t -> Some t
        | Failmpi.Run.Degraded { at; _ } -> Some at
        | Failmpi.Run.Aborted _ | Failmpi.Run.Ckpt_lost | Failmpi.Run.Non_terminating
        | Failmpi.Run.Buggy | Failmpi.Run.Net_hung ->
            None)
      results
  in
  let survivor_counts =
    List.filter_map
      (fun r ->
        match r.Failmpi.Run.outcome with
        | Failmpi.Run.Degraded { survivors; _ } -> Some (float_of_int survivors)
        | _ -> None)
      results
  in
  let count p = List.length (List.filter p results) in
  let completed =
    count (fun r ->
        match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false)
  in
  let degraded = List.length survivor_counts in
  let aborted =
    count (fun r ->
        match r.Failmpi.Run.outcome with Failmpi.Run.Aborted _ -> true | _ -> false)
  in
  let non_terminating =
    count (fun r -> r.Failmpi.Run.outcome = Failmpi.Run.Non_terminating)
  in
  let buggy = count (fun r -> r.Failmpi.Run.outcome = Failmpi.Run.Buggy) in
  let net_hung = count (fun r -> r.Failmpi.Run.outcome = Failmpi.Run.Net_hung) in
  let ckpt_lost = count (fun r -> r.Failmpi.Run.outcome = Failmpi.Run.Ckpt_lost) in
  let checksum_failures = count (fun r -> r.Failmpi.Run.checksum_ok = Some false) in
  {
    label;
    runs;
    completed;
    degraded;
    aborted;
    non_terminating;
    buggy;
    net_hung;
    ckpt_lost;
    mean_time = Stats.mean times;
    stddev_time = Stats.stddev times;
    mean_survivors = Stats.mean survivor_counts;
    pct_degraded = Stats.percent ~total:runs degraded;
    pct_aborted = Stats.percent ~total:runs aborted;
    pct_non_terminating = Stats.percent ~total:runs non_terminating;
    pct_buggy = Stats.percent ~total:runs buggy;
    pct_net_hung = Stats.percent ~total:runs net_hung;
    pct_ckpt_lost = Stats.percent ~total:runs ckpt_lost;
    mean_faults =
      (match
         Stats.mean
           (List.map (fun r -> float_of_int r.Failmpi.Run.injected_faults) results)
       with
      | Some m -> m
      | None -> 0.0);
    checksum_failures;
    mean_counters = mean_counters results;
  }

type column = { head : string; width : int; value : agg -> string }

let render ~title ~columns aggs =
  let rows = List.map (fun a -> List.map (fun c -> c.value a) columns) aggs in
  (* A cell longer than its column widens the column, so one long label
     does not push the rest of its row out of line. *)
  let widths =
    List.fold_left
      (List.map2 (fun w text -> max w (String.length text)))
      (List.map (fun c -> c.width) columns)
      rows
  in
  let line cells =
    List.mapi
      (fun i (w, text) ->
        if i = 0 then Printf.sprintf "%-*s" w text else Printf.sprintf "%*s" w text)
      (List.combine widths cells)
    |> String.concat " "
  in
  String.concat "\n"
    ((title :: String.make (String.length title) '-' :: line (List.map (fun c -> c.head) columns)
     :: List.map line rows)
    @ [ "" ])

let label width = { head = "configuration"; width; value = (fun a -> a.label) }
let num head width digits f = { head; width; value = (fun a -> Printf.sprintf "%.*f" digits (f a)) }

let opt head width digits f =
  {
    head;
    width;
    value = (fun a -> match f a with Some v -> Printf.sprintf "%.*f" digits v | None -> "-");
  }

let time width = opt "time(s)" width 0 (fun a -> a.mean_time)
let runs width = { head = "runs"; width; value = (fun a -> string_of_int a.runs) }

let chk width =
  {
    head = "chk";
    width;
    value =
      (fun a ->
        if a.checksum_failures = 0 then "ok" else Printf.sprintf "%d BAD" a.checksum_failures);
  }

let standard =
  [
    label 22;
    runs 6;
    time 10;
    opt "stddev" 8 0 (fun a -> a.stddev_time);
    num "faults" 9 1 (fun a -> a.mean_faults);
    num "%degr" 6 0 (fun a -> a.pct_degraded);
    num "%nonterm" 8 0 (fun a -> a.pct_non_terminating);
    num "%buggy" 8 0 (fun a -> a.pct_buggy);
    num "%nethung" 8 0 (fun a -> a.pct_net_hung);
    chk 7;
  ]

let render_table ~title aggs = render ~title ~columns:standard aggs

(* The counter columns are the sorted union of every backend counter any
   aggregate reported, so a five-backend campaign produces one rectangular
   CSV whose column order does not depend on row order. *)
let aggs_csv aggs =
  let counter_names =
    List.concat_map (fun a -> List.map fst a.mean_counters) aggs
    |> List.sort_uniq String.compare
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "label,runs,completed,degraded,aborted,ckpt_lost,non_terminating,buggy,net_hung,mean_time,stddev_time,mean_survivors,pct_degraded,pct_aborted,pct_ckpt_lost,pct_non_terminating,pct_buggy,pct_net_hung,mean_faults,checksum_failures";
  List.iter (fun name -> Buffer.add_string buf ("," ^ name)) counter_names;
  Buffer.add_char buf '\n';
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d"
           a.label a.runs a.completed a.degraded a.aborted a.ckpt_lost a.non_terminating
           a.buggy a.net_hung
           (match a.mean_time with Some t -> Printf.sprintf "%.1f" t | None -> "")
           (match a.stddev_time with Some s -> Printf.sprintf "%.1f" s | None -> "")
           (match a.mean_survivors with Some s -> Printf.sprintf "%.1f" s | None -> "")
           a.pct_degraded a.pct_aborted a.pct_ckpt_lost a.pct_non_terminating a.pct_buggy
           a.pct_net_hung a.mean_faults a.checksum_failures);
      List.iter
        (fun name -> Buffer.add_string buf (Printf.sprintf ",%.1f" (counter a name)))
        counter_names;
      Buffer.add_char buf '\n')
    aggs;
  Buffer.contents buf

let machines_for n_ranks =
  if n_ranks <= 0 then
    invalid_arg
      (Printf.sprintf "Harness.machines_for: n_ranks must be positive (got %d)" n_ranks);
  n_ranks + 4

(* Campaigns only read aggregates (outcome, counters, checksums), never
   the trace, so the default trace level is Summary: per-message chatter
   is dropped at record time, its format arguments consumed without
   formatting. Pass ~trace_level:Full to keep everything (e.g. when
   feeding a run to Trace_analysis). *)
let bt_spec ?cfg ?(trace_level = Simkern.Trace.Summary) ~klass ~n_ranks ~n_machines
    ~scenario () =
  let cfg = match cfg with Some c -> c | None -> Mpivcl.Config.default ~n_ranks in
  let app = Workload.Bt_model.app klass ~n_ranks in
  let state_bytes = Workload.Bt_model.state_bytes klass ~n_ranks in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes) with
    Failmpi.Run.scenario;
    trace_level;
  }

let run_bt ?cfg ?trace_level ~klass ~n_ranks ~n_machines ~scenario ~seed () =
  let spec = bt_spec ?cfg ?trace_level ~klass ~n_ranks ~n_machines ~scenario () in
  let expected = Workload.Bt_model.reference_checksum klass ~n_ranks in
  Failmpi.Run.execute ~expected_checksum:expected { spec with Failmpi.Run.seed }
