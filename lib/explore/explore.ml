module Plan = Plan
module Shrink = Shrink
module Prefix = Prefix
module Corpus = Corpus
module Run = Failmpi.Run

type verdict =
  | Completed
  | Degraded
  | Aborted
  | Ckpt_lost
  | Non_terminating
  | Buggy
  | Net_hung

let verdict_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Aborted -> "aborted"
  | Ckpt_lost -> "ckpt-lost"
  | Non_terminating -> "non-terminating"
  | Buggy -> "buggy"
  | Net_hung -> "net-hung"

let verdict_of_outcome = function
  | Run.Completed _ -> Completed
  | Run.Degraded _ -> Degraded
  | Run.Aborted _ -> Aborted
  | Run.Ckpt_lost -> Ckpt_lost
  | Run.Non_terminating -> Non_terminating
  | Run.Buggy -> Buggy
  | Run.Net_hung -> Net_hung

(* FNV-1a 64-bit over the (source, event) stream; NUL-separated so
   ("ab","c") and ("a","bc") hash apart. *)
let signature (r : Run.result) =
  let h = ref 0xcbf29ce484222325L in
  let feed s =
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    h := Int64.mul (Int64.logxor !h 0L) 0x100000001b3L
  in
  List.iter
    (fun (source, event) ->
      feed source;
      feed event)
    (Run.trace_events r);
  Printf.sprintf "%016Lx" !h

type config = {
  n_machines : int;
  targets : int list;
  buckets : int list;
  kinds : Plan.kind list;
  max_faults : int;
  budget : int;
  sample_seed : int;
  shrink_hangs : bool;
}

let default_config ~n_machines ~targets ~buckets =
  {
    n_machines;
    targets;
    buckets;
    kinds = [ Plan.Kill ];
    max_faults = 2;
    budget = 200;
    sample_seed = 1;
    shrink_hangs = false;
  }

(* Time grids for [Shrink.coarsen], coarsest first. *)
let coarsen_grid = [ 60; 30; 15; 5; 1 ]

let plan cfg faults = { Plan.n_machines = cfg.n_machines; faults }

let singles cfg =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun bucket ->
          List.map
            (fun kind ->
              plan cfg
                [ Plan.align_service { Plan.machine; anchor = Plan.After bucket; kind } ])
            cfg.kinds)
        cfg.buckets)
    cfg.targets

(* The first [count] ordered pairs of [faults], first fault major: the
   grid is built only as far as the budget reaches. *)
let pairs cfg faults ~count =
  let rec go count firsts seconds =
    if count <= 0 then []
    else
      match (firsts, seconds) with
      | [], _ -> []
      | _ :: rest, [] -> go count rest faults
      | first :: _, second :: more -> plan cfg [ first; second ] :: go (count - 1) firsts more
  in
  go count faults faults

let sampled cfg ~count =
  if count <= 0 || cfg.max_faults < 3 then []
  else begin
    let rng = Simkern.Rng.create (Int64.of_int cfg.sample_seed) in
    List.init count (fun i ->
        let n_faults = 3 + (i mod (cfg.max_faults - 2)) in
        plan cfg
          (List.init n_faults (fun _ ->
               Plan.align_service
                 {
                   Plan.machine = Simkern.Rng.choose rng cfg.targets;
                   anchor = Plan.After (Simkern.Rng.choose rng cfg.buckets);
                   kind = Simkern.Rng.choose rng cfg.kinds;
                 })))
  end

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n xs

let plans cfg =
  if cfg.max_faults < 1 then invalid_arg "Explore.plans: max_faults must be >= 1";
  if cfg.budget < 1 then invalid_arg "Explore.plans: budget must be >= 1";
  if cfg.targets = [] || cfg.buckets = [] || cfg.kinds = [] then
    invalid_arg "Explore.plans: targets, buckets and kinds must be non-empty";
  (* The scenario deploys a controller on each compute host only, so a
     fault aimed elsewhere would shoot nothing. *)
  List.iter
    (fun m ->
      if m < 0 || m >= cfg.n_machines then
        invalid_arg
          (Printf.sprintf "Explore.plans: target %d is outside the compute hosts 0..%d" m
             (cfg.n_machines - 1)))
    cfg.targets;
  let singles = singles cfg in
  let n_singles = List.length singles in
  let n_pairs = if cfg.max_faults >= 2 then n_singles * n_singles else 0 in
  let faults = List.concat_map (fun p -> p.Plan.faults) singles in
  let pairs = pairs cfg faults ~count:(min n_pairs (cfg.budget - n_singles)) in
  take cfg.budget (singles @ pairs @ sampled cfg ~count:(cfg.budget - n_singles - n_pairs))

type record = {
  plan : Plan.t;
  verdict : verdict;
  completion : float option;
  injected : int;
  sig_hash : string;
}

type minimized = {
  found : Plan.t;
  min_plan : Plan.t;
  min_verdict : verdict;
  probes : int;
  probes_saved : int;
  scenario : string;
}

type report = {
  config : config;
  records : record list;
  coverage : (string * verdict * int) list;
  minimized : minimized list;
}

let record_of ~plan (r : Run.result) =
  {
    plan;
    verdict = verdict_of_outcome r.Run.outcome;
    completion =
      (match r.Run.outcome with
      | Run.Completed t -> Some t
      | Run.Degraded { at; _ } -> Some at
      | _ -> None);
    injected = r.Run.injected_faults;
    sig_hash = signature r;
  }

(* Distinct signatures in first-seen order, with counts. *)
let coverage_of records =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun rc ->
      match Hashtbl.find_opt tbl rc.sig_hash with
      | Some (v, n) -> Hashtbl.replace tbl rc.sig_hash (v, n + 1)
      | None ->
          Hashtbl.add tbl rc.sig_hash (rc.verdict, 1);
          order := rc.sig_hash :: !order)
    records;
  List.rev_map
    (fun s ->
      let v, n = Hashtbl.find tbl s in
      (s, v, n))
    !order

let shrink_one cfg ~runner rc =
  let probes = ref 0 and saved = ref 0 in
  (* ddmin's chunk/complement sweeps and coarsen's grid walk revisit
     identical candidate plans; the runner is deterministic, so one
     oracle run per distinct plan key suffices.  The found plan itself
     seeds the cache — its verdict is the campaign record. *)
  let cache = Hashtbl.create 64 in
  Hashtbl.replace cache (Plan.key rc.plan) rc.verdict;
  let verdict_of p =
    let k = Plan.key p in
    match Hashtbl.find_opt cache k with
    | Some v ->
        incr saved;
        v
    | None ->
        incr probes;
        let v = verdict_of_outcome (runner p).Run.outcome in
        Hashtbl.replace cache k v;
        v
  in
  let reproduces faults = faults <> [] && verdict_of (plan cfg faults) = rc.verdict in
  let min_faults, dd_probes = Shrink.ddmin ~test:reproduces rc.plan.Plan.faults in
  let coarse, co_probes =
    Shrink.coarsen ~grid:coarsen_grid
      ~test:(fun p -> verdict_of p = rc.verdict)
      (plan cfg min_faults)
  in
  ignore dd_probes;
  ignore co_probes;
  {
    found = rc.plan;
    min_plan = coarse;
    min_verdict = rc.verdict;
    probes = !probes;
    probes_saved = !saved;
    scenario = Plan.to_scenario coarse;
  }

(* Coverage + witness shrinking over already-classified records.
   Shrinking runs in the calling process: it creates no worker. *)
let finish_report cfg ~runner records =
  let coverage = coverage_of records in
  (* One witness per distinct failing signature, first hit in input
     order wins — equivalent wedges shrink once, not once per plan. *)
  (* A clean abort is a reproducible refusal worth a witness; a degraded
     completion is the ulfm backend working as designed, not a failure. *)
  let shrinkable rc =
    match rc.verdict with
    | Buggy | Net_hung | Aborted | Ckpt_lost -> true
    | Non_terminating -> cfg.shrink_hangs
    | Completed | Degraded -> false
  in
  let to_shrink =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun rc ->
        shrinkable rc
        &&
        if Hashtbl.mem seen rc.sig_hash then false
        else begin
          Hashtbl.add seen rc.sig_hash ();
          true
        end)
      records
  in
  let minimized = List.map (shrink_one cfg ~runner) to_shrink in
  { config = cfg; records; coverage; minimized }

(* [spec] running the scenario [src] of a plan over [n_machines]. *)
let scenario_spec (spec : Run.spec) ~n_machines src =
  if n_machines <> spec.Run.n_compute then
    invalid_arg
      (Printf.sprintf "Explore.runner_of_spec: plan covers %d machines, spec has %d"
         n_machines spec.Run.n_compute);
  { spec with Run.scenario = Some src; params = []; trace_level = Simkern.Trace.Summary }

let runner_of_spec (spec : Run.spec) (p : Plan.t) =
  Run.execute (scenario_spec spec ~n_machines:p.Plan.n_machines (Plan.to_scenario p))

let corpus_space cfg =
  {
    Corpus.n_machines = cfg.n_machines;
    targets = cfg.targets;
    buckets = cfg.buckets;
    kinds = cfg.kinds;
    max_faults = cfg.max_faults;
    sample_seed = cfg.sample_seed;
  }

let run_spec ?jobs ?(fork = true) ?(measure = false) ?corpus cfg ~spec =
  let base = plans cfg in
  let corpus =
    Option.map
      (fun dir ->
        match Corpus.load ~dir ~space:(corpus_space cfg) with
        | Ok c -> c
        | Error msg -> invalid_arg ("Explore.run_spec: " ^ msg))
      corpus
  in
  (* Resume semantics: already-tried plans are skipped and the freed
     budget goes to seeded mutants of the corpus pool — coverage-guided
     search around whatever opened new signature territory. *)
  let searched =
    match corpus with
    | None -> base
    | Some c ->
        let fresh = List.filter (fun p -> not (Corpus.tried c (Plan.key p))) base in
        fresh @ Corpus.mutants c ~count:(cfg.budget - List.length fresh)
  in
  let out, stats =
    Prefix.run
      ~jobs:(match jobs with Some j -> j | None -> Par.default_jobs ())
      ~fork ~measure
      ~prepare:(fun src -> Run.prepare (scenario_spec spec ~n_machines:cfg.n_machines src))
      ~summarize:(fun plan r -> record_of ~plan r)
      (List.mapi (fun i p -> (i, p)) searched)
  in
  let records = List.map snd out in
  (match corpus with
  | None -> ()
  | Some c ->
      List.iter (fun rc -> Corpus.note c ~plan_key:(Plan.key rc.plan) ~sig_hash:rc.sig_hash) records;
      Corpus.save c);
  (finish_report cfg ~runner:(runner_of_spec spec) records, stats)

(* ---- rendering ---------------------------------------------------- *)

let tally records =
  List.fold_left
    (fun (c, d, a, k, n, b, h) rc ->
      match rc.verdict with
      | Completed -> (c + 1, d, a, k, n, b, h)
      | Degraded -> (c, d + 1, a, k, n, b, h)
      | Aborted -> (c, d, a + 1, k, n, b, h)
      | Ckpt_lost -> (c, d, a, k + 1, n, b, h)
      | Non_terminating -> (c, d, a, k, n + 1, b, h)
      | Buggy -> (c, d, a, k, n, b + 1, h)
      | Net_hung -> (c, d, a, k, n, b, h + 1))
    (0, 0, 0, 0, 0, 0, 0) records

let render rp =
  let buf = Buffer.create 1024 in
  let c, d, a, k, n, b, h = tally rp.records in
  Buffer.add_string buf
    (Printf.sprintf
       "explored %d plans (max %d faults, %d targets x %d buckets): %d completed, %d \
        degraded, %d aborted, %d ckpt-lost, %d non-terminating, %d buggy, %d net-hung\n"
       (List.length rp.records) rp.config.max_faults
       (List.length rp.config.targets)
       (List.length rp.config.buckets)
       c d a k n b h);
  Buffer.add_string buf
    (Printf.sprintf "coverage: %d distinct milestone signatures\n" (List.length rp.coverage));
  List.iter
    (fun (s, v, count) ->
      Buffer.add_string buf (Printf.sprintf "  %s  %-15s %d run(s)\n" s (verdict_name v) count))
    rp.coverage;
  (match rp.minimized with
  | [] -> Buffer.add_string buf "no failing plan found\n"
  | ms ->
      List.iter
        (fun m ->
          Buffer.add_string buf
            (Printf.sprintf "%s witness: %s  (found as %s, %d shrink re-runs, %d memoized)\n"
               (verdict_name m.min_verdict) (Plan.key m.min_plan) (Plan.key m.found) m.probes
               m.probes_saved))
        ms);
  Buffer.contents buf

(* Hand-rolled JSON, matching the bench harness idiom; field order is
   fixed so jobs-1 and jobs-4 reports compare byte-for-byte. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let fault_json (f : Plan.fault) =
  let anchor =
    match f.Plan.anchor with
    | Plan.After d -> Printf.sprintf {|"after", "delay": %d|} d
    | Plan.On_reload { nth; delay } ->
        Printf.sprintf {|"on-reload", "nth": %d, "delay": %d|} nth delay
  in
  Printf.sprintf {|{"machine": %d, "kind": "%s", "anchor": %s}|} f.Plan.machine
    (Fail_lang.Fault.name f.Plan.kind) anchor

let plan_json (p : Plan.t) =
  Printf.sprintf {|{"key": "%s", "faults": [%s]}|} (json_escape (Plan.key p))
    (String.concat ", " (List.map fault_json p.Plan.faults))

let to_json rp =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let c, d, a, k, n, b, h = tally rp.records in
  add "{\n";
  add "  \"config\": {\"n_machines\": %d, \"targets\": %s, \"buckets\": %s, \"kinds\": [%s], \
       \"max_faults\": %d, \"budget\": %d, \"sample_seed\": %d},\n"
    rp.config.n_machines (json_ints rp.config.targets) (json_ints rp.config.buckets)
    (String.concat ", "
       (List.map (fun k -> Printf.sprintf "\"%s\"" (Fail_lang.Fault.name k)) rp.config.kinds))
    rp.config.max_faults rp.config.budget rp.config.sample_seed;
  add "  \"explored\": %d,\n" (List.length rp.records);
  add
    "  \"verdicts\": {\"completed\": %d, \"degraded\": %d, \"aborted\": %d, \
     \"ckpt_lost\": %d, \"non_terminating\": %d, \"buggy\": %d, \"net_hung\": %d},\n"
    c d a k n b h;
  add "  \"coverage\": [\n";
  List.iteri
    (fun i (s, v, count) ->
      add "    {\"signature\": \"%s\", \"verdict\": \"%s\", \"runs\": %d}%s\n" s
        (verdict_name v) count
        (if i = List.length rp.coverage - 1 then "" else ","))
    rp.coverage;
  add "  ],\n";
  add "  \"records\": [\n";
  List.iteri
    (fun i rc ->
      add "    {\"plan\": %s, \"verdict\": \"%s\", %s\"injected\": %d, \"signature\": \"%s\"}%s\n"
        (plan_json rc.plan) (verdict_name rc.verdict)
        (match rc.completion with
        | Some t -> Printf.sprintf "\"completed_at\": %.6f, " t
        | None -> "")
        rc.injected rc.sig_hash
        (if i = List.length rp.records - 1 then "" else ","))
    rp.records;
  add "  ],\n";
  add "  \"minimized\": [\n";
  List.iteri
    (fun i m ->
      add
        "    {\"found\": %s, \"plan\": %s, \"verdict\": \"%s\", \"faults\": %d, \"probes\": \
         %d, \"probes_saved\": %d, \"scenario\": \"%s\"}%s\n"
        (plan_json m.found) (plan_json m.min_plan) (verdict_name m.min_verdict)
        (List.length m.min_plan.Plan.faults)
        m.probes m.probes_saved
        (json_escape m.scenario)
        (if i = List.length rp.minimized - 1 then "" else ","))
    rp.minimized;
  add "  ]\n";
  add "}\n";
  Buffer.contents buf
