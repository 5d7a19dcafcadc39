(* The explorer's worker pool and prefix-sharing scheduler.

   Every record of a campaign is computed by a job, and every job runs
   on one pool: up to [jobs] worker processes (at most 64), each forked
   when a queued job finds no idle worker and kept for the rest of the
   campaign, fed in lockstep over a command and a reply pipe each, so no
   pipe ever holds two frames; at [jobs = 1] the jobs run in the caller.
   A job either replays one plan from t = 0 ([prepare], then
   [Run.resume_from]: [Run.execute]) or walks part of the trie below.
   Results are reassembled by index, so reports are byte-identical to
   replaying every plan, at any [~jobs] (docs/EXPLORER.md).

   Plans whose faults are all [After]-anchored, with no service freeze
   before the last one, form a trie keyed by the full fault tuple.  Two
   plans sharing their first k faults share their whole simulation up to
   fault k+1: a generated scenario's PLAN daemon is then a pure timer
   chain (fault k+1's timer arms when fault k fires), and nothing before
   a fault's timer depends on anything after it.  A service freeze
   breaks the chain: its thaw is a PLAN node of its own, so the next
   fault's timer arms at the thaw, and the walk would re-aim the thaw's
   timer instead.

   The walk pauses the simulation just before the pending scenario
   timer fires ([Run.advance ~stop_before]).  One branch continues
   inline: it re-aims the timer at its delay ([Runtime.retime_timer]
   keeps the engine sequence number, so same-instant ties break as in a
   from-scratch run), installs its automaton ([Runtime.swap_plan]) and
   recurses.  Each other branch, and the plans that end on the fault
   about to fire, becomes a job: a fresh [prepare] of its representative
   plan, replayed to the pause along its trie path, then walked the same
   way. *)

module Run = Failmpi.Run
module Runtime = Fci.Runtime
module Engine = Simkern.Engine

type stats = {
  forks : int;  (* worker processes forked: at most [min jobs 64], none at 1 *)
  pauses : int;  (* breakpoints taken (prefix states shared onward) *)
  fork_wall_s : float;  (* parent-side wall clock spent inside fork() *)
  snapshot_events_max : int;  (* queue size at a pause, under [~measure:true] *)
}

let zero_stats = { forks = 0; pauses = 0; fork_wall_s = 0.0; snapshot_events_max = 0 }

let merge_stats a b =
  {
    forks = a.forks + b.forks;
    pauses = a.pauses + b.pauses;
    fork_wall_s = a.fork_wall_s +. b.fork_wall_s;
    snapshot_events_max = max a.snapshot_events_max b.snapshot_events_max;
  }

(* Reload-anchored faults wait on registration counts, not timers —
   there is no pending timer to pause before — and a service freeze
   before the last fault moves that fault's timer behind its thaw (see
   above): those plans replay from scratch instead, as every plan does
   without [~fork]. *)
let forkable (p : Plan.t) =
  let rec timed = function
    | [] -> true
    | { Plan.anchor = Plan.On_reload _; _ } :: _ -> false
    | [ _ ] -> true
    | { Plan.kind = Plan.Service_freeze _; _ } :: _ -> false
    | _ :: rest -> timed rest
  in
  p.Plan.faults <> [] && timed p.Plan.faults

(* ---- fault-tuple trie --------------------------------------------- *)

type node = {
  nd_fault : Plan.fault;  (* meaningless at the root *)
  nd_depth : int;  (* faults from the root to here, this one included *)
  mutable nd_leaves : int list;  (* plan indices ending here, input order *)
  mutable nd_children : node list;  (* input order *)
}

(* Plans whose scenario texts are equal run once: every index goes into
   the first one's leaf.  Codegen ignores a heal's machine, for one, so
   heal@0+25 and heal@3+25 are the same run. *)
let build plan_of tagged =
  let make depth f = { nd_fault = f; nd_depth = depth; nd_leaves = []; nd_children = [] } in
  let root = make 0 { Plan.machine = 0; anchor = Plan.After 0; kind = Plan.Kill } in
  let leaf_of = Hashtbl.create 64 in
  List.iter
    (fun (idx, (p : Plan.t)) ->
      let rec insert nd = function
        | [] -> nd
        | f :: rest ->
            let child =
              match List.find_opt (fun c -> c.nd_fault = f) nd.nd_children with
              | Some c -> c
              | None ->
                  let c = make (nd.nd_depth + 1) f in
                  nd.nd_children <- nd.nd_children @ [ c ];
                  c
            in
            insert child rest
      in
      let src = snd (Hashtbl.find plan_of idx) in
      let leaf =
        match Hashtbl.find_opt leaf_of src with Some nd -> nd | None -> insert root p.Plan.faults
      in
      Hashtbl.replace leaf_of src leaf;
      leaf.nd_leaves <- leaf.nd_leaves @ [ idx ])
    tagged;
  root

(* The branch representative: the plan whose automaton is installed
   while a subtree's shared prefix executes.  Any plan under the branch
   works — everything that runs before the branch's own fault fires
   depends only on the shared prefix — so the first-inserted descendant
   is used for determinism. *)
let rec rep_index nd =
  match nd.nd_children with c :: _ -> rep_index c | [] -> List.hd nd.nd_leaves

let rec all_indices nd =
  nd.nd_leaves @ List.concat_map all_indices nd.nd_children

let delay_of (f : Plan.fault) =
  match f.Plan.anchor with
  | Plan.After d -> d
  | Plan.On_reload _ -> assert false (* never in the trie: not [forkable] *)

let group_by_delay children =
  let delay c = delay_of c.nd_fault in
  let delays = List.sort_uniq Int.compare (List.map delay children) in
  List.map (fun d -> (d, List.filter (fun c -> delay c = d) children)) delays

(* ---- the walk ----------------------------------------------------- *)

(* A job replays one plan from scratch, or walks a trie node named by a
   plan through it and the node's depth.  With that plan installed a
   walk pauses before the node's fault and goes on: the whole trie at
   depth 0, only the plans that end on the fault when the plan does,
   the node's subtree otherwise. *)
type job = Replay of int | Walk of int * int

type 'a ctx = {
  plan_of : (int, Plan.t * string) Hashtbl.t;  (* each plan with its scenario text *)
  root : node;
  prepare : string -> Run.checkpoint;
  summarize : Plan.t -> Run.result -> 'a;
  measure : bool;
  mutable emitted : (int * 'a) list;
  mutable spawned : job list;
  mutable st : stats;
}

let plan ctx i = fst (Hashtbl.find ctx.plan_of i)
let scenario ctx i = snd (Hashtbl.find ctx.plan_of i)

let fci_of cp =
  match Run.checkpoint_fci cp with
  | Some rt -> rt
  | None -> assert false (* every searched plan carries a scenario *)

let swap_to ctx cp i =
  match Fail_lang.Compile.compile_source ~params:[] (scenario ctx i) with
  | Ok plan -> Runtime.swap_plan (fci_of cp) plan
  | Error msg -> failwith ("Prefix: plan failed to recompile: " ^ msg)

let now cp = Engine.now (Run.checkpoint_engine cp)
let spawn ctx job = ctx.spawned <- job :: ctx.spawned
let spawn_branch ctx nd = spawn ctx (Walk (rep_index nd, nd.nd_depth))

let pop ctx =
  match ctx.spawned with
  | job :: rest ->
      ctx.spawned <- rest;
      Some job
  | [] -> None

(* Re-aim the pending scenario timer [delay] seconds after [t_base] and
   run up to it. *)
let advance_to cp ~t_base delay =
  let tm =
    Runtime.retime_timer (fci_of cp) ~instance:"P1" ~time:(t_base +. float_of_int delay)
  in
  Run.advance cp ~stop_before:tm

(* Classify once, record for every plan that shares the terminal state
   (identical leaves, or branches whose fault the run never reached). *)
let finish ctx cp idxs =
  let r = Run.resume_from cp in
  List.iter (fun i -> ctx.emitted <- (i, ctx.summarize (plan ctx i) r) :: ctx.emitted) idxs

let note_pause ctx cp =
  let queued = if ctx.measure then Engine.queue_size (Run.checkpoint_engine cp) else 0 in
  ctx.st <- merge_stats ctx.st { zero_stats with pauses = 1; snapshot_events_max = queued }

(* Precondition: the simulation is paused just before [nd]'s fault
   timer fires and the installed plan is [rep_index nd]'s. *)
let rec at_pause ctx cp nd =
  (* Plans that END on this fault diverge from the continuing ones at
     this very step (their automaton goes to [done]): a job of their
     own, unless nothing continues. *)
  if nd.nd_children <> [] && nd.nd_leaves <> [] then
    spawn ctx (Walk (List.hd nd.nd_leaves, nd.nd_depth));
  Run.step cp;
  match nd.nd_children with
  | [] -> finish ctx cp nd.nd_leaves
  | children -> drive ctx cp ~t_base:(now cp) children

(* Precondition: the simulation is at [t_base], where [nd]'s fault just
   fired (or the run started), and the scenario timer for the next fault
   is armed.  Children are visited in delay order: the shared prefix
   keeps executing here, pausing at each distinct next-fault time and
   spawning a job per branch of that delay group; the last branch
   continues inline. *)
and drive ctx cp ~t_base children =
  let rec go = function
    | [] -> ()
    | (d, branches) :: rest -> (
        match advance_to cp ~t_base d with
        | `Paused -> (
            note_pause ctx cp;
            match (rest, List.rev branches) with
            | [], last :: others ->
                List.iter (spawn_branch ctx) others;
                swap_to ctx cp (rep_index last);
                at_pause ctx cp last
            | _ ->
                List.iter (spawn_branch ctx) branches;
                go rest)
        | `Finished ->
            (* Terminal stop before the earliest remaining fault time:
               every plan still hanging off this prefix would have seen
               the identical run — classify once, record for all. *)
            let remaining = branches @ List.concat_map snd rest in
            finish ctx cp (List.concat_map all_indices remaining))
  in
  go (group_by_delay children)

(* From a fresh launch, fire every fault but the last of [faults] and
   pause before that one: the state the walk was in when it spawned the
   job. *)
let replay cp faults =
  let rec go t_base = function
    | [] -> ()
    | f :: rest -> (
        match advance_to cp ~t_base (delay_of f) with
        | `Finished -> failwith "Prefix: a job's replay finished before its pause"
        | `Paused when rest = [] -> ()
        | `Paused ->
            Run.step cp;
            go (now cp) rest)
  in
  go 0.0 faults

let run_job ctx = function
  | Replay i -> finish ctx (ctx.prepare (scenario ctx i)) [ i ]
  | Walk (i, depth) ->
      let p = plan ctx i in
      let faults = List.filteri (fun k _ -> k < depth) p.Plan.faults in
      let child nd f = List.find (fun c -> c.nd_fault = f) nd.nd_children in
      let nd = List.fold_left child ctx.root faults in
      let cp = ctx.prepare (scenario ctx i) in
      replay cp faults;
      if depth = 0 then drive ctx cp ~t_base:0.0 nd.nd_children
      else if depth < List.length p.Plan.faults then at_pause ctx cp nd
      else begin
        Run.step cp;
        finish ctx cp nd.nd_leaves
      end

(* ---- the worker pool ---------------------------------------------- *)

let rec retry f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

type 'a reply = Done of (int * 'a) list * job list * stats | Failed of string

type worker = { pid : int; cmd : out_channel; reply : in_channel; mutable busy : bool }

let send oc v =
  Marshal.to_channel oc v [];
  flush oc

(* A worker's whole life: one reply per job until its command pipe
   reaches EOF.  It never returns into the caller's code. *)
let serve ctx cmd_r reply_w =
  let ic = Unix.in_channel_of_descr cmd_r and oc = Unix.out_channel_of_descr reply_w in
  let rec loop () =
    let job : job = Marshal.from_channel ic in
    let ctx = { ctx with emitted = []; spawned = []; st = zero_stats } in
    send oc
      (try
         run_job ctx job;
         Done (ctx.emitted, ctx.spawned, ctx.st)
       with e -> Failed (Printexc.to_string e));
    loop ()
  in
  (try loop () with _ -> (* [End_of_file]: the campaign is over *) ());
  Unix._exit 0

(* Close every command pipe (idle workers exit on the EOF), kill the
   rest when the campaign failed, and reap them all. *)
let stop ~kill workers =
  List.iter
    (fun w ->
      close_out_noerr w.cmd;
      if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_in_noerr w.reply;
      ignore (retry (fun () -> Unix.waitpid [] w.pid)))
    workers

let fork_worker ctx others =
  let cmd_r, cmd_w = Unix.pipe () in
  let reply_r, reply_w = Unix.pipe () in
  let t0 = Unix.gettimeofday () in
  match Unix.fork () with
  | exception e ->
      List.iter Unix.close [ cmd_r; cmd_w; reply_r; reply_w ];
      raise e
  | 0 ->
      (* Held open here, an earlier worker's pipes would keep its EOF away. *)
      List.iter (fun w -> close_out_noerr w.cmd) others;
      List.iter (fun w -> close_in_noerr w.reply) others;
      Unix.close cmd_w;
      Unix.close reply_r;
      serve ctx cmd_r reply_w
  | pid ->
      let fork_wall_s = Unix.gettimeofday () -. t0 in
      ctx.st <- merge_stats ctx.st { zero_stats with forks = 1; fork_wall_s };
      Unix.close cmd_r;
      Unix.close reply_w;
      let cmd = Unix.out_channel_of_descr cmd_w and reply = Unix.in_channel_of_descr reply_r in
      { pid; cmd; reply; busy = false }

(* Feed idle workers from the queue until it is empty and every worker
   is idle again.  A job that finds no idle worker forks one, up to
   [width]; [workers] holds every worker forked so far. *)
let rec schedule ctx ~width workers =
  let rec feed () =
    let idle = List.find_opt (fun w -> not w.busy) !workers in
    if Option.is_some idle || List.length !workers < width then
      match pop ctx with
      | None -> ()
      | Some job ->
          let w =
            match idle with
            | Some w -> w
            | None ->
                let w = fork_worker ctx !workers in
                workers := w :: !workers;
                w
          in
          w.busy <- true;
          send w.cmd job;
          feed ()
  in
  feed ();
  match List.filter (fun w -> w.busy) !workers with
  | [] -> ()
  | busy ->
      let fd w = Unix.descr_of_in_channel w.reply in
      let ready, _, _ = retry (fun () -> Unix.select (List.map fd busy) [] [] (-1.0)) in
      List.iter
        (fun w ->
          if List.mem (fd w) ready then begin
            match (Marshal.from_channel w.reply : _ reply) with
            | Done (out, jobs, st) ->
                w.busy <- false;
                ctx.emitted <- List.rev_append out ctx.emitted;
                ctx.spawned <- jobs @ ctx.spawned;
                ctx.st <- merge_stats ctx.st st
            | Failed msg -> failwith msg
            | exception (End_of_file | Failure _) ->
                failwith "Prefix: a worker died without reporting"
          end)
        busy;
      schedule ctx ~width workers

(* [Par.map]'s bound on the pool width. *)
let max_jobs = 64

let run ~jobs ~fork ~measure ~prepare ~summarize tagged =
  let plan_of = Hashtbl.create 64 in
  List.iter (fun (i, p) -> Hashtbl.replace plan_of i (p, Plan.to_scenario p)) tagged;
  let walked, replayed =
    if fork then List.partition (fun (_, p) -> forkable p) tagged else ([], tagged)
  in
  let root = build plan_of walked in
  let spawned = List.map (fun (i, _) -> Replay i) replayed in
  let ctx = { plan_of; root; prepare; summarize; measure; emitted = []; spawned; st = zero_stats } in
  let guard f = try f () with e -> failwith (Printexc.to_string e) in
  let drain () = while ctx.spawned <> [] do Option.iter (run_job ctx) (pop ctx) done in
  (* The whole-trie job runs here: until it has spawned jobs, a worker
     would have nothing to do. *)
  if root.nd_children <> [] then guard (fun () -> run_job ctx (Walk (rep_index root, 0)));
  let jobs = min max_jobs jobs in
  if jobs <= 1 || Sys.win32 || ctx.spawned = [] then guard drain
  else begin
    let workers = ref [] in
    (try schedule ctx ~width:jobs workers
     with e ->
       stop ~kill:true !workers;
       raise (match e with Failure _ -> e | e -> Failure (Printexc.to_string e)));
    stop ~kill:false !workers
  end;
  (List.sort (fun (i, _) (j, _) -> Int.compare i j) ctx.emitted, ctx.st)
