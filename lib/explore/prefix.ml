(* Prefix-sharing fork scheduler.

   Plans whose faults are all [After]-anchored form a trie keyed by the
   full fault tuple: every plan is a path from the root, and two plans
   sharing their first k faults share their first k trie edges — and
   therefore their entire simulation prefix, because a generated
   scenario's PLAN daemon is a pure timer chain (fault k+1's timer arms
   when fault k fires) and nothing before a fault's own timer depends on
   anything downstream of it.

   One OS process walks the trie.  At each node it advances the
   simulation to a breakpoint just before the pending scenario timer
   fires ([Run.advance ~stop_before]), then [Unix.fork]s once per
   sibling branch: the child inherits the paused simulation through the
   kernel's copy-on-write heap — no state is serialized — re-aims the
   timer at its branch's delay ([Runtime.retime_timer], preserving the
   engine sequence number so same-instant ties break exactly as a
   from-scratch run's would), re-points the daemons at its branch's
   automaton ([Runtime.swap_plan]), and recurses.  Leaves run to the
   terminal stop and classify with the ordinary [Run.resume_from].

   Results ride home as marshaled [(plan index, summary)] pairs over a
   pipe per child; the root reassembles them by index, so reports are
   byte-identical to replaying every plan from t = 0, at any [~jobs].

   Concurrency is throttled by a token pipe holding [jobs] bytes: every
   process that is actively simulating holds exactly one token, acquired
   as a child's first act and released before it blocks on collecting
   its own children or writing its payload.  Token holders always make
   progress, so the scheme cannot deadlock, and at most [jobs]
   simulations burn CPU at once no matter how bushy the trie is. *)

module Run = Failmpi.Run
module Runtime = Fci.Runtime
module Engine = Simkern.Engine

type stats = {
  forks : int;  (* processes forked (total runs = forks + 1) *)
  pauses : int;  (* breakpoints taken (prefix states shared onward) *)
  fork_wall_s : float;  (* parent-side wall clock spent inside fork() *)
  snapshot_events_max : int;  (* measured only under [~measure:true] *)
  snapshot_words_max : int;
}

let zero_stats =
  {
    forks = 0;
    pauses = 0;
    fork_wall_s = 0.0;
    snapshot_events_max = 0;
    snapshot_words_max = 0;
  }

let merge_stats a b =
  {
    forks = a.forks + b.forks;
    pauses = a.pauses + b.pauses;
    fork_wall_s = a.fork_wall_s +. b.fork_wall_s;
    snapshot_events_max = max a.snapshot_events_max b.snapshot_events_max;
    snapshot_words_max = max a.snapshot_words_max b.snapshot_words_max;
  }

let supported = not Sys.win32

(* Reload-anchored faults wait on registration counts, not timers —
   there is no pending timer to pause before, so those plans replay
   from scratch instead. *)
let forkable (p : Plan.t) =
  p.Plan.faults <> []
  && List.for_all
       (fun (f : Plan.fault) ->
         match f.Plan.anchor with Plan.After _ -> true | Plan.On_reload _ -> false)
       p.Plan.faults

(* ---- fault-tuple trie --------------------------------------------- *)

type node = {
  nd_fault : Plan.fault;
  mutable nd_leaves : int list;  (* plan indices ending here, input order *)
  mutable nd_children : node list;  (* input order *)
}

let build tagged =
  let root =
    {
      nd_fault = { Plan.machine = 0; anchor = Plan.After 0; kind = Plan.Kill };
      nd_leaves = [];
      nd_children = [];
    }
  in
  List.iter
    (fun (idx, (p : Plan.t)) ->
      let rec insert nd = function
        | [] -> assert false
        | f :: rest ->
            let child =
              match List.find_opt (fun c -> c.nd_fault = f) nd.nd_children with
              | Some c -> c
              | None ->
                  let c = { nd_fault = f; nd_leaves = []; nd_children = [] } in
                  nd.nd_children <- nd.nd_children @ [ c ];
                  c
            in
            if rest = [] then child.nd_leaves <- child.nd_leaves @ [ idx ]
            else insert child rest
      in
      insert root p.Plan.faults)
    tagged;
  root.nd_children

(* The branch representative: the plan whose automaton is installed
   while a subtree's shared prefix executes.  Any plan under the branch
   works — everything that runs before the branch's own fault fires
   depends only on the shared prefix — so the first-inserted descendant
   is used for determinism. *)
let rec rep_index nd =
  match nd.nd_children with c :: _ -> rep_index c | [] -> List.hd nd.nd_leaves

let rec all_indices nd =
  nd.nd_leaves @ List.concat_map all_indices nd.nd_children

let delay_of nd =
  match nd.nd_fault.Plan.anchor with
  | Plan.After d -> d
  | Plan.On_reload _ -> assert false (* filtered by [forkable] *)

let group_by_delay children =
  let delays = List.sort_uniq Int.compare (List.map delay_of children) in
  List.map (fun d -> (d, List.filter (fun c -> delay_of c = d) children)) delays

(* ---- process plumbing --------------------------------------------- *)

let rec retry f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

let write_byte fd =
  let rec go () = if retry (fun () -> Unix.write_substring fd "t" 0 1) = 0 then go () in
  go ()

let read_byte fd =
  let b = Bytes.create 1 in
  if retry (fun () -> Unix.read fd b 0 1) = 0 then
    failwith "Prefix: token pipe closed"

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + retry (fun () -> Unix.write fd b off (len - off)))
  in
  go 0

type 'a payload = P_ok of (int * 'a) list * stats | P_err of string

type 'a ctx = {
  plan_of : (int, Plan.t) Hashtbl.t;
  summarize : Plan.t -> Run.result -> 'a;
  measure : bool;
  sem_r : Unix.file_descr;
  sem_w : Unix.file_descr;
  mutable children : (int * Unix.file_descr) list;  (* (pid, read end), reverse fork order *)
  mutable emitted : (int * 'a) list;
  mutable st : stats;
  mutable failed : string option;
}

let acquire ctx = read_byte ctx.sem_r
let release ctx = write_byte ctx.sem_w
let emit ctx i rc = ctx.emitted <- (i, rc) :: ctx.emitted

let fail ctx msg = if ctx.failed = None then ctx.failed <- Some msg

(* Drain every forked child: payloads merge into [ctx.emitted]/[ctx.st],
   the first error (or silent death) is kept.  Always reaps, so no
   zombies survive an error path.  Payloads are read through a channel,
   whose buffer lives outside the OCaml heap: a fresh 64 KiB read chunk
   per child was garbage that set the main process's peak heap. *)
let collect ctx =
  List.iter
    (fun (pid, fd) ->
      let ic = Unix.in_channel_of_descr fd in
      let payload = try Some (Marshal.from_channel ic : _ payload) with End_of_file -> None in
      close_in ic;
      ignore (retry (fun () -> Unix.waitpid [] pid));
      match payload with
      | None -> fail ctx "Prefix: forked child died without reporting"
      | Some (P_ok (results, st)) ->
          ctx.emitted <- results @ ctx.emitted;
          ctx.st <- merge_stats ctx.st st
      | Some (P_err msg) -> fail ctx msg)
    (List.rev ctx.children);
  ctx.children <- []

(* Simulation over: give the token back, gather the children, report. *)
let finish_process ctx =
  release ctx;
  collect ctx;
  match ctx.failed with
  | Some msg -> P_err msg
  | None -> P_ok (ctx.emitted, ctx.st)

let send_payload fd p =
  write_all fd (Marshal.to_bytes p []);
  Unix.close fd

(* Fork one branch runner.  The child sheds the parent's bookkeeping
   (its siblings' pipes belong to the parent), waits for a token, runs
   [body] on the copy-on-write image of the paused simulation, and
   ships its results up its own pipe. *)
let fork_child ctx body =
  let r, w = retry (fun () -> Unix.pipe ()) in
  let t0 = Unix.gettimeofday () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      List.iter (fun (_, fd) -> Unix.close fd) ctx.children;
      ctx.children <- [];
      ctx.emitted <- [];
      ctx.st <- zero_stats;
      ctx.failed <- None;
      acquire ctx;
      (try body () with e -> fail ctx (Printexc.to_string e));
      let payload = finish_process ctx in
      (try send_payload w payload with _ -> ());
      Unix._exit 0
  | pid ->
      ctx.st <-
        {
          ctx.st with
          forks = ctx.st.forks + 1;
          fork_wall_s = ctx.st.fork_wall_s +. (Unix.gettimeofday () -. t0);
        };
      Unix.close w;
      ctx.children <- (pid, r) :: ctx.children

(* ---- the walk ----------------------------------------------------- *)

let compile_plan (p : Plan.t) =
  match Fail_lang.Compile.compile_source ~params:[] (Plan.to_scenario p) with
  | Ok cp -> cp
  | Error msg -> failwith ("Prefix: plan failed to recompile: " ^ msg)

let fci_of cp =
  match Run.checkpoint_fci cp with
  | Some rt -> rt
  | None -> assert false (* every searched plan carries a scenario *)

let swap_to cp plan = Runtime.swap_plan (fci_of cp) (compile_plan plan)

let rep_plan ctx nd = Hashtbl.find ctx.plan_of (rep_index nd)

(* Classify once, record for every plan that shares the terminal state
   (identical leaves, or branches whose fault the run never reached). *)
let finish ctx cp idxs =
  let r = Run.resume_from cp in
  List.iter (fun i -> emit ctx i (ctx.summarize (Hashtbl.find ctx.plan_of i) r)) idxs

let note_pause ctx cp =
  ctx.st <- { ctx.st with pauses = ctx.st.pauses + 1 };
  if ctx.measure then begin
    let s = Engine.snapshot (Run.checkpoint_engine cp) in
    ctx.st <-
      {
        ctx.st with
        snapshot_events_max = max ctx.st.snapshot_events_max (Engine.snapshot_events s);
        snapshot_words_max = max ctx.st.snapshot_words_max (Engine.snapshot_words s);
      }
  end

(* Precondition: the simulation is paused just before [nd]'s fault
   timer fires and the installed plan is [rep_plan ctx nd]. *)
let rec at_pause ctx cp nd =
  match nd.nd_children with
  | [] ->
      (* Terminal fault of the representative itself. *)
      Run.step cp;
      finish ctx cp nd.nd_leaves
  | children ->
      (* Plans that END on this fault diverge from the continuing ones
         at this very step (their automaton goes to [done]), so they
         fork before the fault fires. *)
      (match nd.nd_leaves with
      | [] -> ()
      | leaves ->
          let leaf_plan = Hashtbl.find ctx.plan_of (List.hd leaves) in
          fork_child ctx (fun () ->
              swap_to cp leaf_plan;
              Run.step cp;
              finish ctx cp leaves));
      Run.step cp;
      drive ctx cp ~t_base:(Engine.now (Run.checkpoint_engine cp)) children

(* Precondition: [nd]'s fault just fired at [t_base] and the scenario
   timer for the next fault is armed.  Children are visited in delay
   order: the shared prefix keeps executing in this process, pausing at
   each distinct next-fault time and forking that delay group's
   branches off the paused image; the last branch continues inline. *)
and drive ctx cp ~t_base children =
  let branch b () =
    swap_to cp (rep_plan ctx b);
    at_pause ctx cp b
  in
  let rec go = function
    | [] -> ()
    | (d, branches) :: rest ->
        let tm =
          Runtime.retime_timer (fci_of cp) ~instance:"P1"
            ~time:(t_base +. float_of_int d)
        in
        (match Run.advance cp ~stop_before:tm with
        | `Paused ->
            note_pause ctx cp;
            if rest = [] then begin
              let rec fire = function
                | [] -> assert false
                | [ b ] -> branch b ()
                | b :: more ->
                    fork_child ctx (branch b);
                    fire more
              in
              fire branches
            end
            else begin
              List.iter (fun b -> fork_child ctx (branch b)) branches;
              go rest
            end
        | `Finished ->
            (* Terminal stop before the earliest remaining fault time:
               every plan still hanging off this prefix would have seen
               the identical run — classify once, record for all. *)
            let remaining = branches @ List.concat_map snd rest in
            finish ctx cp (List.concat_map all_indices remaining))
  in
  go (group_by_delay children)

let run ~jobs ~measure ~prepare ~summarize tagged =
  let plan_of = Hashtbl.create 64 in
  List.iter (fun (i, p) -> Hashtbl.replace plan_of i p) tagged;
  match build tagged with
  | [] -> ([], zero_stats)
  | first :: _ as roots ->
      let sem_r, sem_w = Unix.pipe () in
      for _ = 1 to max 1 jobs do
        write_byte sem_w
      done;
      let ctx =
        {
          plan_of;
          summarize;
          measure;
          sem_r;
          sem_w;
          children = [];
          emitted = [];
          st = zero_stats;
          failed = None;
        }
      in
      let cp = prepare (Hashtbl.find plan_of (rep_index first)) in
      acquire ctx;
      (try drive ctx cp ~t_base:0.0 roots
       with e -> fail ctx (Printexc.to_string e));
      let payload = finish_process ctx in
      Unix.close sem_r;
      Unix.close sem_w;
      (match payload with
      | P_err msg -> failwith msg
      | P_ok (results, st) -> (results, st))
