(* Helpers take the state and the actions emitted so far, newest first,
   and return both; [step] reverses them. The emission order is pinned
   behaviour: it is the order of the adapter's traces, sends and
   launches. Per-rank state sits in a persistent map, and the ready,
   stopping and finished counts are kept in step with it, so an input
   costs O(log n) apart from the wave-wide start, recovery and finish. *)

module IM = Map.Make (Int)

type st = Launching | Registered | Ready | Computing | Stopping | Forgotten
type rank = { host : int; inc : int; st : st; finished : bool }

type input =
  | Boot | Hello of int * int | Ready of int * int | Rank_done of int * int
  | Ckpt_lost of int * int | Unexpected of int * int * Message.t | Closed of int * int
  | Spawn_died of int * int

type action =
  | Send of int * Message.t | Accept of int * int | Refuse
  | Launch of { rank : int; host : int; inc : int }
  | Trace of { level : Simkern.Trace.level; event : string; detail : string }
  | Completed | Aborted of string

(* [ranks] is filled at [Boot]. [steady]: from a [Start] to the next
   recovery. [spares] is a FIFO: a host given up goes to its back. *)
type t = {
  n : int; restarts_all : bool; buggy : bool; seeded_race : bool; initial : int array;
  ranks : rank IM.t; ready : int; stopping : int; finished : int; spares : int list;
  steady : bool; completed : bool; recoveries : int;
  confused : bool; race_lost : bool; ckpt_lost : bool;
}

let create ~n ~initial_hosts ~spare_limit ~restarts_all ~buggy ~seeded_race =
  let used = Array.make spare_limit false in
  Array.iter (fun h -> if h < spare_limit then used.(h) <- true) initial_hosts;
  { n; restarts_all; buggy; seeded_race; initial = initial_hosts; ranks = IM.empty;
    ready = 0; stopping = 0; finished = 0; ckpt_lost = false;
    spares = List.filter (fun h -> not used.(h)) (List.init spare_limit Fun.id);
    steady = false; completed = false; recoveries = 0; confused = false; race_lost = false }

let recoveries t = t.recoveries
let confused t = t.confused
let race_lost t = t.race_lost
let ckpt_lost t = t.ckpt_lost

let state_name = function
  | Launching -> "launching" | Registered -> "registered" | Ready -> "ready"
  | Computing -> "computing" | Stopping -> "stopping" | Forgotten -> "forgotten"

let trace ?(level = Simkern.Trace.Summary) out event fmt =
  Printf.ksprintf (fun detail -> Trace { level; event; detail } :: out) fmt

let get t r = IM.find r t.ranks

let set t r ri =
  let old = (get t r).st in
  let moved st = Bool.to_int (ri.st = st) - Bool.to_int (old = st) in
  { t with ranks = IM.add r ri t.ranks; ready = t.ready + moved Ready;
    stopping = t.stopping + moved Stopping }

let set_state t r st = set t r { (get t r) with st }

(* only a launching rank has no connection *)
let send_all t msg out =
  IM.fold (fun r ri out -> if ri.st = Launching then out else Send (r, msg) :: out) t.ranks out

let hosts t = Array.of_seq (Seq.map (fun (_, ri) -> ri.host) (IM.to_seq t.ranks))

let launch t r out =
  let ri = get t r in
  let inc = ri.inc + 1 in
  (set t r { ri with inc; st = Launching }, Launch { rank = r; host = ri.host; inc } :: out)

let relaunch t r out =
  let t, out =
    match t.spares with
    | [] -> (t, trace ~level:Full out "no-spare" "rank %d restarts in place" r)
    | spare :: rest ->
        let ri = get t r in
        ( set { t with spares = rest @ [ ri.host ] } r { ri with host = spare },
          trace ~level:Full out "reallocate" "rank %d: host %d -> %d" r ri.host spare )
  in
  launch t r out

let begin_recovery t ~failed out =
  let t = { t with recoveries = t.recoveries + 1; steady = false } in
  let out = trace out "recovery-start" "#%d triggered by rank %d" t.recoveries failed in
  let t, out =
    IM.fold
      (fun r ri (t, out) ->
        match ri.st with
        | (Computing | Ready | Registered) when r <> failed ->
            (set_state t r Stopping, Send (r, Message.Terminate) :: out)
        | _ -> (t, out))
      t.ranks (t, out)
  in
  relaunch t failed out

let maybe_start t out =
  if t.ready = t.n then
    let resume = t.recoveries > 0 in
    let out = send_all t (Message.Start { rank_hosts = hosts t; resume }) out in
    ( { t with ranks = IM.map (fun ri -> { ri with st = Computing }) t.ranks; ready = 0;
        steady = true },
      trace out (if resume then "recovery-complete" else "app-started") "" )
  else (t, out)

let finish t out = ({ t with completed = true }, send_all t Message.Shutdown out)

let closed t r ri out =
  match ri.st with
  | Stopping ->
      (* an old-wave daemon terminated as ordered: relaunch in place *)
      launch t r (trace ~level:Full out "old-wave-stopped" "rank %d" r)
  | Computing when t.steady ->
      let out = trace out "failure-detected" "rank %d" r in
      if t.restarts_all then begin_recovery t ~failed:r out
      else relaunch { t with recoveries = t.recoveries + 1 } r out
  | (Registered | Ready | Computing) when t.buggy && t.stopping > 0 ->
      (* §5.3: the closure is counted as an old-wave termination, so the
         rank is never relaunched and the application freezes *)
      ( set_state { t with confused = true } r Forgotten,
        trace out "dispatcher-confused" "rank %d lost while %d old-wave daemons still stopping" r
          t.stopping )
  | (Registered | Ready | Computing) when t.seeded_race && t.recoveries > 0 && not t.steady ->
      ( set_state { t with race_lost = true } r Forgotten,
        trace out "dispatcher-race" "rank %d (%s) lost mid-recovery, wave #%d" r
          (state_name ri.st) t.recoveries )
  | Registered | Ready | Computing ->
      relaunch t r (trace ~level:Full out "new-wave-failure" "rank %d (handled)" r)
  | Launching | Forgotten ->
      (t, trace ~level:Full out "closure-ignored" "rank %d in state %s" r (state_name ri.st))

let current t r inc = (not t.completed) && inc = (get t r).inc

let input t = function
  | Boot ->
      let rank r = { host = t.initial.(r); inc = 0; st = Launching; finished = false } in
      let t = { t with ranks = IM.of_seq (Seq.init t.n (fun r -> (r, rank r))) } in
      (t, IM.fold (fun rank { host; _ } out -> Launch { rank; host; inc = 0 } :: out) t.ranks [])
  | Hello (r, inc) ->
      if current t r inc && (get t r).st = Launching then
        (set_state t r Registered, [ Accept (r, inc) ])
      else (t, [ Refuse ])
  | Ready (r, inc) when current t r inc && (get t r).st = Registered ->
      if t.steady && not t.restarts_all then
        (* sender logging: only the restarted rank resumes *)
        let out = [ Send (r, Message.Start { rank_hosts = hosts t; resume = true }) ] in
        (set_state t r Computing, trace out "rank-resumed" "rank %d" r)
      else maybe_start (set_state t r Ready) []
  | Rank_done (r, inc) when current t r inc ->
      let ri = get t r in
      let t =
        if ri.finished then t
        else set { t with finished = t.finished + 1 } r { ri with finished = true }
      in
      if t.finished = t.n then
        let t, out = finish t [] in
        (t, Completed :: trace out "app-completed" "")
      else (t, [])
  | Ckpt_lost (r, inc) when current t r inc ->
      (* relaunching would loop: a lost checkpoint ends the run *)
      let out = trace [] "ckpt-lost" "rank %d: no complete checkpoint image survives" r in
      let t, out = finish (set_state { t with ckpt_lost = true } r Forgotten) out in
      (t, Aborted "checkpoint storage lost" :: out)
  | Unexpected (r, inc, msg) when current t r inc ->
      (t, trace [] "protocol-error" "%s" (Format.asprintf "from rank %d: %a" r Message.pp msg))
  | Closed (r, inc) when current t r inc -> closed t r (get t r) []
  | Spawn_died (r, inc) when current t r inc && (get t r).st = Launching ->
      (* the daemon died before its hello: retry. In steady state this
         is a sender-logging restart, which keeps the others computing. *)
      let out = trace ~level:Full [] "spawn-failed" "rank %d inc %d, retrying" r inc in
      relaunch t r (if t.steady then trace out "anomaly" "spawn death in steady state" else out)
  | Ready _ | Rank_done _ | Ckpt_lost _ | Unexpected _ | Closed _ | Spawn_died _ -> (t, [])

let step t i =
  let t, out = input t i in
  (t, List.rev out)
