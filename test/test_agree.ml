(* Tests for Mpiulfm.Agree, the survivor agreement as a pure state
   machine, driven with no engine:

   - step: one input sequence per case (a sole survivor, a lost quorum,
     a rejected ballot, the ballot budget, stale timer tokens, one
     Stale and one Probe per peer and epoch);
   - checker: every run of 3 and of 4 daemons over a model network,
     breadth first to a fixed depth with a visited-state set. A run
     interleaves deliveries (FIFO per link), timer firings at any time,
     a crash at any point, messages lost to it, spurious suspicions and
     heartbeats from a peer at a later epoch; crashes and suspicions
     share a fault budget, and runs that would start more ballots than
     a ballot budget are cut. Every transition is checked for agreement
     (no two installs of one epoch differ in members, assignment or
     restart), validity (a decided membership is a subset of the
     superseded epoch's members, and its ballot's [Accept]s carried
     it), quorum (the deciding ballot collected grants and accepts from
     a quorum of the superseded members) and bounded notices (at most
     one [Stale] and one [Probe] per ordered pair of daemons and
     sender's epoch). Mc runs the search; a violation fails the case
     with the shortest run that reaches it. *)

module A = Mpiulfm.Agree
module S = Mpiulfm.Shrinkc
module U = Mpiulfm.Umsg

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let view ?(torn = false) suspects = { A.torn; suspects; avail = lazy [] }

(* a started daemon [id] of [n], all members *)
let daemon ~n id = fst (A.step (A.create ~id ~population:n ~n_ranks:n) (A.Start (List.init n Fun.id)))

let armed actions = List.find_map (function A.Arm (d, tm) -> Some (d, tm) | _ -> None) actions

let fire t (_, tm) = A.step t (A.Timeout (view ~torn:true [], tm))

let traces event actions =
  List.filter_map
    (function A.Trace { event = e; detail; _ } when e = event -> Some detail | _ -> None)
    actions

let sends actions = List.filter_map (function A.Send (p, m) -> Some (p, m) | _ -> None) actions

(* ------------------------------------------------------------------ *)
(* step: one input sequence each *)

let test_sole_survivor () =
  (* epoch 1 left daemon 0 alone; a torn link makes it decide epoch 2
     on the timer that follows, in that one step, sending nothing *)
  let prev_assign = [ (0, 0); (1, 1); (2, 2) ] in
  let d1 = S.next ~n_ranks:3 ~prev_assign ~members:[ 0 ] ~avail:[] ~epoch:1 in
  let t, _ = A.step (daemon ~n:3 0) (A.Message (view [], 1, U.Decide { decision = d1 })) in
  check_int "installed epoch 1" 1 (A.epoch t);
  let t, acts = A.step t (A.Torn (view ~torn:true [])) in
  let t, acts = fire t (Option.get (armed acts)) in
  (match List.filter_map (function A.Install { decision; _ } -> Some decision | _ -> None) acts with
  | [ d ] ->
      check_int "epoch 2" 2 d.S.d_epoch;
      check (Alcotest.list Alcotest.int) "members" [ 0 ] d.S.d_members
  | l -> Alcotest.failf "expected one install, got %d" (List.length l));
  check_int "nothing sent" 0 (List.length (sends acts));
  check_int "agreement at epoch 2" 2 (A.epoch t)

let test_quorum_lost () =
  (* 5 members, 2 reachable: phase 1 completes below the quorum of 3 *)
  let t, acts = A.step (daemon ~n:5 0) (A.Check (view [ 2; 3; 4 ])) in
  let t, acts' = A.step t (A.Timeout (view [ 2; 3; 4 ], snd (Option.get (armed acts)))) in
  let b =
    match sends acts' with
    | [ (1, U.Prepare { ballot; _ }) ] -> ballot
    | _ -> Alcotest.fail "expected one Prepare to daemon 1"
  in
  let grant = U.Grant { id = 1; ballot = b; epoch = 0; accepted = None; avail = [] } in
  let _, acts'' = A.step t (A.Message (view [ 2; 3; 4 ], 1, grant)) in
  check (Alcotest.list Alcotest.string) "quorum-lost trace"
    [ "only 2 of 5 members reachable (quorum 3)" ] (traces "quorum-lost" acts'');
  (match armed acts'' with
  | Some (delay, A.Propose _) -> check (Alcotest.float 0.0) "retry delay" A.agree_timeout delay
  | _ -> Alcotest.fail "expected a retry timer");
  check_bool "no Accept sent" false
    (List.exists
       (function _, U.Accept _ -> true | _ -> false)
       (sends (acts @ acts' @ acts'')))

let test_reject_raises_ballot () =
  let t, acts = A.step (daemon ~n:3 0) (A.Torn (view ~torn:true [])) in
  let t, acts = fire t (Option.get (armed acts)) in
  let first = match sends acts with (_, U.Prepare { ballot; _ }) :: _ -> ballot | _ -> -1 in
  let promised = S.ballot ~population:3 ~attempt:7 ~id:2 in
  let t, acts = A.step t (A.Message (view [], 1, U.Reject { id = 1; ballot = first; promised })) in
  let _, acts = fire t (Option.get (armed acts)) in
  match sends acts with
  | (_, U.Prepare { ballot; _ }) :: _ ->
      check_bool (Printf.sprintf "ballot %d above promise %d" ballot promised) true (ballot > promised)
  | _ -> Alcotest.fail "expected a new Prepare"

let test_ballot_budget () =
  (* every ballot times out unanswered; the one after the 25th aborts *)
  let rec go t acts k =
    let t, acts = fire t (Option.get (armed acts)) in
    match List.find_map (function A.Abort r -> Some r | _ -> None) acts with
    | Some reason -> (k, reason)
    | None ->
        let t, acts = fire t (Option.get (armed acts)) in
        go t acts (k + 1)
  in
  let t, acts = A.step (daemon ~n:3 0) (A.Torn (view ~torn:true [])) in
  let started, reason = go t acts 0 in
  check_int "ballots started" A.max_ballots started;
  check Alcotest.string "reason" "agreement exhausted after 25 ballots at epoch 0" reason

let test_stale_timer () =
  let t, acts = A.step (daemon ~n:3 0) (A.Torn (view ~torn:true [])) in
  let t, acts = fire t (Option.get (armed acts)) in
  let tok = match armed acts with Some (_, A.Ballot k) -> k | _ -> Alcotest.fail "no ballot timer" in
  let t, stale_ballot = A.step t (A.Timeout (view ~torn:true [], A.Ballot (tok - 1))) in
  let t, stale_propose = A.step t (A.Timeout (view ~torn:true [], A.Propose 0)) in
  check_int "stale timers act on nothing" 0 (List.length (stale_ballot @ stale_propose));
  let _, acts = A.step t (A.Timeout (view ~torn:true [], A.Ballot tok)) in
  check_int "the live timer still fires" 1 (List.length (traces "ballot-timeout" acts))

let test_stale_once () =
  (* daemon 1 was left out of epoch 1 and keeps talking: one Stale per
     decided epoch, not one per message *)
  let decide e members =
    S.next ~n_ranks:3 ~prev_assign:[ (0, 0); (1, 1); (2, 2) ] ~members ~avail:[] ~epoch:e
  in
  let stales t =
    List.fold_left
      (fun (t, k) _ ->
        let t, acts = A.step t (A.Outsider 1) in
        (t, k + List.length (List.filter (function 1, U.Stale _ -> true | _ -> false) (sends acts))))
      (t, 0) (List.init 20 Fun.id)
  in
  let t, _ = A.step (daemon ~n:3 0) (A.Message (view [], 2, U.Decide { decision = decide 1 [ 0; 2 ] })) in
  let t, k = stales t in
  check_int "one Stale for 20 messages at epoch 1" 1 k;
  let t, _ = A.step t (A.Message (view [], 2, U.Decide { decision = decide 2 [ 0; 2 ] })) in
  check_int "one more at epoch 2" 1 (snd (stales t))

let test_probe_once () =
  (* daemon 1 is ahead and heartbeats: one Probe per epoch, not one per
     heartbeat *)
  let probes t epoch =
    List.fold_left
      (fun (t, k) _ ->
        let t, acts = A.step t (A.Heartbeat (1, epoch)) in
        (t, k + List.length (List.filter (function 1, U.Probe _ -> true | _ -> false) (sends acts))))
      (t, 0) (List.init 20 Fun.id)
  in
  let t, k = probes (daemon ~n:3 0) 1 in
  check_int "one Probe for 20 heartbeats at epoch 0" 1 k;
  let d1 = S.next ~n_ranks:3 ~prev_assign:[ (0, 0); (1, 1); (2, 2) ] ~members:[ 0; 1; 2 ] ~avail:[] ~epoch:1 in
  let t, _ = A.step t (A.Message (view [], 1, U.Stale { decision = d1 })) in
  check_int "none once caught up" 0 (snd (probes t 1));
  check_int "one more at epoch 1" 1 (snd (probes t 2))

(* ------------------------------------------------------------------ *)
(* The model checker *)

type node = {
  ag : A.t;
  up : bool; (* not crashed, fenced or aborted *)
  suspects : int list; (* sorted *)
  timers : A.timer list; (* armed and not yet fired, sorted *)
}

(* Everything a run has reached. Lists are kept sorted, so equal
   states marshal to equal strings. [votes] are the (ballot, phase,
   voter) grants (1) and accepts (2) delivered to the ballot's proposer;
   [proposals] the decision each ballot's [Accept]s carried; [decided]
   the first install of each epoch; [notices] the (kind, sender,
   receiver, sender's epoch) of every [Stale] (0) and [Probe] (1) sent. *)
type sys = {
  nodes : node array;
  links : ((int * int) * U.t list) list; (* non-empty FIFO queues *)
  crashes : int;
  faults : int;
  ballots : int;
  votes : (int * int * int) list;
  proposals : (int * S.decision) list;
  decided : (int * S.decision) list;
  notices : (int * int * int * int) list;
}

exception Violation = Mc.Violation

(* a transition that would start more ballots than the bound allows *)
exception Pruned = Mc.Pruned

let rec set k v = function
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | ((k', _) as e) :: rest when k' < k -> e :: set k v rest
  | l -> (k, v) :: l

(* the head of link [l] and the links without it *)
let pop links l =
  match List.assoc l links with
  | [ m ] -> (m, List.remove_assoc l links)
  | m :: rest -> (m, set l rest links)
  | [] -> assert false

let enqueue links src dst m =
  let q = Option.value ~default:[] (List.assoc_opt (src, dst) links) in
  set (src, dst) (q @ [ m ]) links

let sorted_add x l = List.sort_uniq compare (x :: l)
let members_str ms = String.concat "," (List.map string_of_int ms)

(* members of the epoch [e] supersedes *)
let superseded n sys e =
  if e = 1 then List.init n Fun.id
  else
    match List.assoc_opt (e - 1) sys.decided with
    | Some d -> d.S.d_members
    | None -> raise (Violation (Printf.sprintf "epoch %d decided before epoch %d" e (e - 1)))

let check_decide n sys ~decider ~ballot (d : S.decision) =
  let prev = superseded n sys d.S.d_epoch in
  (match List.assoc_opt ballot sys.proposals with
  | Some p when p <> d ->
      raise (Violation (Printf.sprintf "ballot %d decided what it did not propose" ballot))
  | _ -> ());
  let collected phase =
    List.filter
      (fun q -> q = decider || List.mem (ballot, phase, q) sys.votes)
      prev
  in
  List.iter
    (fun (phase, what) ->
      let got = collected phase in
      if List.length got < S.quorum prev then
        raise
          (Violation
             (Printf.sprintf
                "quorum: ballot %d decided epoch %d [%s] with %s from [%s] of [%s] (quorum %d)"
                ballot d.S.d_epoch (members_str d.S.d_members) what (members_str got)
                (members_str prev) (S.quorum prev))))
    [ (1, "grants"); (2, "accepts") ]

let check_install n sys (d : S.decision) =
  let prev = superseded n sys d.S.d_epoch in
  if not (List.for_all (fun p -> List.mem p prev) d.S.d_members) then
    raise
      (Violation
         (Printf.sprintf "validity: epoch %d members [%s] not within [%s]" d.S.d_epoch
            (members_str d.S.d_members) (members_str prev)));
  match List.assoc_opt d.S.d_epoch sys.decided with
  | Some d0 ->
      if (d0.S.d_members, d0.S.d_assign, d0.S.d_restart) <> (d.S.d_members, d.S.d_assign, d.S.d_restart)
      then
        raise
          (Violation
             (Printf.sprintf "agreement: epoch %d installed as [%s] and as [%s]" d.S.d_epoch
                (members_str d0.S.d_members) (members_str d.S.d_members)))
      else sys
  | None -> { sys with decided = set d.S.d_epoch d sys.decided }

let down sys i =
  let nodes = Array.copy sys.nodes in
  nodes.(i) <- { (nodes.(i)) with up = false; timers = [] };
  { sys with nodes; links = List.filter (fun ((_, dst), _) -> dst <> i) sys.links }

(* Feed [input] to daemon [i] and perform its actions as Udaemon does.
   [decides] counts the decisions reached over the whole search. *)
let decides = ref 0

let run ~max_ballots n sys i input =
  let nd = sys.nodes.(i) in
  let ag, actions = A.step nd.ag input in
  let nodes = Array.copy sys.nodes in
  nodes.(i) <- { nd with ag };
  let sys = ref { sys with nodes } in
  let node () = !sys.nodes.(i) in
  let set_node nd' =
    let nodes = Array.copy !sys.nodes in
    nodes.(i) <- nd';
    sys := { !sys with nodes }
  in
  let deciding = ref None in
  let send p m =
    if !sys.nodes.(p).up then sys := { !sys with links = enqueue !sys.links i p m }
  in
  let notice kind p e =
    if List.mem (kind, i, p, e) !sys.notices then
      raise
        (Violation
           (Printf.sprintf "%d sent %d a second %s at epoch %d" i p
              (if kind = 0 then "Stale" else "Probe") e));
    sys := { !sys with notices = sorted_add (kind, i, p, e) !sys.notices }
  in
  List.iter
    (function
      | A.Send (p, m) ->
          (match m with
          | U.Accept { ballot; decision; _ } ->
              (match List.assoc_opt ballot !sys.proposals with
              | Some d when d <> decision ->
                  raise (Violation (Printf.sprintf "ballot %d proposed two decisions" ballot))
              | Some _ -> ()
              | None -> sys := { !sys with proposals = set ballot decision !sys.proposals })
          | U.Stale { decision } -> notice 0 p decision.S.d_epoch
          | U.Probe { epoch; _ } -> notice 1 p epoch
          | _ -> ());
          send p m
      | A.Broadcast m ->
          (match (m, !deciding) with
          | U.Decide { decision }, Some ballot ->
              incr decides;
              check_decide n !sys ~decider:i ~ballot decision
          | _ -> ());
          for p = 0 to n - 1 do
            if p <> i then send p m
          done
      | A.Arm (_, tm) -> set_node { (node ()) with timers = sorted_add tm (node ()).timers }
      | A.Suspect p -> set_node { (node ()) with suspects = sorted_add p (node ()).suspects }
      | A.Install { decision; _ } ->
          sys := check_install n !sys decision;
          set_node { (node ()) with suspects = [] };
          (* outside the members: fenced *)
          if not (List.mem i decision.S.d_members) then sys := down !sys i
      | A.Abort _ -> sys := down !sys i
      | A.Trace { event = "ballot"; _ } ->
          if !sys.ballots >= max_ballots then raise Pruned;
          sys := { !sys with ballots = !sys.ballots + 1 }
      | A.Trace { event = "decide"; detail; _ } ->
          deciding := Some (Scanf.sscanf detail "b%d" Fun.id)
      | A.Trace _ -> ())
    actions;
  !sys

let view_of nd =
  let suspects = List.filter (fun p -> List.mem p nd.suspects) (A.members nd.ag) in
  { A.torn = false; suspects; avail = lazy [] }

let msg_str m = Format.asprintf "%a" U.pp m

let with_node sys i f =
  let nodes = Array.copy sys.nodes in
  nodes.(i) <- f nodes.(i);
  { sys with nodes }

(* A transition, named the same in every state that enables it. *)
type tr =
  | Deliver of int * int (* the head of link src -> dst *)
  | Lose of int * int (* the head of a link from a stopped daemon *)
  | Fire of int * A.timer
  | Crash of int
  | Suspects of int * int
  | Beat of int * int (* a heartbeat from a peer ahead: (peer, reader) *)

let label = function
  | Deliver (s, d), sys -> Printf.sprintf "%d delivers %s to %d" s (msg_str (fst (pop sys.links (s, d)))) d
  | Lose (s, d), sys ->
      Printf.sprintf "%s from stopped %d to %d is lost" (msg_str (fst (pop sys.links (s, d)))) s d
  | Fire (i, A.Propose k), _ -> Printf.sprintf "propose timer %d of %d fires" k i
  | Fire (i, A.Ballot k), _ -> Printf.sprintf "ballot timer %d of %d fires" k i
  | Crash i, _ -> Printf.sprintf "%d crashes" i
  | Suspects (i, p), _ -> Printf.sprintf "%d suspects %d" i p
  | Beat (p, i), sys -> Printf.sprintf "%d reads a heartbeat of %d at epoch %d" i p (A.epoch sys.nodes.(p).ag)

(* Every transition [sys] enables. A crash or a suspicion spends one of
   [max_faults]; at most one daemon crashes. *)
let enabled ~max_faults sys =
  let out = ref [] in
  let up i = sys.nodes.(i).up in
  List.iter
    (fun ((s, d), _) ->
      if up d then out := Deliver (s, d) :: !out;
      if not (up s) then out := Lose (s, d) :: !out)
    sys.links;
  Array.iteri
    (fun i nd ->
      if nd.up then begin
        List.iter (fun tm -> out := Fire (i, tm) :: !out) nd.timers;
        Array.iteri
          (fun p np -> if np.up && A.epoch np.ag > A.epoch nd.ag then out := Beat (p, i) :: !out)
          sys.nodes;
        if sys.faults < max_faults then begin
          if sys.crashes < 1 then out := Crash i :: !out;
          List.iter
            (fun p -> if p <> i && not (List.mem p nd.suspects) then out := Suspects (i, p) :: !out)
            (A.members nd.ag)
        end
      end)
    sys.nodes;
  List.rev !out

(* as Udaemon does: a non-member's message first asks for Stale *)
let outsider ~max_ballots n sys src dst =
  let ag = sys.nodes.(dst).ag in
  if A.started ag && not (List.mem src (A.members ag)) then
    run ~max_ballots n sys dst (A.Outsider src)
  else sys

let apply ~max_ballots n sys = function
  | Deliver (src, dst) ->
      let m, links = pop sys.links (src, dst) in
      let vote phase id ballot = sorted_add (ballot, phase, id) sys.votes in
      let votes =
        match m with
        | U.Grant { id; ballot; _ } when ballot mod n = dst -> vote 1 id ballot
        | U.Accepted { id; ballot; _ } when ballot mod n = dst -> vote 2 id ballot
        | _ -> sys.votes
      in
      let sys = { sys with links; votes } in
      let sys = outsider ~max_ballots n sys src dst in
      let nd = sys.nodes.(dst) in
      if nd.up then run ~max_ballots n sys dst (A.Message (view_of nd, src, m)) else sys
  | Lose (src, dst) -> { sys with links = snd (pop sys.links (src, dst)) }
  | Fire (i, tm) ->
      let sys = with_node sys i (fun nd -> { nd with timers = List.filter (( <> ) tm) nd.timers }) in
      run ~max_ballots n sys i (A.Timeout (view_of sys.nodes.(i), tm))
  | Crash i -> { (down sys i) with crashes = sys.crashes + 1; faults = sys.faults + 1 }
  | Suspects (i, p) ->
      let sys = with_node sys i (fun nd -> { nd with suspects = sorted_add p nd.suspects }) in
      run ~max_ballots n { sys with faults = sys.faults + 1 } i (A.Check (view_of sys.nodes.(i)))
  | Beat (p, i) ->
      let sys = outsider ~max_ballots n sys p i in
      if sys.nodes.(i).up then run ~max_ballots n sys i (A.Heartbeat (p, A.epoch sys.nodes.(p).ag))
      else sys

let initial n =
  let node i = { ag = daemon ~n i; up = true; suspects = []; timers = [] } in
  { nodes = Array.init n node; links = []; crashes = 0; faults = 0; ballots = 0; votes = [];
    proposals = []; decided = []; notices = [] }

let key sys = Digest.string (Marshal.to_string sys [ Marshal.No_sharing ])

let explore ~n ~depth ~max_faults ~max_ballots =
  decides := 0;
  let module C = Mc.Make (struct
    type state = sys
    type transition = tr

    let enabled = enabled ~max_faults
    let apply = apply ~max_ballots n
    let label t sys = label (t, sys)
    let key = key
  end) in
  C.explore ~depth (initial n)

let summary = ref []

let checker ~n ~depth ~max_faults ~max_ballots () =
  let r = explore ~n ~depth ~max_faults ~max_ballots in
  let line =
    Printf.sprintf
      "agree checker: %d daemons, depth %d, at most %d fault(s) and %d ballot(s): %d states, %d \
       decisions"
      n depth max_faults max_ballots r.Mc.states !decides
  in
  summary := line :: !summary;
  Option.iter (Alcotest.failf "%s\nshortest counterexample:\n%s" line) (Mc.steps r);
  check_bool "states explored" true (r.Mc.states > 1);
  check_bool "decisions reached" true (!decides > 0)

let () =
  Alcotest.run ~and_exit:false "agree"
    [
      ( "step",
        [
          Alcotest.test_case "sole survivor decides in one step" `Quick test_sole_survivor;
          Alcotest.test_case "2 of 5 reachable loses the quorum" `Quick test_quorum_lost;
          Alcotest.test_case "reject raises the next ballot" `Quick test_reject_raises_ballot;
          Alcotest.test_case "ballot budget aborts" `Quick test_ballot_budget;
          Alcotest.test_case "stale timer tokens" `Quick test_stale_timer;
          Alcotest.test_case "one Stale per ex-member and epoch" `Quick test_stale_once;
          Alcotest.test_case "one Probe per peer and epoch" `Quick test_probe_once;
        ] );
      ( "checker",
        [
          Alcotest.test_case "3 daemons" `Quick (checker ~n:3 ~depth:11 ~max_faults:2 ~max_ballots:2);
          Alcotest.test_case "4 daemons" `Quick (checker ~n:4 ~depth:16 ~max_faults:1 ~max_ballots:1);
        ] );
    ];
  print_newline ();
  List.iter print_endline (List.rev !summary)
