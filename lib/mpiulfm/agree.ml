(* Every helper takes the state and the actions emitted so far, newest
   first, and returns both. The emission order is pinned behaviour. *)

let agree_timeout = 3.0
let max_ballots = 25

type view = { torn : bool; suspects : int list; avail : (int * int list) list Lazy.t }
type timer = Propose of int | Ballot of int

type input =
  | Start of int list | Message of view * int * Umsg.t | Outsider of int | Heartbeat of int * int
  | Timeout of view * timer | Check of view | Torn of view

type action =
  | Send of int * Umsg.t | Broadcast of Umsg.t | Arm of float * timer | Suspect of int
  | Install of { decision : Shrinkc.decision; ballots : int }
  | Abort of string
  | Trace of { level : Simkern.Trace.level; event : string; detail : string }

(* The candidate's in-flight ballot; [chosen] is Some once phase 2
   started. Keyed lists are kept sorted, so states with equal contents
   are equal values. *)
type ballot = {
  ballot : int; proposed : int list; chosen : Shrinkc.decision option; accepts : int list;
  grants : (int * ((int * Shrinkc.decision) option * (int * int list) list)) list;
}

(* [promised] and [accepted] are by instance, the epoch being decided;
   only instances above the installed epoch are kept. [used] counts the
   ballots started for the installed epoch, [told] the peers already
   answered [Stale] at it, [probed] the peers sent a [Probe]. *)
type t = {
  id : int; population : int; n_ranks : int;
  started : bool; epoch : int; members : int list; assign : (int * int) list;
  decision : Shrinkc.decision option; revoked : bool; told : int list; probed : int list;
  promised : (int * int) list; accepted : (int * (int * Shrinkc.decision)) list;
  attempt : int; used : int; inflight : ballot option;
  propose_token : int; propose_armed : bool; ballot_token : int;
}

let create ~id ~population ~n_ranks =
  { id; population; n_ranks; started = false; epoch = 0; members = []; assign = []; attempt = 0;
    decision = None; revoked = false; told = []; probed = []; promised = []; accepted = [];
    used = 0; inflight = None; propose_token = 0; propose_armed = false; ballot_token = 0 }

let started t = t.started
let epoch t = t.epoch
let members t = t.members
let assign t = t.assign
let decision t = t.decision

let rec set k v = function
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | ((k', _) as e) :: rest when k' < k -> e :: set k v rest
  | l -> (k, v) :: l

let trace ?(level = Simkern.Trace.Summary) out event fmt =
  Printf.ksprintf (fun detail -> Trace { level; event; detail } :: out) fmt

let send_all t ps msg out =
  List.fold_left (fun out p -> if p <> t.id then Send (p, msg) :: out else out) out ps

(* The answer to a peer behind the installed epoch, once per peer and
   epoch: a member catches up and an ex-member fences itself on it. *)
let stale t p out =
  match t.decision with
  | Some d when not (List.mem p t.told) ->
      ({ t with told = p :: t.told }, Send (p, Umsg.Stale { decision = d }) :: out)
  | _ -> (t, out)

let needed t v = t.started && (v.torn || t.revoked || v.suspects <> [])
let unsuspected t v = List.filter (fun p -> not (List.mem p v.suspects)) t.members

let arm_propose t delay out =
  let tok = t.propose_token + 1 in
  ({ t with propose_token = tok; propose_armed = true }, Arm (delay, Propose tok) :: out)

let arm_ballot t out =
  let tok = t.ballot_token + 1 in
  ({ t with ballot_token = tok }, Arm (agree_timeout, Ballot tok) :: out)

(* candidates stagger their first ballot by their place among the
   unsuspected members *)
let ensure_propose t v out =
  if needed t v && t.inflight = None && not t.propose_armed then
    let idx = Option.value ~default:0 (List.find_index (( = ) t.id) (unsuspected t v)) in
    arm_propose t (0.05 +. (0.3 *. float_of_int idx)) out
  else (t, out)

let raise_revoke t v out =
  let t, out =
    if t.started && not t.revoked then
      ( { t with revoked = true },
        trace out "revoke" "epoch %d (suspects: %s%s)" t.epoch
          (String.concat "," (List.map string_of_int v.suspects))
          (if v.torn then "; torn link" else "") )
    else (t, out)
  in
  (t, Broadcast (Umsg.Revoke { id = t.id; epoch = t.epoch }) :: out)

let install t (d : Shrinkc.decision) out =
  let above l = List.filter (fun (inst, _) -> inst > d.d_epoch) l in
  ( { t with epoch = d.d_epoch; members = d.d_members; assign = d.d_assign; decision = Some d;
      revoked = false; told = []; probed = []; promised = above t.promised;
      accepted = above t.accepted; used = 0; inflight = None; propose_token = t.propose_token + 1;
      propose_armed = false; ballot_token = t.ballot_token + 1 },
    Install { decision = d; ballots = t.used } :: out )

(* Promise ballot [b] for instance [inst] and answer [from] with what
   [grant] makes of the promise, or reject a ballot below the promise. *)
let vote t out ~from ~b inst grant =
  let prom = Option.value ~default:(-1) (List.assoc_opt inst t.promised) in
  if b >= prom then
    let t, reply = grant { t with promised = set inst b t.promised } in
    (t, Send (from, reply) :: out)
  else (t, Send (from, Umsg.Reject { id = t.id; ballot = b; promised = prom }) :: out)

let check_phase2 t out =
  match t.inflight with
  | Some { chosen = Some d; ballot; proposed; accepts; _ }
    when List.for_all (fun p -> List.mem p accepts) proposed ->
      let out = trace ~level:Full out "decide" "b%d epoch %d" ballot d.d_epoch in
      install t d (Broadcast (Umsg.Decide { decision = d }) :: out)
  | _ -> (t, out)

let check_phase1 t out =
  match t.inflight with
  | Some bs
    when bs.chosen = None && List.for_all (fun p -> List.mem_assoc p bs.grants) bs.proposed ->
      if List.length bs.proposed >= Shrinkc.quorum t.members then begin
        let inst = t.epoch + 1 in
        (* the highest ballot a granter accepted wins over a fresh shrink
           (None is below every Some; one ballot accepts one decision) *)
        let decision =
          match List.fold_left (fun best (_, (acc, _)) -> max best acc) None bs.grants with
          | Some (_, d) -> d
          | None ->
              Shrinkc.next ~n_ranks:t.n_ranks ~prev_assign:t.assign ~members:bs.proposed
                ~avail:(List.map (fun (p, (_, av)) -> (p, av)) bs.grants)
                ~epoch:inst
        in
        let t =
          { t with inflight = Some { bs with chosen = Some decision; accepts = [ t.id ] };
            promised = set inst bs.ballot t.promised;
            accepted = set inst (bs.ballot, decision) t.accepted }
        in
        let out = send_all t bs.proposed (Accept { id = t.id; ballot = bs.ballot; decision }) out in
        let t, out = arm_ballot t out in
        check_phase2 t out
      end
      else begin
        (* no quorum of the superseded epoch is reachable: shrinking could
           split the brain, so retry later and abort when out of ballots *)
        let out =
          trace out "quorum-lost" "only %d of %d members reachable (quorum %d)"
            (List.length bs.proposed) (List.length t.members) (Shrinkc.quorum t.members)
        in
        arm_propose { t with inflight = None } agree_timeout out
      end
  | _ -> (t, out)

let start_ballot t v out =
  let t = { t with attempt = t.attempt + 1; used = t.used + 1 } in
  if t.used > max_ballots then
    let reason =
      Printf.sprintf "agreement exhausted after %d ballots at epoch %d" max_ballots t.epoch
    in
    (t, Abort reason :: trace out "abort" "%s" reason)
  else begin
    let proposed = unsuspected t v in
    let b = Shrinkc.ballot ~population:t.population ~attempt:t.attempt ~id:t.id in
    let inst = t.epoch + 1 in
    let out =
      trace ~level:Full out "ballot" "b%d proposing %d of %d members" b (List.length proposed)
        (List.length t.members)
    in
    (* self-grant; with a sole survivor this is already phase-1 complete *)
    let grants = [ (t.id, (List.assoc_opt inst t.accepted, Lazy.force v.avail)) ] in
    let t =
      { t with inflight = Some { ballot = b; proposed; grants; chosen = None; accepts = [] };
        promised = set inst b t.promised }
    in
    let out = send_all t proposed (Umsg.Prepare { id = t.id; ballot = b; epoch = t.epoch }) out in
    let t, out = arm_ballot t out in
    check_phase1 t out
  end

let receive t v p (msg : Umsg.t) out =
  match msg with
  | Probe { epoch = pe; _ } -> if pe < t.epoch then stale t p out else (t, out)
  | Revoke { epoch = re; _ } ->
      if re = t.epoch then ensure_propose { t with revoked = true } v out else (t, out)
  | Prepare { id = from; ballot = b; epoch = pe } ->
      if pe < t.epoch then stale t p out
      else
        let t = if pe = t.epoch then { t with revoked = true } else t in
        vote t out ~from ~b (pe + 1) (fun t ->
            let accepted = List.assoc_opt (pe + 1) t.accepted in
            (t, Grant { id = t.id; ballot = b; epoch = pe; accepted; avail = Lazy.force v.avail }))
  | Grant { id = from; ballot = b; accepted; avail; _ } -> (
      match t.inflight with
      | Some bs when bs.ballot = b && bs.chosen = None ->
          let grants = set from (accepted, avail) bs.grants in
          check_phase1 { t with inflight = Some { bs with grants } } out
      | _ -> (t, out))
  | Reject { ballot = b; promised = prom; _ } -> (
      match t.inflight with
      | Some bs when bs.ballot = b ->
          let attempt = max t.attempt (Shrinkc.ballot_attempt ~population:t.population prom) in
          arm_propose { t with inflight = None; attempt } agree_timeout out
      | _ -> (t, out))
  | Accept { id = from; ballot = b; decision } ->
      let inst = decision.d_epoch in
      if inst <= t.epoch then stale t p out
      else
        vote t out ~from ~b inst (fun t ->
            ( { t with accepted = set inst (b, decision) t.accepted },
              Accepted { id = t.id; ballot = b; epoch = inst } ))
  | Accepted { id = from; ballot = b; _ } -> (
      match t.inflight with
      | Some bs when bs.ballot = b && bs.chosen <> None ->
          let accepts = List.sort_uniq Int.compare (from :: bs.accepts) in
          check_phase2 { t with inflight = Some { bs with accepts } } out
      | _ -> (t, out))
  | Decide { decision } | Stale { decision } ->
      if decision.d_epoch > t.epoch then install t decision out else (t, out)
  | msg -> (t, trace out "protocol-error" "%s" (Format.asprintf "from peer %d: %a" p Umsg.pp msg))

let step t input =
  let t, out =
    match input with
    | Start ids ->
        let members = List.sort_uniq Int.compare ids in
        ({ t with started = true; members; assign = List.init t.n_ranks (fun r -> (r, r)) }, [])
    | Message (v, p, msg) -> receive t v p msg []
    | Outsider p -> (
        match t.decision with
        | Some d when not (List.mem p d.d_members) -> stale t p []
        | _ -> (t, []))
    | Heartbeat (p, pe) ->
        if pe > t.epoch && not (List.mem p t.probed) then
          ({ t with probed = p :: t.probed }, [ Send (p, Probe { id = t.id; epoch = t.epoch }) ])
        else (t, [])
    | Timeout (v, Propose tok) ->
        let t = { t with propose_armed = false } in
        if tok = t.propose_token && needed t v && t.inflight = None then start_ballot t v []
        else (t, [])
    | Timeout (v, Ballot tok) -> (
        match t.inflight with
        | Some bs when tok = t.ballot_token ->
            (* whoever did not answer this phase in time is suspected *)
            let heard p =
              if bs.chosen = None then List.mem_assoc p bs.grants else List.mem p bs.accepts
            in
            let silent = List.filter (fun p -> p <> t.id && not (heard p)) bs.proposed in
            let out = List.fold_left (fun out p -> Suspect p :: out) [] silent in
            let out = trace ~level:Full out "ballot-timeout" "b%d" bs.ballot in
            ensure_propose { t with inflight = None } { v with suspects = silent @ v.suspects } out
        | _ -> (t, []))
    | Check v ->
        if needed t v then
          let t, out = if v.suspects <> [] || v.torn then raise_revoke t v [] else (t, []) in
          ensure_propose t v out
        else (t, [])
    | Torn v ->
        let t, out = raise_revoke t v [] in
        ensure_propose t v out
  in
  (t, List.rev out)
