open Simkern
open Fail_lang
module Perturb = Simnet.Net.Perturb

(* Hardened control plane: the coordinator's probe period, the silence
   after which a peer is suspected, and the retransmission backoff of a
   control message and its retry budget. *)
let heartbeat_period = 2.0
let suspicion_timeout = 10.0
let retry_rto = 0.5
let retry_rto_max = 8.0
let max_retries = 6

type event =
  | Ev_msg of string * string  (* message name, sender instance id *)
  | Ev_timer of int  (* generation *)
  | Ev_onload
  | Ev_onexit
  | Ev_onerror
  | Ev_breakpoint of [ `Before | `After ] * string
  | Ev_watch of string

type instance = {
  id : string;
  machine : int;
  mutable automaton : Automaton.t;  (* swapped by [swap_plan] at a fork point *)
  vars : int array;
  rng : Rng.t;
  mutable node : int;
  mutable timer_gen : int;
  mutable timer_handle : Engine.handle option;
  mutable ctl : Control.target option;
  mutable suspected : bool;  (* quarantined after missed heartbeats *)
  mutable hb_miss : int;
}

(* Infrastructure services the deployed system registers by name
   ("ckpt[0]", "sched", "disp"): the handles scenario [halt service ...]
   actions act on. *)
type service = {
  svc_kill : unit -> unit;
  svc_freeze : unit -> unit;
  svc_unfreeze : unit -> unit;
}

type t = {
  eng : Engine.t;
  msg_latency : float;
  by_name : (string, instance) Hashtbl.t;
  groups : (string, instance array) Hashtbl.t;
  by_machine : (int, instance) Hashtbl.t;
  mutable all : instance list;  (* deployment order *)
  mutable fault_count : int;
  mutable entry_depth : int;  (* guards against epsilon-transition loops *)
  mutable net : Perturb.t option;  (* fabric the control plane rides on *)
  mutable topo : Simtopo.Topo.t option;  (* geometry behind the fabric *)
  mutable seq : int;  (* hardened-delivery sequence numbers *)
  seen : (string, unit) Hashtbl.t;  (* "<sender>#<seq>" dedup *)
  retries : (int, Engine.handle) Hashtbl.t;  (* seq -> armed retry *)
  mutable hb_handle : Engine.handle option;  (* heartbeat monitor tick *)
  mutable net_fault_count : int;
  mutable stopped : bool;
  services : (string, service) Hashtbl.t;
}

let engine t = t.eng

let trace ?level t inst event fmt =
  Engine.record ?level t.eng ~source:("fci:" ^ inst.id) ~event fmt

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let rec eval t inst expr =
  match expr with
  | Automaton.C_int n -> n
  | Automaton.C_var slot -> inst.vars.(slot)
  | Automaton.C_app_var name -> (
      match inst.ctl with
      | Some ctl -> (
          match ctl.Control.read_var name with
          | Some v -> v
          | None ->
              trace t inst "eval-error" "unknown app var %s" name;
              0)
      | None ->
          trace t inst "eval-error" "app var %s with no controlled process" name;
          0)
  | Automaton.C_binop (op, a, b) -> (
      let va = eval t inst a and vb = eval t inst b in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div ->
          if vb = 0 then begin
            trace t inst "eval-error" "division by zero";
            0
          end
          else va / vb
      | Ast.Mod ->
          if vb = 0 then begin
            trace t inst "eval-error" "modulo by zero";
            0
          end
          else va mod vb)
  | Automaton.C_random (lo, hi) ->
      let lo = eval t inst lo and hi = eval t inst hi in
      if hi < lo then begin
        trace t inst "eval-error" "FAIL_RANDOM(%d, %d) with hi < lo" lo hi;
        lo
      end
      else Rng.int_in_range inst.rng ~lo ~hi

let eval_cond t inst (op, a, b) =
  let va = eval t inst a and vb = eval t inst b in
  match op with
  | Ast.Eq -> va = vb
  | Ast.Ne -> va <> vb
  | Ast.Lt -> va < vb
  | Ast.Le -> va <= vb
  | Ast.Gt -> va > vb
  | Ast.Ge -> va >= vb

(* Resolve a topology selector against the deployed fabric geometry.
   [None] plus a trace when the run has no topology or the component does
   not exist — a scenario bug degrades the run, it never crashes it. *)
let resolve_component t inst sel =
  match t.topo with
  | None ->
      trace t inst "net-no-topology" "%s" (Automaton.topo_sel_s sel);
      None
  | Some topo -> (
      let comp =
        match sel with
        | Automaton.CSel_switch (tier, e) ->
            let tier =
              match tier with
              | Ast.Tier_edge -> Simtopo.Topo.Edge
              | Ast.Tier_agg -> Simtopo.Topo.Agg
              | Ast.Tier_core -> Simtopo.Topo.Core
            in
            Simtopo.Topo.Switch (tier, eval t inst e)
        | Automaton.CSel_pod e -> Simtopo.Topo.Pod (eval t inst e)
        | Automaton.CSel_rack e -> Simtopo.Topo.Rack (eval t inst e)
      in
      match Simtopo.Topo.check_component topo comp with
      | Ok () -> Some (topo, comp)
      | Error msg ->
          trace t inst "net-error" "%s" msg;
          None)

(* ------------------------------------------------------------------ *)
(* Service faults *)

let service_name t inst = function
  | Automaton.CSvc_ckpt e -> Printf.sprintf "ckpt[%d]" (eval t inst e)
  | Automaton.CSvc_sched -> "sched"
  | Automaton.CSvc_disp -> "disp"

(* A scenario naming a service the deployment did not register (e.g. a
   [sched] fault against the sender-logging protocol, which has no
   scheduler) degrades to a traced no-op — scenario bugs never crash a
   run. *)
let exec_service t inst sel op =
  let name = service_name t inst sel in
  match (Hashtbl.find_opt t.services name, op) with
  | None, `Kill -> trace t inst "halt-no-service" "%s" name
  | None, `Stop -> trace t inst "stop-no-service" "%s" name
  | None, `Continue -> trace t inst "continue-no-service" "%s" name
  | Some svc, `Kill ->
      t.fault_count <- t.fault_count + 1;
      trace t inst "halt-service" "%s" name;
      svc.svc_kill ()
  | Some svc, `Stop ->
      trace t inst "stop-service" "%s" name;
      svc.svc_freeze ()
  | Some svc, `Continue ->
      trace t inst "continue-service" "%s" name;
      svc.svc_unfreeze ()

(* ------------------------------------------------------------------ *)
(* Event dispatch and transition execution *)

let current_node inst = inst.automaton.Automaton.nodes.(inst.node)

let machines_s ms = String.concat "," (List.map string_of_int ms)

let trigger_matches ev (trigger : Ast.trigger option) ~gen =
  match (ev, trigger) with
  | Ev_msg (m, _), Some (Ast.T_recv m') -> String.equal m m'
  | Ev_timer g, Some Ast.T_timer -> g = gen
  | Ev_onload, Some Ast.T_onload -> true
  | Ev_onexit, Some Ast.T_onexit -> true
  | Ev_onerror, Some Ast.T_onerror -> true
  | Ev_breakpoint (`Before, fn), Some (Ast.T_before fn') -> String.equal fn fn'
  | Ev_breakpoint (`After, fn), Some (Ast.T_after fn') -> String.equal fn fn'
  | Ev_watch v, Some (Ast.T_watch v') -> String.equal v v'
  | _, _ -> false

let rec enter_node t inst idx =
  t.entry_depth <- t.entry_depth + 1;
  if t.entry_depth > 1000 then begin
    trace ~level:Trace.Full t inst "epsilon-loop" "%d" idx;
    invalid_arg
      (Printf.sprintf "Runtime: epsilon-transition loop in %s at node index %d" inst.id idx)
  end;
  Fun.protect ~finally:(fun () -> t.entry_depth <- t.entry_depth - 1)
  @@ fun () ->
  inst.node <- idx;
  inst.timer_gen <- inst.timer_gen + 1;
  let gen = inst.timer_gen in
  let node = current_node inst in
  trace ~level:Trace.Full t inst "enter-node" "%s" node.Automaton.node_id;
  List.iter (fun (slot, e) -> inst.vars.(slot) <- eval t inst e) node.Automaton.always;
  (* A node change obsoletes the previous node's timer; cancelling it (the
     generation check below stays as a safety net) keeps [Engine.pending]
     honest so the whole control plane drains to zero after a run. *)
  (match inst.timer_handle with
  | Some h ->
      Engine.cancel h;
      inst.timer_handle <- None
  | None -> ());
  (match node.Automaton.timer with
  | Some duration_expr ->
      let duration = float_of_int (eval t inst duration_expr) in
      let h =
        Engine.schedule t.eng ~delay:(Float.max 0.0 duration) (fun () ->
            inst.timer_handle <- None;
            dispatch t inst (Ev_timer gen))
      in
      inst.timer_handle <- Some h
  | None -> ());
  (* Epsilon transitions: condition-only guards fire on entry. *)
  let epsilon =
    List.find_opt
      (fun (tr : Automaton.ctransition) ->
        tr.trigger = None && List.for_all (eval_cond t inst) tr.conds)
      node.Automaton.transitions
  in
  match epsilon with
  | Some tr -> exec_actions t inst tr.Automaton.actions ~sender:None
  | None -> ()

and exec_actions t inst actions ~sender =
  let goto = ref None in
  List.iter
    (fun action ->
      match action with
      | Automaton.C_goto idx -> goto := Some idx
      | Automaton.C_assign (slot, e) -> inst.vars.(slot) <- eval t inst e
      | Automaton.C_send (msg, dest) -> send t inst msg dest ~sender
      | Automaton.C_halt (Some sel) -> exec_service t inst sel `Kill
      | Automaton.C_stop (Some sel) -> exec_service t inst sel `Stop
      | Automaton.C_continue (Some sel) -> exec_service t inst sel `Continue
      | Automaton.C_halt None -> (
          match inst.ctl with
          | Some ctl ->
              t.fault_count <- t.fault_count + 1;
              trace t inst "halt" "%s" ctl.Control.target_name;
              ctl.Control.kill ()
          | None -> trace t inst "halt-no-target" "")
      | Automaton.C_stop None -> (
          match inst.ctl with
          | Some ctl ->
              trace t inst "stop" "%s" ctl.Control.target_name;
              ctl.Control.freeze ()
          | None -> trace t inst "stop-no-target" "")
      | Automaton.C_continue None -> (
          match inst.ctl with
          | Some ctl ->
              trace t inst "continue" "%s" ctl.Control.target_name;
              ctl.Control.unfreeze ()
          | None -> trace t inst "continue-no-target" "")
      | Automaton.C_set_app (name, e) -> (
          let v = eval t inst e in
          match inst.ctl with
          | Some ctl ->
              if not (ctl.Control.write_var name v) then
                trace t inst "set-error" "unknown app var %s" name
          | None -> trace t inst "set-no-target" "%s" name)
      | Automaton.C_partition (Automaton.CD_topo sel, None) -> (
          (* Component kill: sever the hosts whose only uplink died, cut
             every remaining host pair whose route crossed it. *)
          match t.net with
          | None -> trace t inst "net-no-fabric" "partition"
          | Some p -> kill_component t p inst sel)
      | Automaton.C_partition (a, b) -> (
          match t.net with
          | None -> trace t inst "net-no-fabric" "partition"
          | Some p -> (
              let ma = machines_of_dest t inst a ~sender in
              match b with
              | Some b_dest ->
                  let mb = machines_of_dest t inst b_dest ~sender in
                  if ma <> [] && mb <> [] then begin
                    Perturb.partition p ma mb;
                    t.net_fault_count <- t.net_fault_count + 1;
                    trace t inst "partition" "%s | %s" (machines_s ma) (machines_s mb);
                    ensure_monitor t
                  end
              | None ->
                  if ma <> [] then begin
                    Perturb.isolate p ma;
                    t.net_fault_count <- t.net_fault_count + 1;
                    trace t inst "partition" "isolate %s" (machines_s ma);
                    ensure_monitor t
                  end))
      | Automaton.C_heal -> (
          match t.net with
          | None -> trace t inst "net-no-fabric" "heal"
          | Some p ->
              Perturb.heal p;
              trace t inst "heal" "")
      | Automaton.C_degrade (Automaton.CD_topo sel, loss_e, latency_e, jitter_e) -> (
          match t.net with
          | None -> trace t inst "net-no-fabric" "degrade"
          | Some p ->
              let dim e = match e with Some e -> eval t inst e | None -> 0 in
              let loss =
                Float.min 1.0 (Float.max 0.0 (float_of_int (dim loss_e) /. 1000.0))
              in
              let latency = Float.max 0.0 (float_of_int (dim latency_e) /. 1000.0) in
              let jitter = Float.max 0.0 (float_of_int (dim jitter_e) /. 1000.0) in
              degrade_component t p inst sel { Perturb.loss; latency; jitter })
      | Automaton.C_degrade (d, loss_e, latency_e, jitter_e) -> (
          match t.net with
          | None -> trace t inst "net-no-fabric" "degrade"
          | Some p ->
              let hosts = machines_of_dest t inst d ~sender in
              if hosts <> [] then begin
                let dim e = match e with Some e -> eval t inst e | None -> 0 in
                (* FAIL source carries integers: loss in permille,
                   latency/jitter in milliseconds. *)
                let loss =
                  Float.min 1.0 (Float.max 0.0 (float_of_int (dim loss_e) /. 1000.0))
                in
                let latency = Float.max 0.0 (float_of_int (dim latency_e) /. 1000.0) in
                let jitter = Float.max 0.0 (float_of_int (dim jitter_e) /. 1000.0) in
                Perturb.degrade p ~hosts { Perturb.loss; latency; jitter };
                t.net_fault_count <- t.net_fault_count + 1;
                trace t inst "degrade" "%s loss=%.3f latency=%.3fs jitter=%.3fs" (machines_s hosts)
                  loss latency jitter;
                ensure_monitor t
              end))
    actions;
  match !goto with Some idx -> enter_node t inst idx | None -> ()

(* Resolve a destination to the machines it deploys on — the unit network
   faults act on. *)
and machines_of_dest t inst dest ~sender =
  match dest with
  | Automaton.CD_instance name -> (
      match Hashtbl.find_opt t.by_name name with
      | Some i -> [ i.machine ]
      | None ->
          trace t inst "net-error" "unknown instance %s" name;
          [])
  | Automaton.CD_indexed (group, e) -> (
      let idx = eval t inst e in
      match Hashtbl.find_opt t.groups group with
      | Some members when idx >= 0 && idx < Array.length members ->
          [ members.(idx).machine ]
      | Some members ->
          trace t inst "net-error" "%s[%d] out of range 0..%d" group idx (Array.length members - 1);
          []
      | None ->
          trace t inst "net-error" "unknown group %s" group;
          [])
  | Automaton.CD_group group -> (
      match Hashtbl.find_opt t.groups group with
      | Some members -> Array.to_list (Array.map (fun i -> i.machine) members)
      | None ->
          trace t inst "net-error" "unknown group %s" group;
          [])
  | Automaton.CD_sender -> (
      match sender with
      | Some name -> (
          match Hashtbl.find_opt t.by_name name with
          | Some i -> [ i.machine ]
          | None ->
              trace t inst "net-error" "vanished sender %s" name;
              [])
      | None ->
          trace t inst "net-error" "FAIL_SENDER with no sender";
          [])
  | Automaton.CD_topo sel -> (
      match resolve_component t inst sel with
      | None -> []
      | Some (topo, comp) -> (
          match Simtopo.Topo.hosts_of topo comp with
          | [] ->
              trace t inst "net-error" "%s encloses no hosts" (Simtopo.Topo.component_name comp);
              []
          | hosts -> hosts))

(* Kill a fabric component: hosts whose only uplink went through it are
   isolated outright (so even off-fabric service hosts lose them), and
   every other host pair whose deterministic route crossed it is cut
   pairwise. One logical fault, O(1) per subsequent sample. *)
and kill_component t p inst sel =
  match resolve_component t inst sel with
  | None -> ()
  | Some (topo, comp) ->
      let severed = Simtopo.Topo.severed_hosts topo comp in
      let is_severed =
        let tbl = Hashtbl.create (max 16 (List.length severed)) in
        List.iter (fun h -> Hashtbl.replace tbl h ()) severed;
        fun h -> Hashtbl.mem tbl h
      in
      (* The isolation covers pairs with exactly one severed endpoint
         (including off-fabric service hosts the topology cannot name);
         pairs wholly inside the severed set — a rack whose only switch
         died — and route-crossing pairs between survivors still need an
         explicit cut. *)
      let crossing =
        List.filter
          (fun (a, b) -> is_severed a = is_severed b)
          (Simtopo.Topo.cut_pairs topo comp)
      in
      if severed = [] && crossing = [] then
        trace t inst "net-error" "%s cuts no host pair" (Simtopo.Topo.component_name comp)
      else begin
        if severed <> [] then Perturb.isolate p severed;
        if crossing <> [] then Perturb.cut_pairs p crossing;
        t.net_fault_count <- t.net_fault_count + 1;
        trace t inst "partition" "kill %s: %d hosts severed, %d pairs cut"
          (Simtopo.Topo.component_name comp) (List.length severed) (List.length crossing);
        ensure_monitor t
      end

(* Degrade a fabric component: the spec lands on every host pair riding
   it — pairs routed through a switch, pairs wholly inside a pod/rack. *)
and degrade_component t p inst sel spec =
  match resolve_component t inst sel with
  | None -> ()
  | Some (topo, comp) ->
      let pairs =
        match comp with
        | Simtopo.Topo.Switch _ -> Simtopo.Topo.cut_pairs topo comp
        | Simtopo.Topo.Pod _ | Simtopo.Topo.Rack _ -> Simtopo.Topo.intra_pairs topo comp
      in
      if pairs = [] then
        trace t inst "net-error" "%s carries no host pair" (Simtopo.Topo.component_name comp)
      else begin
        Perturb.degrade_pairs p ~pairs spec;
        t.net_fault_count <- t.net_fault_count + 1;
        trace t inst "degrade" "%s: %d pairs loss=%.3f latency=%.3fs jitter=%.3fs"
          (Simtopo.Topo.component_name comp) (List.length pairs) spec.Perturb.loss
          spec.Perturb.latency spec.Perturb.jitter;
        ensure_monitor t
      end

(* The daemons' own heartbeat monitor: once the fabric is perturbed, the
   first deployed instance (the coordinator) probes every other daemon each
   [heartbeat_period]; after [suspicion_timeout] worth of consecutive
   misses the peer is suspected and outgoing control messages to it are
   quarantined instead of retried forever. A later successful round trip
   (e.g. after [heal]) lifts the suspicion. *)
and ensure_monitor t =
  match t.hb_handle with
  | Some _ -> ()
  | None ->
      if not t.stopped then
        t.hb_handle <-
          Some (Engine.schedule t.eng ~delay:heartbeat_period (fun () -> hb_tick t))

and hb_tick t =
  t.hb_handle <- None;
  if not t.stopped then begin
    (match t.net with Some p when Perturb.touched p -> probe_all t p | Some _ | None -> ());
    t.hb_handle <-
      Some (Engine.schedule t.eng ~delay:heartbeat_period (fun () -> hb_tick t))
  end

and probe_all t p =
  match t.all with
  | [] -> ()
  | root :: rest ->
      let threshold =
        max 1 (int_of_float (Float.ceil (suspicion_timeout /. heartbeat_period)))
      in
      List.iter
        (fun inst ->
          if inst.machine <> root.machine then begin
            let fwd = Perturb.sample p ~src:root.machine ~dst:inst.machine ~kind:`Data in
            let bwd = Perturb.sample p ~src:inst.machine ~dst:root.machine ~kind:`Data in
            match (fwd, bwd) with
            | `Deliver _, `Deliver _ ->
                inst.hb_miss <- 0;
                if inst.suspected then begin
                  inst.suspected <- false;
                  trace t inst "unsuspect" "heartbeat round trip"
                end
            | `Drop, _ | _, `Drop ->
                inst.hb_miss <- inst.hb_miss + 1;
                if inst.hb_miss >= threshold && not inst.suspected then begin
                  inst.suspected <- true;
                  trace t inst "suspect" "%d missed heartbeats" inst.hb_miss
                end
          end)
        rest

and send t inst msg dest ~sender =
  if t.stopped then ()
  else
  let deliver target_inst =
    match t.net with
    | Some p when Perturb.touched p && inst.machine <> target_inst.machine ->
        deliver_hardened t p inst target_inst msg
    | Some _ | None ->
        trace t inst "send" "%s -> %s" msg target_inst.id;
        Engine.post t.eng ~delay:t.msg_latency (fun () ->
            dispatch t target_inst (Ev_msg (msg, inst.id)))
  in
  match dest with
  | Automaton.CD_instance name -> (
      match Hashtbl.find_opt t.by_name name with
      | Some target_inst -> deliver target_inst
      | None -> trace t inst "send-error" "unknown instance %s" name)
  | Automaton.CD_indexed (group, e) -> (
      let idx = eval t inst e in
      match Hashtbl.find_opt t.groups group with
      | Some members when idx >= 0 && idx < Array.length members -> deliver members.(idx)
      | Some members ->
          trace t inst "send-error" "%s[%d] out of range 0..%d" group idx (Array.length members - 1)
      | None -> trace t inst "send-error" "unknown group %s" group)
  | Automaton.CD_group group -> (
      match Hashtbl.find_opt t.groups group with
      | Some members -> Array.iter deliver members
      | None -> trace t inst "send-error" "unknown group %s" group)
  | Automaton.CD_sender -> (
      match sender with
      | Some name -> (
          match Hashtbl.find_opt t.by_name name with
          | Some target_inst -> deliver target_inst
          | None -> trace t inst "send-error" "vanished sender %s" name)
      | None -> trace t inst "send-error" "FAIL_SENDER with no sender")
  | Automaton.CD_topo _ ->
      (* Broadcast to every daemon deployed inside the component. *)
      List.iter
        (fun machine ->
          match Hashtbl.find_opt t.by_machine machine with
          | Some target_inst -> deliver target_inst
          | None -> ())
        (machines_of_dest t inst dest ~sender)

(* Once the fabric is perturbed, inter-machine control messages ride it:
   each send is sequence-numbered, sampled against the link like any wire
   message, retransmitted with exponential backoff until an (also sampled)
   acknowledgement cancels the retry, and deduplicated at the receiver so
   a lost ack only costs a duplicate. After [max_retries] the target is
   suspected and further traffic to it is quarantined — the §5 analogue of
   an MPI runtime's unreachable-daemon handling. *)
and deliver_hardened t p inst target_inst msg =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let key = Printf.sprintf "%s#%d" inst.id seq in
  trace t inst "send" "%s -> %s #%d" msg target_inst.id seq;
  let rec attempt k =
    if t.stopped then ()
    else if target_inst.suspected then
      trace t inst "quarantine-drop" "%s -> %s #%d" msg target_inst.id seq
    else begin
      (match Perturb.sample p ~src:inst.machine ~dst:target_inst.machine ~kind:`Data with
      | `Deliver extra ->
          Engine.post t.eng ~delay:(t.msg_latency +. extra) (fun () ->
              if not (Hashtbl.mem t.seen key) then begin
                Hashtbl.replace t.seen key ();
                (* Ack travels the reverse link; losing it only provokes a
                   retransmission the [seen] table absorbs. *)
                (match
                   Perturb.sample p ~src:target_inst.machine ~dst:inst.machine
                     ~kind:`Data
                 with
                | `Deliver ack_extra ->
                    Engine.post t.eng ~delay:(t.msg_latency +. ack_extra) (fun () ->
                        match Hashtbl.find_opt t.retries seq with
                        | Some h ->
                            Engine.cancel h;
                            Hashtbl.remove t.retries seq
                        | None -> ())
                | `Drop -> ());
                dispatch t target_inst (Ev_msg (msg, inst.id))
              end)
      | `Drop -> ());
      if k < max_retries then begin
        let delay = Perturb.backoff ~rto_initial:retry_rto ~rto_max:retry_rto_max ~attempt:k in
        let h =
          Engine.schedule t.eng ~delay (fun () ->
              Hashtbl.remove t.retries seq;
              trace ~level:Trace.Full t inst "retry" "%s -> %s #%d attempt %d" msg target_inst.id
                seq (k + 1);
              attempt (k + 1))
        in
        Hashtbl.replace t.retries seq h
      end
      else begin
        trace t inst "give-up" "%s -> %s #%d after %d attempts" msg target_inst.id seq
          max_retries;
        if not target_inst.suspected then begin
          target_inst.suspected <- true;
          trace t target_inst "suspect" "control message exhausted retries"
        end
      end
    end
  in
  attempt 0

and dispatch t inst ev =
  (* Lifecycle bookkeeping happens regardless of scenario transitions. *)
  (match ev with
  | Ev_onexit | Ev_onerror -> inst.ctl <- None
  | Ev_msg _ | Ev_timer _ | Ev_onload | Ev_breakpoint _ | Ev_watch _ -> ());
  let gen = inst.timer_gen in
  let node = current_node inst in
  let matching =
    List.find_opt
      (fun (tr : Automaton.ctransition) ->
        trigger_matches ev tr.trigger ~gen && List.for_all (eval_cond t inst) tr.conds)
      node.Automaton.transitions
  in
  let sender = match ev with Ev_msg (_, s) -> Some s | _ -> None in
  match matching with
  | Some tr ->
      (match ev with
      | Ev_msg (m, s) -> trace ~level:Trace.Full t inst "recv" "%s from %s" m s
      | Ev_timer _ -> trace ~level:Trace.Full t inst "timer-fired" "%s" node.Automaton.node_id
      | Ev_onload -> trace ~level:Trace.Full t inst "onload" ""
      | Ev_onexit -> trace t inst "onexit" ""
      | Ev_onerror -> trace t inst "onerror" ""
      | Ev_breakpoint (_, fn) -> trace ~level:Trace.Full t inst "breakpoint" "%s" fn
      | Ev_watch v -> trace ~level:Trace.Full t inst "watch" "%s" v);
      exec_actions t inst tr.Automaton.actions ~sender
  | None -> (
      match ev with
      | Ev_msg (m, s) -> trace ~level:Trace.Full t inst "drop" "%s from %s" m s
      | Ev_timer _ | Ev_onload | Ev_onexit | Ev_onerror | Ev_breakpoint _ | Ev_watch _ -> ())

(* ------------------------------------------------------------------ *)
(* Deployment *)

let create eng ?(msg_latency = 0.11) (plan : Compile.plan) =
  let t =
    {
      eng;
      msg_latency;
      by_name = Hashtbl.create 64;
      groups = Hashtbl.create 8;
      by_machine = Hashtbl.create 64;
      all = [];
      fault_count = 0;
      entry_depth = 0;
      net = None;
      topo = None;
      seq = 0;
      seen = Hashtbl.create 64;
      retries = Hashtbl.create 16;
      hb_handle = None;
      net_fault_count = 0;
      stopped = false;
      services = Hashtbl.create 8;
    }
  in
  let make_instance ~id ~machine ~daemon =
    let automaton =
      match Compile.automaton plan daemon with
      | Some a -> a
      | None -> invalid_arg (Printf.sprintf "Runtime.create: unknown daemon %s" daemon)
    in
    if Hashtbl.mem t.by_machine machine then
      invalid_arg
        (Printf.sprintf "Runtime.create: two FAIL-MPI daemons on machine %d" machine);
    let inst =
      {
        id;
        machine;
        automaton;
        vars = Array.make (Automaton.var_count automaton) 0;
        rng = Rng.split (Engine.rng eng);
        node = 0;
        timer_gen = 0;
        timer_handle = None;
        ctl = None;
        suspected = false;
        hb_miss = 0;
      }
    in
    List.iter
      (fun (slot, e) -> inst.vars.(slot) <- eval t inst e)
      automaton.Automaton.var_init;
    Hashtbl.replace t.by_name id inst;
    Hashtbl.replace t.by_machine machine inst;
    t.all <- inst :: t.all;
    inst
  in
  let created =
    List.concat_map
      (fun dep ->
        match dep with
        | Ast.Dep_singleton { inst; daemon; machine; _ } ->
            [ make_instance ~id:inst ~machine ~daemon ]
        | Ast.Dep_group { inst; count; daemon; mach_lo; _ } ->
            let members =
              List.init count (fun i ->
                  make_instance
                    ~id:(Printf.sprintf "%s[%d]" inst i)
                    ~machine:(mach_lo + i) ~daemon)
            in
            Hashtbl.replace t.groups inst (Array.of_list members);
            members)
      plan.Compile.deployments
  in
  t.all <- List.rev t.all;
  (* Start every automaton in its initial node once deployment completed,
     so that initial-node timers and epsilon transitions see the full
     address space. *)
  List.iter (fun inst -> enter_node t inst 0) created;
  t

(* ------------------------------------------------------------------ *)
(* Application integration *)

let register t ~machine (target : Control.target) =
  match Hashtbl.find_opt t.by_machine machine with
  | None -> ()
  | Some inst ->
      (match inst.ctl with
      | Some previous ->
          trace t inst "register-overwrite" "%s replaces %s" target.Control.target_name
            previous.Control.target_name
      | None -> ());
      inst.ctl <- Some target;
      target.Control.subscribe_var (fun name -> dispatch t inst (Ev_watch name));
      Proc.on_exit target.Control.proc (fun reason ->
          (* Only the currently controlled process drives lifecycle
             triggers; a stale hook from a previous wave is ignored. *)
          match inst.ctl with
          | Some current when current.Control.proc == target.Control.proc ->
              (match reason with
              | Proc.Exit_normal -> dispatch t inst Ev_onexit
              | Proc.Exit_killed | Proc.Exit_crashed _ -> dispatch t inst Ev_onerror)
          | Some _ | None -> ());
      dispatch t inst Ev_onload

let attach t ~machine proc = register t ~machine (Control.of_proc proc)

let register_service t ~name ~kill ~freeze ~unfreeze =
  Hashtbl.replace t.services name
    { svc_kill = kill; svc_freeze = freeze; svc_unfreeze = unfreeze }

let breakpoint t ~machine kind fn =
  let self = Proc.self () in
  (match Hashtbl.find_opt t.by_machine machine with
  | Some inst -> (
      match inst.ctl with
      | Some ctl when Proc.pid ctl.Control.proc = Proc.pid self ->
          dispatch t inst (Ev_breakpoint (kind, fn))
      | Some _ | None -> ())
  | None -> ());
  (* A halt lands at the next suspension point and a stop buffers it;
     yielding realises both before the function body runs. *)
  Proc.yield ()

(* ------------------------------------------------------------------ *)
(* Introspection *)

let instances t = t.all

let find_instance t id = Hashtbl.find_opt t.by_name id

let instance_machine inst = inst.machine
let instance_node inst = (current_node inst).Automaton.node_id
let controlled inst = inst.ctl

let read_var t ~instance name =
  match Hashtbl.find_opt t.by_name instance with
  | None -> None
  | Some inst ->
      let rec find i =
        if i >= Array.length inst.automaton.Automaton.var_names then None
        else if String.equal inst.automaton.Automaton.var_names.(i) name then
          Some inst.vars.(i)
        else find (i + 1)
      in
      find 0

let injected_faults t = t.fault_count
let net_faults t = t.net_fault_count

(* ------------------------------------------------------------------ *)
(* Fork-point surgery (the explorer's prefix-sharing scheduler)

   At a pause just before a scenario timer fires, the explorer branches
   one shared run into the sibling plans of a prefix tree: it re-aims
   the pending timer at a sibling's injection delay ([retime_timer],
   seq-preserving so same-instant ties still break as a from-scratch
   run's would) and installs the sibling plan's automata ([swap_plan]).
   Both leave timer generations, variables and every other part of the
   run untouched, which is what keeps a forked branch byte-identical to
   replaying that plan from t=0. *)

let retime_timer t ~instance ~time =
  match Hashtbl.find_opt t.by_name instance with
  | None -> invalid_arg (Printf.sprintf "Runtime.retime_timer: unknown instance %s" instance)
  | Some inst -> (
      match inst.timer_handle with
      | None ->
          invalid_arg (Printf.sprintf "Runtime.retime_timer: %s has no armed timer" instance)
      | Some h ->
          let h' = Engine.retime h ~time in
          inst.timer_handle <- Some h';
          h')

let swap_plan t (plan : Compile.plan) =
  let swap_instance ~id ~daemon =
    let inst =
      match Hashtbl.find_opt t.by_name id with
      | Some i -> i
      | None ->
          invalid_arg (Printf.sprintf "Runtime.swap_plan: plan deploys unknown instance %s" id)
    in
    let automaton =
      match Compile.automaton plan daemon with
      | Some a -> a
      | None -> invalid_arg (Printf.sprintf "Runtime.swap_plan: unknown daemon %s" daemon)
    in
    if automaton.Automaton.var_names <> inst.automaton.Automaton.var_names then
      invalid_arg (Printf.sprintf "Runtime.swap_plan: %s: variable layout differs" id);
    (* The current node is re-located by name: sibling plans can shift
       node indices (e.g. a different set of frozen nodes), but a shared
       prefix guarantees the node the instance sits in exists in both. *)
    let node_id = (current_node inst).Automaton.node_id in
    match Automaton.node_index automaton node_id with
    | Some idx ->
        inst.automaton <- automaton;
        inst.node <- idx
    | None ->
        invalid_arg
          (Printf.sprintf "Runtime.swap_plan: %s: node %s missing from the new automaton" id
             node_id)
  in
  List.iter
    (fun dep ->
      match dep with
      | Ast.Dep_singleton { inst; daemon; _ } -> swap_instance ~id:inst ~daemon
      | Ast.Dep_group { inst; count; daemon; _ } ->
          for i = 0 to count - 1 do
            swap_instance ~id:(Printf.sprintf "%s[%d]" inst i) ~daemon
          done)
    plan.Compile.deployments

let suspected t =
  List.filter_map (fun inst -> if inst.suspected then Some inst.id else None) t.all

(* ------------------------------------------------------------------ *)
(* Fabric attachment and teardown *)

let set_topology t topo = t.topo <- Some topo

let set_fabric t p =
  t.net <- Some p;
  (* A launch-time profile ([--net-loss] etc.) has already touched the
     fabric by the time the runtime sees it; scenario-driven faults start
     the monitor from their own actions instead. *)
  if Perturb.touched p then ensure_monitor t

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    (match t.hb_handle with
    | Some h ->
        Engine.cancel h;
        t.hb_handle <- None
    | None -> ());
    Hashtbl.iter (fun _ h -> Engine.cancel h) t.retries;
    Hashtbl.reset t.retries;
    List.iter
      (fun inst ->
        match inst.timer_handle with
        | Some h ->
            Engine.cancel h;
            inst.timer_handle <- None
        | None -> ())
      t.all
  end
