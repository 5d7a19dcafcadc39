module Types = struct
  type service = S_ckpt of int | S_sched | S_disp

  type kind =
    | Kill
    | Freeze of { thaw : int }
    | Partition
    | Degrade of { loss : int; latency : int }
    | Heal
    | Switch_kill of { tier : Ast.tier }
    | Pod_degrade of { loss : int; latency : int }
    | Service_kill of { service : service }
    | Service_freeze of { service : service; thaw : int }

  type anchor = After of int | On_reload of { nth : int; delay : int }

  type injection = { machine : int; anchor : anchor; kind : kind }
end

include Types

let service_word = function S_ckpt _ -> "ckpt" | S_sched -> "sched" | S_disp -> "disp"

(* How a kind prints: its key-tag words and its report-name words, each
   word followed in turn by one integer parameter.  Words hold no
   digits, so the digit runs of a tag are its parameters. *)
type words = { key : string list; report : string list; params : int list }

let words = function
  | Kill -> { key = [ "kill" ]; report = [ "kill" ]; params = [] }
  | Freeze { thaw } -> { key = [ "freeze" ]; report = [ "freeze" ]; params = [ thaw ] }
  | Partition -> { key = [ "part" ]; report = [ "partition" ]; params = [] }
  | Degrade { loss; latency } ->
      { key = [ "deg"; "l" ]; report = [ "degrade"; "l" ]; params = [ loss; latency ] }
  | Heal -> { key = [ "heal" ]; report = [ "heal" ]; params = [] }
  | Switch_kill { tier } ->
      let t = Ast.tier_name tier in
      { key = [ "sw" ^ t ]; report = [ "switch-kill-" ^ t ]; params = [] }
  | Pod_degrade { loss; latency } ->
      { key = [ "pdeg"; "l" ]; report = [ "pod-degrade"; "l" ]; params = [ loss; latency ] }
  | Service_kill { service } ->
      let s = service_word service in
      { key = [ "sk" ^ s ]; report = [ "service-kill-" ^ s ]; params = [] }
  | Service_freeze { service; thaw } ->
      let s = service_word service in
      { key = [ "sf" ^ s ]; report = [ "service-freeze-" ^ s ]; params = [ thaw ] }

let rec interleave words params =
  match (words, params) with
  | w :: ws, p :: ps -> w :: string_of_int p :: interleave ws ps
  | ws, [] -> ws
  | [], ps -> List.map string_of_int ps

let tag k =
  let w = words k in
  String.concat "" (interleave w.key w.params)

let name k =
  let w = words k in
  String.concat "" (interleave w.report w.params)

(* [k]'s constructor (tier, service) with other parameters. *)
let with_params k params =
  match (k, params) with
  | (Kill | Partition | Heal | Switch_kill _ | Service_kill _), [] -> Some k
  | Freeze _, [ thaw ] -> Some (Freeze { thaw })
  | Degrade _, [ loss; latency ] -> Some (Degrade { loss; latency })
  | Pod_degrade _, [ loss; latency ] -> Some (Pod_degrade { loss; latency })
  | Service_freeze { service; _ }, [ thaw ] -> Some (Service_freeze { service; thaw })
  | ( ( Kill | Freeze _ | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _
      | Service_kill _ | Service_freeze _ ),
      _ ) ->
      None

(* Every constructor, tier and service, with placeholder parameters: the
   candidates [of_tag] reprints.  The compiler cannot check this list is
   complete; the key round-trip test over every kind does. *)
let shapes =
  [ Kill; Freeze { thaw = 0 }; Partition; Degrade { loss = 0; latency = 0 }; Heal ]
  @ List.map (fun tier -> Switch_kill { tier }) [ Ast.Tier_edge; Ast.Tier_agg; Ast.Tier_core ]
  @ [ Pod_degrade { loss = 0; latency = 0 } ]
  @ List.concat_map
      (fun service -> [ Service_kill { service }; Service_freeze { service; thaw = 0 } ])
      [ S_ckpt 0; S_sched; S_disp ]

(* Accept only what [tag] prints: a sign, a leading zero or a number
   too large for [int] makes the reprinted tag differ. *)
let of_tag s =
  let digits = String.map (fun c -> if c >= '0' && c <= '9' then c else ' ') s in
  let params = List.filter_map int_of_string_opt (String.split_on_char ' ' digits) in
  List.find_opt
    (fun k -> String.equal (tag k) s)
    (List.filter_map (fun shape -> with_params shape params) shapes)

let thaw = function
  | Freeze { thaw } -> Some thaw
  | Kill | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _ | Service_kill _
  | Service_freeze _ ->
      None

let align f =
  match f.kind with
  | Service_kill { service = S_ckpt _ } ->
      { f with kind = Service_kill { service = S_ckpt f.machine } }
  | Service_freeze { service = S_ckpt _; thaw } ->
      { f with kind = Service_freeze { service = S_ckpt f.machine; thaw } }
  | Service_kill { service = S_sched | S_disp } | Service_freeze { service = S_sched | S_disp; _ }
    ->
      { f with machine = 0 }
  | Kill | Freeze _ | Partition | Degrade _ | Heal | Switch_kill _ | Pod_degrade _ -> f

(* ---- coordinator actions and their inverse ----------------------- *)

let sel_of_service = function
  | S_ckpt i -> Ast.Svc_ckpt (Ast.Int i)
  | S_sched -> Ast.Svc_sched
  | S_disp -> Ast.Svc_disp

let degrade target ~loss ~latency =
  Ast.A_degrade
    {
      Ast.deg_target = target;
      deg_loss = Some (Ast.Int loss);
      deg_latency = Some (Ast.Int latency);
      deg_jitter = None;
    }

let inject ~group ~machine kind =
  let host = Ast.D_indexed (group, Ast.Int machine) in
  let now action = (action, None) in
  match kind with
  | Kill | Freeze _ -> now (Ast.A_send (tag kind, host))
  | Partition -> now (Ast.A_partition (host, None))
  | Degrade { loss; latency } -> now (degrade host ~loss ~latency)
  | Heal -> now Ast.A_heal
  | Switch_kill { tier } ->
      now (Ast.A_partition (Ast.D_topo (Ast.Sel_switch (tier, Ast.Int machine)), None))
  | Pod_degrade { loss; latency } ->
      now (degrade (Ast.D_topo (Ast.Sel_pod (Ast.Int machine))) ~loss ~latency)
  | Service_kill { service } -> now (Ast.A_halt (Some (sel_of_service service)))
  | Service_freeze { service; thaw } ->
      (* The structural analogue of the controller's frozen state,
         lifted into the coordinator: stop now, continue from a thaw
         node [thaw] s later. *)
      let sel = Some (sel_of_service service) in
      (Ast.A_stop sel, Some (thaw, Ast.A_continue sel))

(* ---- explorer axes ----------------------------------------------- *)

let explorer_kinds ~freeze ~net ~services ~topo =
  let axis on kinds = if on then kinds else [] in
  List.concat
    [
      [ Kill ];
      (match freeze with Some thaw -> [ Freeze { thaw } ] | None -> []);
      (* --net: isolate a machine, degrade its links (5% loss + 2 ms),
         and the heal that lets partitioned plans recover. *)
      axis net [ Partition; Degrade { loss = 50; latency = 2 }; Heal ];
      (* --services: shoot the storage/control plane too.  The plan's
         machine index doubles as the ckpt replica index ([align]); one
         beyond the deployed servers is a traced no-op, like shooting a
         spare. *)
      axis services
        [
          Service_kill { service = S_ckpt 0 };
          Service_freeze { service = S_ckpt 0; thaw = 20 };
          Service_kill { service = S_sched };
          Service_freeze { service = S_sched; thaw = 20 };
        ];
      (* --topo fat-tree:K: component faults.  The plan's machine index
         doubles as the component index; one that lands out of range is
         a validated no-op, like shooting a spare. *)
      axis topo
        [
          Switch_kill { tier = Ast.Tier_edge };
          Switch_kill { tier = Ast.Tier_agg };
          Pod_degrade { loss = 50; latency = 2 };
        ];
    ]
