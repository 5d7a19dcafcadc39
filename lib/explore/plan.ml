module S = Fail_lang.Codegen.Scenario
module Fault = Fail_lang.Fault
include Fault.Types

type fault = injection

type t = { n_machines : int; faults : fault list }

let align_service = Fault.align

let fault_key f =
  match f.anchor with
  | After d -> Printf.sprintf "%s@%d+%d" (Fault.tag f.kind) f.machine d
  | On_reload { nth; delay } ->
      Printf.sprintf "%s@%d@reload%d+%d" (Fault.tag f.kind) f.machine nth delay

let key p = String.concat ";" (List.map fault_key p.faults)

(* Unsigned decimal: [int_of_string] alone also takes a sign, [0x] and [_]. *)
let nat s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

(* Inverse of [fault_key]: "tag@machine+delay" or
   "tag@machine@reloadN+delay".  Total — every malformed shape comes
   back as [Error] — because keys flow in from corpus files on disk, and
   it accepts only what [fault_key] prints for an aligned fault. *)
let fault_of_key s =
  let ( let* ) = Option.bind in
  let fault tag m anchor =
    let* kind = Fault.of_tag tag in
    let* machine = nat m in
    let f = align_service { machine; anchor; kind } in
    if String.equal (fault_key f) s then Some f else None
  in
  let parsed =
    match String.split_on_char '@' s with
    | [ tag; rest ] -> (
        match String.split_on_char '+' rest with
        | [ m; d ] ->
            let* delay = nat d in
            fault tag m (After delay)
        | _ -> None)
    | [ tag; m; rest ] -> (
        match String.split_on_char '+' rest with
        | [ reload; d ] when String.starts_with ~prefix:"reload" reload ->
            let* nth = nat (String.sub reload 6 (String.length reload - 6)) in
            let* delay = nat d in
            fault tag m (On_reload { nth; delay })
        | _ -> None)
    | _ -> None
  in
  Option.to_result ~none:(Printf.sprintf "malformed fault key %S" s) parsed

let of_key ~n_machines s =
  if s = "" then Error "empty plan key"
  else
    let rec go acc = function
      | [] -> Ok { n_machines; faults = List.rev acc }
      | fk :: rest -> (
          match fault_of_key fk with
          | Ok f -> go (f :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ';' s)

let to_scenario p = S.source ~n_machines:p.n_machines p.faults

