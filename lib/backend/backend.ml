module Metrics = Metrics

type status = Intf.status =
  | Running
  | Completed of float
  | Degraded of { at : float; survivors : int }
  | Aborted of string
  | Ckpt_lost
  | Frozen

module type S = Intf.S

type t = Intf.t

module Builtin = Builtin

let all () = Builtin.all
let names () = List.map (fun (module B : S) -> B.name) Builtin.all

let find name =
  List.find_opt (fun (module B : S) -> B.name = name || List.mem name B.aliases) Builtin.all

let of_protocol : Mpivcl.Config.protocol -> t = function
  | Mpivcl.Config.Non_blocking -> (module Builtin.Vcl)
  | Mpivcl.Config.Blocking -> (module Builtin.Blocking)
  | Mpivcl.Config.Sender_logging -> (module Builtin.V2)
  | Mpivcl.Config.Replication _ -> (module Builtin.Replication)
  | Mpivcl.Config.Ulfm _ -> (module Builtin.Ulfm)
