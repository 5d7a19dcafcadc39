(** The five builtin protocol backends, one per [Config.protocol]
    constructor. *)

module Vcl : Intf.S
module Blocking : Intf.S
module V2 : Intf.S
module Replication : Intf.S
module Ulfm : Intf.S

(** [vcl], [blocking], [v2], [replication], [ulfm] — the order every
    experiment reports families in. *)
val all : Intf.t list
