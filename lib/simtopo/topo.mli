(** Physical network topologies for the simulated fabric.

    [Simnet] models a flat full mesh: every host pair has a private
    link, so faults can only be expressed per host or per link.  Real
    clusters fail along topology lines — a top-of-rack switch dies and
    takes a whole rack's connectivity with it.  This module supplies
    the missing geometry: topology builders (fat-tree, torus, flat
    mesh as the degenerate case), deterministic shortest-path routing
    over switch nodes, and the mapping from a failed {e component}
    (switch, pod, rack) to the exact set of host pairs whose route
    crosses it.

    The module is pure combinatorics — no engine, no RNG, no mutable
    state — so building a topology or computing a cut set can never
    perturb a simulation.  Component faults are applied by the FCI
    runtime through {!Simnet.Net.Perturb}'s pair-level primitives;
    unperturbed runs never consult the topology at all. *)

type spec =
  | Flat  (** full mesh, no switches: exactly today's fabric *)
  | Fat_tree of { k : int }
      (** [k]-ary fat tree ([k] even, >= 2): [k] pods of [k/2] edge and
          [k/2] aggregation switches, [(k/2)^2] core switches,
          [k^3/4] hosts, [k/2] hosts per edge switch (a "rack") *)
  | Torus2d of { x : int; y : int }  (** [x*y] hosts, wrap-around grid links *)
  | Torus3d of { x : int; y : int; z : int }  (** [x*y*z] hosts *)

type tier = Edge | Agg | Core

type component =
  | Switch of tier * int  (** per-tier switch index *)
  | Pod of int
  | Rack of int  (** the host group under one edge switch *)

type t

val hosts : t -> int

(** Total switch count across all tiers. *)
val switches : t -> int

(** Physical links: host-edge + edge-agg + agg-core, or torus edges. *)
val links : t -> int
val pod_count : t -> int
val rack_count : t -> int
val switch_count : t -> tier -> int
val pod_of_host : t -> int -> int option
val rack_of_host : t -> int -> int option

val component_name : component -> string

(** [validate spec] checks the arity/dimension constraints and returns
    the exact complaint for a CLI to print. *)
val validate : spec -> (unit, string) result

(** [build spec ~n_hosts] builds the topology.  [n_hosts] sizes the
    degenerate [Flat] mesh (which has no intrinsic size); the sized
    specs ignore it.  Raises [Invalid_argument] on a spec [validate]
    rejects. *)
val build : spec -> n_hosts:int -> t

(** [for_cluster spec ~n_compute] is [build] plus the launch-time
    check that the topology seats every compute host (hosts [0 ..
    n_compute-1] map onto topology hosts one-to-one; service hosts
    beyond the compute pool ride a management network outside the
    fabric).  Raises [Invalid_argument] with an exact message
    otherwise. *)
val for_cluster : spec -> n_compute:int -> t

(** [route t ~src ~dst] is the deterministic switch path a message
    takes, as [(tier, per-tier index)] pairs — [[]] when the hosts are
    directly wired (flat mesh, torus, [src = dst]).  Symmetric:
    [route t ~src ~dst] visits the same switches as
    [route t ~src:dst ~dst:src].  Pure function of [(t, src, dst)],
    so identical at any [--jobs]. *)
val route : t -> src:int -> dst:int -> (tier * int) list

(** [path_len t ~src ~dst] is the hop count (number of physical links)
    of the deterministic route; [0] when [src = dst]. *)
val path_len : t -> src:int -> dst:int -> int

(** [check_component t c] rejects components the topology does not
    have (any component on a flat mesh or torus, out-of-range
    indices) with the exact complaint. *)
val check_component : t -> component -> (unit, string) result

(** [hosts_of t c] is the host set a component encloses: a rack's or
    pod's members, an edge switch's rack.  Aggregation and core
    switches enclose no hosts ([[]]); so does any invalid component. *)
val hosts_of : t -> component -> int list

(** [cut_pairs t c] is every host pair [(a, b)], [a < b], whose
    deterministic route crosses [c] — the exact blast radius of
    killing that component.  Routing is static (no adaptive reroute):
    a pair is cut even if the physical graph still has another path.
    [Pod]/[Rack] components cut every pair with at least one endpoint
    inside (the enclosure loses power, edge switches included). *)
val cut_pairs : t -> component -> (int * int) list

(** [severed_hosts t c] is the hosts that lose {e all} connectivity
    when [c] dies — their only uplink goes through it.  An edge
    switch severs its rack; a pod or rack severs its members;
    aggregation and core switches sever nobody (other routes exist
    for each host, just not for each pair). *)
val severed_hosts : t -> component -> int list

(** [intra_pairs t c] is every host pair wholly inside the component —
    the link set a [degrade pod p] spec applies to. *)
val intra_pairs : t -> component -> (int * int) list

val spec_to_string : spec -> string

(** [spec_of_string s] parses ["flat"], ["fat-tree:K"], ["torus:XxY"]
    or ["torus:XxYxZ"]; total, for CLI flags. *)
val spec_of_string : string -> (spec, string) result
