(** Back-ends for compiled scenarios.

    The original FCI compiler emitted C++ sources that were shipped to the
    target machines and compiled there. Our runtime interprets the
    automaton directly, so code generation is used for inspection: a
    human-readable dump and a Graphviz rendering of the state machines. *)

(** [dump plan] renders every automaton of the plan in the textual IR
    format of {!Automaton.pp}, plus the deployment table. *)
val dump : Compile.plan -> string

(** [to_dot automaton] renders one daemon as a Graphviz digraph; node
    labels carry always/timer declarations, edge labels the guards and
    actions. *)
val to_dot : Automaton.t -> string

(** Deterministic fault-plan scenarios — the replay format of
    [lib/explore].

    A plan is a list of injections executed in order by a coordinator
    daemon [PLAN] (deployed on the FAIL coordinator machine), each
    aimed at one per-machine controller of the [NODE] group (deployed
    on machines [0 .. n_machines-1], so respawned ranks on spare hosts
    stay controllable). Two anchors:

    - [After d]: fire [d] seconds after the previous fault fired (or
      after scenario start, for the first injection) — timers arm on
      node entry;
    - [On_reload { nth; delay }]: wait until the [nth] cumulative
      process registration reported by the controllers (initial
      launches count), then fire [delay] seconds later — the Figure 8
      "synchronize on the recovery wave" idiom.

    [source] pretty-prints via {!Pp}, so the emitted text parses back
    ({!injections_of_program} is its structural inverse), can be saved
    as a [.fail] file and replayed with [failmpi_run]. *)
module Scenario : sig
  (** Kinds, anchors and injections, re-exported from {!Fault}. *)
  include module type of struct
    include Fault.Types
  end

  (** [program ~n_machines injections] builds the scenario AST (already
      in checked form: no parameters, no bare group destinations). *)
  val program : n_machines:int -> injection list -> Ast.program

  (** [source ~n_machines injections] is the scenario as FAIL source. *)
  val source : n_machines:int -> injection list -> string

  (** [injections_of_program p] recovers [(n_machines, injections)] from
      a (checked) program of the generated shape — including hand-written
      files like [scenarios/double_strike.fail] after parameter
      substitution. *)
  val injections_of_program : Ast.program -> (int * injection list, string) result
end
