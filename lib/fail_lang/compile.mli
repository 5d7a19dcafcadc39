(** Compiler from checked FAIL programs to automata and a deployment plan.

    The pipeline ([parse] → [Sema.check] → [compile]) is the OCaml
    counterpart of the FCI compiler, which turned FAIL scenarios into C++
    sources bundled with the FCI library. *)

type plan = {
  automata : (string * Automaton.t) list;  (** one per daemon, by name *)
  deployments : Ast.deployment list;
}

(** [compile_source ?params src] runs the whole pipeline on FAIL source
    text. *)
val compile_source : ?params:(string * int) list -> string -> (plan, string) result

(** [automaton plan name] looks up a compiled daemon. *)
val automaton : plan -> string -> Automaton.t option
