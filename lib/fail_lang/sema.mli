(** Semantic analysis for FAIL programs.

    [check ?params program] validates a parsed program and returns it in
    resolved form:
    - scenario parameters (the paper's [X], [N]) are substituted as integer
      constants; an unbound identifier in an expression is an error;
    - bare send destinations are reclassified: a name deployed as a group
      becomes {!Ast.D_group} (broadcast);
    - structural checks: unique daemon/instance names, unique node ids,
      resolvable [goto] targets, [timer] guards only in nodes that declare
      a timer, [FAIL_SENDER] only in [?msg]-triggered transitions, no
      variable shadowing, deployment arities and machine ranges.

    Destination names are checked against deployments only when the
    program declares deployments (a bare daemon library is fine). *)

(** [check ?params p] returns the resolved program. Raises {!Loc.Error}. *)
val check : ?params:(string * int) list -> Ast.program -> Ast.program

