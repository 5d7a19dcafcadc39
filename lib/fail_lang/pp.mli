(** Pretty-printer for FAIL programs.

    [Parser.parse (Pp.program_to_string p)] yields a program
    equal to [p] up to locations — the round-trip property checked by the
    test suite. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_action : Format.formatter -> Ast.action -> unit
val pp_deployment : Format.formatter -> Ast.deployment -> unit

val program_to_string : Ast.program -> string
