(** Recursive-descent parser for the FAIL language.

    Grammar (tokens in caps, [*]/[+]/[?] as usual):
    {v
    program    := (daemon | deployment)* EOF
    daemon     := 'Daemon' IDENT '{' var_decl* node+ '}'
    var_decl   := 'int' IDENT '=' expr ';'
    node       := 'node' node_id ':' item*
    node_id    := INT | IDENT
    item       := 'always' 'int' IDENT '=' expr ';'
                | 'time' IDENT '=' expr ';'
                | transition
    transition := guard '->' action (',' action)* ';'
    guard      := gatom ('&&' gatom)*
    gatom      := 'timer' | '?' IDENT | 'onload' | 'onexit' | 'onerror'
                | 'before' '(' IDENT ')' | 'after' '(' IDENT ')'
                | 'watch' '(' IDENT ')' | expr relop expr
    action     := 'goto' node_id | '!' IDENT '(' dest ')'
                | 'halt' | 'stop' | 'continue'
                | 'set' IDENT '=' expr | IDENT '=' expr
    dest       := 'FAIL_SENDER' | IDENT ('[' expr ']')?
    deployment := IDENT ('[' INT ']')? ':' IDENT 'on'
                  ('machine' INT | 'machines' INT '..' INT) ';'
    expr       := arithmetic over INT, IDENT, '@' IDENT,
                  'FAIL_RANDOM' '(' expr ',' expr ')', parentheses
    v}

    At most one trigger atom is allowed per guard. A bare [IDENT]
    destination parses as {!Ast.D_instance}; {!Sema} reclassifies it to
    {!Ast.D_group} when the name is deployed as a group. *)

(** [parse src] parses a full program. Raises {!Loc.Error}. *)
val parse : string -> Ast.program

(** [parse_expr src] parses a single expression (for tests and the CLI). *)
val parse_expr : string -> Ast.expr
