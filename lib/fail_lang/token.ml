type t =
  | IDENT of string
  | INT of int
  | KW_daemon
  | KW_node
  | KW_int
  | KW_time
  | KW_always
  | KW_timer
  | KW_onload
  | KW_onexit
  | KW_onerror
  | KW_before
  | KW_after
  | KW_goto
  | KW_halt
  | KW_stop
  | KW_continue
  | KW_on
  | KW_machine
  | KW_machines
  | KW_random
  | KW_sender
  | KW_watch
  | KW_set
  | KW_partition
  | KW_heal
  | KW_degrade
  | KW_switch
  | KW_pod
  | KW_rack
  | KW_service
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COLON
  | SEMI
  | COMMA
  | ARROW
  | BANG
  | QUESTION
  | AT
  | AND
  | EQEQ
  | NEQ
  | LE
  | GE
  | LT
  | GT
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | DOTDOT
  | EOF

type located = { tok : t; loc : Loc.t }

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | KW_daemon -> "'Daemon'"
  | KW_node -> "'node'"
  | KW_int -> "'int'"
  | KW_time -> "'time'"
  | KW_always -> "'always'"
  | KW_timer -> "'timer'"
  | KW_onload -> "'onload'"
  | KW_onexit -> "'onexit'"
  | KW_onerror -> "'onerror'"
  | KW_before -> "'before'"
  | KW_after -> "'after'"
  | KW_goto -> "'goto'"
  | KW_halt -> "'halt'"
  | KW_stop -> "'stop'"
  | KW_continue -> "'continue'"
  | KW_on -> "'on'"
  | KW_machine -> "'machine'"
  | KW_machines -> "'machines'"
  | KW_random -> "'FAIL_RANDOM'"
  | KW_sender -> "'FAIL_SENDER'"
  | KW_watch -> "'watch'"
  | KW_set -> "'set'"
  | KW_partition -> "'partition'"
  | KW_heal -> "'heal'"
  | KW_degrade -> "'degrade'"
  | KW_switch -> "'switch'"
  | KW_pod -> "'pod'"
  | KW_rack -> "'rack'"
  | KW_service -> "'service'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COLON -> "':'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | ARROW -> "'->'"
  | BANG -> "'!'"
  | QUESTION -> "'?'"
  | AT -> "'@'"
  | AND -> "'&&'"
  | EQEQ -> "'=='"
  | NEQ -> "'!='"
  | LE -> "'<='"
  | GE -> "'>='"
  | LT -> "'<'"
  | GT -> "'>'"
  | ASSIGN -> "'='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | DOTDOT -> "'..'"
  | EOF -> "end of input"

