(** Lexical tokens of the FAIL language. *)

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
  | KW_random  (** [FAIL_RANDOM] *)
  | KW_sender  (** [FAIL_SENDER] *)
  | KW_watch
  | KW_set
  | KW_partition  (** network cut between host sets *)
  | KW_heal  (** remove every network fault *)
  | KW_degrade  (** lossy / slow links *)
  | KW_switch  (** fabric switch component, [switch agg\[2\]] *)
  | KW_pod  (** fat-tree pod component *)
  | KW_rack  (** rack (edge-switch host set) component *)
  | KW_service  (** infrastructure service target, [halt service ckpt\[0\]] *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COLON
  | SEMI
  | COMMA
  | ARROW  (** [->] *)
  | BANG
  | QUESTION
  | AT
  | AND  (** [&&] *)
  | EQEQ
  | NEQ  (** [!=] or [<>] *)
  | LE
  | GE
  | LT
  | GT
  | ASSIGN  (** [=] *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | DOTDOT
  | EOF

type located = { tok : t; loc : Loc.t }

val to_string : t -> string
