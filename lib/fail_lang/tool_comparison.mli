(** The fault-injection tool comparison of §2.1 (the paper's only table).

    The table compares NFTAPE, LOKI and FAIL-FCI on seven criteria. The
    bench harness re-prints it; keeping it as data makes the claim set
    testable (e.g. FAIL-FCI satisfies every criterion). *)

type criterion =
  | High_expressiveness
  | High_level_language
  | Low_intrusion
  | Probabilistic_scenario
  | No_code_modification
  | Scalability
  | Global_state_injection

type tool = { tool_name : string; reference : string; supports : criterion -> bool }

val criteria : criterion list

val nftape : tool
val loki : tool
val fail_fci : tool
val tools : tool list

(** [render ()] prints the table in the paper's layout. *)
val render : unit -> string
