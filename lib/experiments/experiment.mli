(** Every experiment of [failmpi_experiments]: the paper's figures and
    table (§5), the ablations of DESIGN.md and this repository's grids
    (protocol families, network, topology, shrink, storage-plane, scale
    and checkpoint-delay campaigns), each a list of tables of
    {!Harness.cell}s.

    An experiment has two sizes: the full grid, and the [quick] one
    that CI and the smoke runs use. Building the tables runs nothing;
    {!run} runs each table's cells as one {!Harness.campaign}. *)

type table = {
  title : string;
  columns : Harness.column list;
  cells : string Harness.cell list;  (** tagged with their row label *)
  csv : string option;  (** file stem under [--csv DIR], if any *)
}

type t = {
  name : string;  (** the CLI name *)
  tables : quick:bool -> table list;
  note : string option;
      (** what the paper reports, or what the grid is expected to show *)
}

(** Every experiment, in CLI order: table1, fig5, fig6, fig7, fig9,
    fig11, ablations, families, netfault, topo, shrink, scale,
    ckptfault, delay. *)
val all : t list

val names : string list

(** [run ~quick ~csv e] runs and prints each table of [e] (writing
    [DIR/<stem>.csv] first when [csv] is [Some DIR] and the table has a
    stem), then the note. *)
val run : quick:bool -> csv:string option -> t -> unit

(** The quorum-loss cell of the shrink grid: six of the eleven epoch-0
    members of its 22-machine cluster (9 ranks of class A, two warm
    spares) partitioned, each on its own. *)
val quorum_loss : string

(** The delay experiment's FAIL scenario: a single fault [delay]
    seconds after the second completed checkpoint wave of machine 0. *)
val delay_scenario : delay:int -> string
