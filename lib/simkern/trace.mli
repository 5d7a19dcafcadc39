(** Structured execution trace.

    The paper distinguishes non-terminating runs (rollback/crash cycles)
    from buggy runs (freezes) by analysing the execution trace (§5). Every
    protocol component records its externally observable events here, and
    {!Experiments} classifies outcomes from the same information.

    Event names are free-form strings, but the protocol stacks use a
    stable vocabulary that {!Experiments.Trace_analysis} relies on:
    - rollback recovery (Vcl / V2): ["failure-detected"],
      ["recovery-start"], ["recovery-complete"], ["rank-resumed"],
      ["wave-commit"], ["commit-rank"], ["dispatcher-confused"];
    - active replication (mpirep): ["replica-failover"] (a replica died
      and a live sibling carries on, no rollback), ["replica-respawn"]
      (a fresh replica rejoined after a state transfer from a live
      sibling), ["replication-exhausted"] (every replica of one logical
      rank died inside the failover window — the run is lost);
    - fault injection: ["halt"] for every FAIL [halt] executed.

    Recording is the simulator's hottest allocation path, so the trace
    is tuned for campaigns that never print it: entries live in a
    growable array (no per-entry list cell), detail payloads can be
    deferred closures rendered only when the trace is actually read
    ({!entries}, {!find_all}, {!last}, {!pp}), and a record-level gate
    lets quantitative campaigns drop per-message protocol chatter
    ({!Full}-level events) while keeping the milestone events the
    analyses above need ({!Summary} level). *)

(** Verbosity: a trace created at [Summary] keeps only milestone events;
    [Full] (the default) keeps everything. An entry recorded with
    [~level:Full] is dropped by a [Summary] trace. *)
type level = Summary | Full

type entry = {
  time : float;  (** simulated time of the event *)
  source : string;  (** component that recorded it, e.g. ["dispatcher"] *)
  event : string;  (** event kind, e.g. ["failure-detected"] *)
  detail : string;  (** free-form payload *)
}

type t

(** [create ?level ()] returns an empty trace keeping events up to
    [level] (default {!Full}). *)
val create : ?level:level -> unit -> t

(** [level t] is the trace's record-level gate. *)
val level : t -> level

(** [enabled t lvl] is [true] iff an event recorded at [lvl] is kept. *)
val enabled : t -> level -> bool

(** [record ?level t ~time ~source ~event detail] appends an entry
    (dropped when [level] — default {!Summary}, i.e. always kept — is
    gated out by the trace). *)
val record : ?level:level -> t -> time:float -> source:string -> event:string -> string -> unit

(** [record_lazy ?level t ~time ~source ~event f] appends an entry whose
    detail is [f ()], rendered (once) only if the trace is read — the
    allocation-light form for hot-path events. [f] must be pure: it may
    run long after the simulated moment. Rendering is safe when several
    domains read the same completed trace concurrently: the memoisation
    is guarded, so [f] runs exactly once. *)
val record_lazy :
  ?level:level -> t -> time:float -> source:string -> event:string -> (unit -> string) -> unit

(** [record_fmt ?level t ~time ~source ~event fmt ...] is {!record} with a
    printf-style detail, e.g.
    [record_fmt t ~time ~source:"dispatcher" ~event:"launch" "rank %d" r].
    When the entry is gated out the format arguments are consumed without
    formatting (no allocation). *)
val record_fmt :
  ?level:level ->
  t ->
  time:float ->
  source:string ->
  event:string ->
  ('a, unit, string, unit) format4 ->
  'a

(** [entries t] returns all entries in recording order. *)
val entries : t -> entry list

(** [events t] returns the [(source, event)] pair of every entry in
    recording order, without rendering detail payloads — the cheap
    projection {!Explore} hashes into a run's coverage signature. *)
val events : t -> (string * string) list

(** [length t] is the number of entries. *)
val length : t -> int

(** [count t ~event] counts entries of the given kind. *)
val count : t -> event:string -> int

(** [find_all t ~event] returns entries of the given kind, oldest first. *)
val find_all : t -> event:string -> entry list

(** [last t ~event] returns the most recent entry of the given kind. *)
val last : t -> event:string -> entry option

(** [last_time t ~event] is the time of the most recent entry of the given
    kind, if any. *)
val last_time : t -> event:string -> float option

(** [clear t] drops all entries. *)
val clear : t -> unit

(** [truncate t n] drops every entry recorded after the first [n] —
    the restore half of a snapshot that remembered [length t]. Raises
    [Invalid_argument] if [n] is negative or beyond the current
    length. *)
val truncate : t -> int -> unit

(** [pp ppf t] prints the trace, one entry per line. *)
val pp : Format.formatter -> t -> unit

val pp_entry : Format.formatter -> entry -> unit
