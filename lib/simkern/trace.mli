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

    Entries live in a growable array of immutable records, so several
    domains can read a completed trace with no lock. A record-level gate
    lets quantitative campaigns drop per-message protocol chatter
    ({!Full}-level events) while keeping the milestone events the
    analyses above need ({!Summary} level); a gated-out event's detail is
    never formatted. The gate saves entries, not allocation: the
    [campaign] bench's BT-9 run keeps 10,205 entries at [Full] and 2,362
    at [Summary], but allocates 9.62M and 9.26M minor words
    ([BENCH_campaign.json]). *)

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

(** [record ?level t ~time ~source ~event fmt ...] appends an entry
    whose detail is formatted printf-style, e.g.
    [record t ~time ~source:"dispatcher" ~event:"launch" "rank %d" r].
    When [level] (default {!Summary}, i.e. always kept) is gated out by
    the trace, the format arguments are consumed without formatting. *)
val record :
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
    recording order — the projection {!Explore} hashes into a run's
    coverage signature. *)
val events : t -> (string * string) list

(** [length t] is the number of entries. *)
val length : t -> int

(** [pp ppf t] prints the trace, one entry per line. *)
val pp : Format.formatter -> t -> unit

val pp_entry : Format.formatter -> entry -> unit
