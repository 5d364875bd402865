(** Hedged scatter-gather serving over a {!Replica} group.

    [treesketch coordinate] runs one of these: a front-end server
    speaking the same line protocol as [treesketch serve], forwarding
    every read to a group of identical replicas.  The coordinator owns
    no catalog — its job is {e routing}:

    - {e Hedging}: QUERY/ANSWER go to the healthiest replica first; if
      no response lands within [hedge_after], the same request races a
      second, next-healthiest member.  The first well-formed response
      wins; the losers are cancelled by closing their connections
      (servers observe the severed socket and stop caring).  Hedging
      converts one slow replica from a p99 disaster into a
      [hedge_after]-sized blip.
    - {e Retry budget}: hedges and retries draw from a per-group
      {!Replica.Budget} token bucket refilled at [retry_ratio] per
      primary request.  A healthy group never notices it; a group-wide
      brownout runs the bucket dry and amplification is bounded instead
      of snowballing into a connect storm.
    - {e Health-gated routing}: a background prober HEALTHs every
      member each [probe_interval]; probe results and live-traffic
      outcomes feed {!Replica} outlier ejection, so a dead or draining
      member stops being anyone's primary within a probe period.
    - {e Deadline propagation}: the forwarded line's [-deadline] is
      rewritten to what the caller has {e left} (minus coordinator
      queueing/connect time) — a replica is never granted more budget
      than exists ({!Protocol.with_remaining_deadline}).
    - {e Single-target refusal}: every verb in
      {!Protocol.single_target_verbs} but QUIT (BUILD, INGEST, DELETE,
      UPDATE, RELOAD, CANCEL, JOBS, SCRUB, FETCH, REPAIR) is answered
      [error bad-request ...] — a group must never pick the target of a
      side effect implicitly.  Operators address one replica directly
      ([treesketch client --target]); a refused mutation names the
      group's most writable member.

    Every read (QUERY, ANSWER, LIST, STAT) is hedged: reads are
    idempotent across an identical group, and an unhedged read whose
    primary freezes would burn the whole request timeout with no
    rescue.  PING, HEALTH and QUIT are answered locally;
    the coordinator's HEALTH line aggregates group state and the
    hedge/budget counters the chaos harness asserts on. *)

type config = {
  hedge_after : float;
      (** seconds without a response before a hedge launches *)
  request_timeout : float;
      (** overall per-request ceiling, seconds (a request's own
          [-deadline] may only tighten it) *)
  connect_timeout : float;  (** per-replica connect + send budget *)
  max_attempts : int;
      (** replicas tried per request (primary + hedges + retries) *)
  retry_ratio : float;
      (** budget tokens deposited per primary request — long-run
          hedges+retries <= ratio x traffic *)
  retry_burst : float;  (** budget bucket cap (and starting level) *)
  probe_interval : float;  (** seconds between background HEALTH sweeps *)
  probe_timeout : float;  (** per-probe round-trip budget *)
  replica : Replica.config;  (** ejection knobs *)
  max_inflight : int;  (** connections before shedding, as in Server *)
  drain_deadline : float;
      (** seconds a drain waits for in-flight scatters *)
}

val default_config : config
(** 50 ms hedge, 5 s request, 1 s connect, 3 attempts, 0.2 retry ratio,
    burst 10, 500 ms probe sweeps, 64 connections, 5 s drain. *)

type stats = {
  mutable requests : int;  (** request lines handled *)
  mutable forwarded : int;  (** lines scattered to the group *)
  mutable hedges : int;  (** hedge flights launched (budget-admitted) *)
  mutable hedges_won : int;  (** requests a hedge answered first *)
  mutable hedges_suppressed : int;
      (** hedge opportunities skipped because every member's last
          probed HEALTH reported [load>0] — racing a second copy
          against a uniformly browned-out group only adds load *)
  mutable retries : int;  (** relaunches after every flight died *)
  mutable refused : int;  (** single-target verbs refused *)
  mutable failures : int;  (** requests answered with a local error *)
}

type t

val create : ?log:(string -> unit) -> ?config:config -> string list -> t
(** [create paths] coordinates the replica group at socket [paths].
    Raises [Invalid_argument] on an empty list or nonsensical config.
    [log] receives structured one-line records; default stderr. *)

val stats : t -> stats

val group : t -> Replica.t

val budget : t -> Replica.Budget.t

val handle_line : t -> string -> string * bool
(** One supervised request: the response line and whether the client
    asked to QUIT.  Total — never raises.  QUERY/ANSWER block until the
    scatter resolves (a response, the deadline, or group exhaustion). *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Stdio front end ({!Transport.serve_lines}): serve line-by-line
    until EOF, QUIT or drain.  No prober runs. *)

val serve_socket : t -> path:string -> unit
(** Serve a Unix domain socket at [path] through the shared listener
    ({!Transport.serve_connections}), with the background prober
    running throughout.  Returns only after a drain: after the
    listener's drain the prober joins and a final [event=drained]
    record with the hedge/budget counters is logged.  The caller then
    exits 0. *)

val draining : t -> bool

val request_drain : t -> unit
(** Flip into draining mode; async-signal-safe and idempotent. *)

val install_drain_signals : t -> unit
(** Route SIGTERM/SIGINT to {!request_drain}. *)
