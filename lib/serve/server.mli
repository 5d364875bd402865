(** The [treesketch serve] runtime: a supervised request loop over a
    resident {!Catalog}.

    Requests and responses follow the line protocol of {!Protocol}.
    Three robustness mechanisms are layered on top of plain dispatch:

    - {e Cooperative cancellation}: every QUERY/ANSWER gets an
      {!Xmldoc.Budget.t} combining the server's caps with the request's
      own (requests may tighten, never widen).  A tripped deadline or
      node cap degrades the evaluation — the response carries the
      partial approximate answer flagged [degraded=<why>] — it never
      aborts the request.
    - {e Supervision}: {!handle_line} is total.  Malformed requests,
      missing synopses and unexpected evaluator exceptions all come
      back as one [error <class> <message>] line plus a structured
      stderr log record; the loop keeps serving.
    - {e Crash-safe catalog}: snapshots are hot-reloaded on change and
      quarantined (previous resident version keeps serving) when
      corrupt; see {!Catalog}.
    - {e Supervised background builds}: BUILD forks a checkpointed
      worker per job (see {!Jobs}); the supervisor is advanced
      non-blockingly on every request line, so serving latency is never
      coupled to build progress.
    - {e Process isolation} (optional): with [pool.workers > 0],
      QUERY/ANSWER evaluate in prefork worker processes (see {!Pool});
      a crash — stack overflow, OOM kill, segfault — costs one request,
      answered [error worker-crash], never the server.  With the pool
      disabled, {!Query_exec.run_guarded} still contains
      [Stack_overflow]/[Out_of_memory] in-process as defense in
      depth.
    - {e Durable live ingestion}: INGEST appends to a per-synopsis
      write-ahead log and acks only after fsync ({!Ingest}); memtables
      flush into delta TreeSketch levels, a background job compacts
      them, and queries over a name with levels evaluate the whole
      stack — in-process even with the pool enabled, because the
      staleness bound tagged on the response is engine state only the
      parent holds.  On restart the WAL replays and re-flushes, so
      every acknowledged ingest survives a kill at any point.  DELETE
      and UPDATE ride the same log as tombstone records: flushed
      levels carry tombstone path predicates that mask matching
      subtrees in older levels until compaction reclaims them.
    - {e Write-pressure guardrails}: every mutation passes
      {!Write_pressure} admission — advisory pacing, shedding with
      [retry-after], and a hard disk watermark under which the server
      goes read-only rather than wedging. *)

type config = {
  limits : Xmldoc.Limits.t;  (** bounds every snapshot load *)
  deadline : float option;
      (** default per-request deadline, seconds ([None] = none) *)
  max_answer_nodes : int;  (** cap on answer/tree nodes per request *)
  max_work : int;  (** cap on evaluation work ticks per request *)
  max_inflight : int;  (** socket connections before shedding load *)
  auto_reload : bool;
      (** refresh the catalog before each catalog-touching request *)
  drain_deadline : float;
      (** seconds a drain waits for in-flight requests before severing
          what remains (see {!request_drain}) *)
  jobs : Jobs.config;  (** background-build supervision knobs *)
  pool : Pool.config;
      (** query worker pool ({!Pool}); only the pool-specific knobs are
          read — its caps ([limits], [deadline], [max_answer_nodes],
          [max_work], [auto_reload]) are overridden with the server's
          own at {!create}, so the two read paths cannot diverge.
          [pool.workers = 0] (the default) evaluates in-process. *)
  brownout : Overload.config option;
      (** adaptive overload degradation ({!Overload}): when set, the
          read path steps a server-wide degradation level under
          pressure, answers from coarser ladder tiers (tagged
          [tier=<k>/<n> budget=<bytes>]), reports [load=<level>] in
          HEALTH, and refuses only requests whose deadline cannot be
          met even at the coarsest tier.  [None] (the default) serves
          every request from the finest tier — although an explicit
          [-tier=] request option is still honored. *)
  scrub_interval : float;
      (** seconds between background integrity scrubs ({!Scrub}): each
          period forks a scrub worker through the job supervisor,
          replays its report as [scrub-*] quarantines, sweeps orphaned
          temp files, and — with [peers] configured — pulls repairs.
          [0] (the default) disables the scrubber thread; the SCRUB
          verb stays available on demand. *)
  peers : string list;
      (** socket paths of replica peers to pull snapshot repairs from
          ({!Repair}); empty = repair off (REPAIR answers
          [error bad-request]) *)
  tmp_sweep_age : float;
      (** minimum age (seconds) before an orphaned [.tmp] staging file
          is swept — must exceed the longest plausible atomic-write
          window, because live build workers stage under the same
          naming *)
  repair_timeout : float;
      (** per-peer-connection budget (seconds) of a repair pull *)
  flush_records : int;
      (** memtable records per flushed delta level ({!Ingest}): an
          INGEST that fills the memtable triggers an inline flush *)
  level_budget : int;
      (** byte budget a delta level (and a compacted level) is
          compressed under *)
  compact_levels : int;
      (** level count that triggers a background compaction job
          ({!Jobs.submit_compact}); 0 disables auto-compaction —
          flushes still accumulate levels *)
  write_pressure : Write_pressure.config;
      (** write-side admission control ({!Write_pressure}): every
          mutation verb (INGEST/DELETE/UPDATE) passes its verdict —
          paced acks carry [backpressure=<ms>], sheds answer
          [error ingest-deferred retry-after=<ms>], and under the hard
          disk watermark all mutations are refused
          ([error readonly ...]) while reads, scrub and repair keep
          working.  [serve --disk-watermark] sets the hard watermark
          (soft = 2x). *)
  disk_free : (unit -> int option) option;
      (** test override of the disk-free probe; [None] (the default)
          shells out to [df -P -k] *)
}

val default_config : config
(** 5 s deadline, 100_000 answer nodes, 10 M work ticks, 8 in-flight
    connections, auto-reload on, 5 s drain deadline,
    {!Jobs.default_config} builds, scrubber off, no peers, 60 s tmp
    sweep age, 5 s repair timeout, 64-record flushes into 4096-byte
    levels, compaction at 4 levels,
    {!Write_pressure.default_config} admission (disk watermarks
    off). *)

type stats = {
  mutable served : int;  (** request lines handled (including errors) *)
  mutable errors : int;  (** [error ...] responses and shed connections *)
  mutable degraded : int;  (** degraded or truncated answers *)
  mutable refused_deadline : int;
      (** requests refused by deadline-aware admission: their remaining
          deadline was below the coarsest-tier latency estimate *)
}

type t

val create : ?log:(string -> unit) -> ?config:config -> string -> t
(** [create dir] builds a server over the snapshot directory [dir] and
    performs the initial catalog refresh.  [log] receives structured
    one-line records ([event=... key=value ...]); default stderr. *)

val stats : t -> stats

val catalog : t -> Catalog.t

val jobs : t -> Jobs.t
(** The background-build supervisor (exposed for tests: the chaos
    harness kills worker pids and corrupts checkpoints through it). *)

val pool : t -> Pool.t
(** The query worker pool (exposed for tests and HEALTH: kill counts,
    quarantine contents, fork totals). *)

val overload : t -> Overload.t option
(** The brownout controller, present iff [config.brownout] was set
    (exposed for tests and benches: level and pressure inspection). *)

val write_pressure : t -> Write_pressure.t
(** The write-side admission controller (exposed for tests and benches:
    state and pressure inspection). *)

val handle_line : t -> string -> string * bool
(** [handle_line t line] is one supervised request: the response line
    (never containing a newline) and whether the client asked to QUIT.
    Total — never raises. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve requests line-by-line through {!Transport.serve_lines} until
    EOF, QUIT, a broken channel or a requested drain.  This is the
    stdio front end, and what tests drive over a pipe. *)

(** {2 Graceful shutdown}

    A {e drain} is the orderly half of a rolling restart: stop taking
    new work, finish (and answer) everything already accepted, reap
    build workers — keeping their checkpoints so the next server
    generation resumes them — flush final stats, and return so the
    process can exit 0. *)

val draining : t -> bool

val request_drain : t -> unit
(** Flip the server into draining mode.  Async-signal-safe (a single
    flag store); the serving loops observe it within one poll tick.
    Idempotent. *)

val install_drain_signals : t -> unit
(** Route SIGTERM and SIGINT to {!request_drain} so [kill <pid>] (or
    Ctrl-C) triggers a graceful drain instead of killing the process
    mid-request. *)

val serve_socket : t -> path:string -> unit
(** Serve a Unix domain socket at [path] through the shared listener
    ({!Transport.serve_connections}), with the scrubber thread running
    when [scrub_interval > 0]; a shed connection counts in [errors].
    There is no server-wide request lock: every shared subsystem locks
    internally, and only in-process evaluation (pool disabled) is
    serialized — read-only verbs (PING, HEALTH, STAT, LIST, JOBS) never
    queue behind a slow query.

    Returns only after a drain ({!request_drain} or an installed
    signal): after the listener's drain the scrubber joins, build
    workers are reaped ({!Jobs.drain} — checkpoints kept), engines are
    flushed and closed, the pool is shut down, and a final
    [event=drained] stats record is logged.  The caller then exits
    0. *)
