(** The line-oriented request protocol of [treesketch serve].

    One request per line, one response line per request — trivially
    scriptable over stdin/stdout, a pipe, or the Unix socket.

    {2 Requests}
    {v
    PING
    HEALTH
    LIST
    RELOAD [-force]
    STAT <name>
    QUERY  [-deadline=<seconds>] [-max-nodes=<n>] [-tier=<k>] <name> <twig-query>
    ANSWER [-deadline=<seconds>] [-max-nodes=<n>] [-tier=<k>] <name> <twig-query>
    BUILD <name> <xml-path> <budget>
    INGEST <name> <xml-fragment>
    DELETE <name> <path-pred>
    UPDATE <name> <path-pred> <xml-fragment>
    JOBS
    CANCEL <name>
    SCRUB
    FETCH <name>
    REPAIR
    QUIT
    v}
    Verbs are case-insensitive.  [<name>] is a catalog entry
    ([name.ts]).  [-deadline] is relative seconds from request receipt
    (negative = already expired, useful for testing degradation);
    [-max-nodes] caps answer/tree nodes.  Both are clamped by the
    server's own configured caps.

    [BUILD] starts a background synopsis build (a supervised worker
    process; see {!Jobs}): [<name>] must be filename-safe
    ([A-Za-z0-9_-]+), [<budget>] accepts byte suffixes ([10KB]).  The
    finished snapshot appears in the catalog as [<name>.ts] via
    hot-reload; serving is never blocked by a build.

    [INGEST] appends one single-line XML fragment to the named
    synopsis's live update path (see {!Ingest}): the fragment is
    validated, durably logged (WAL append + fsync) and acknowledged
    with its sequence number; a background flush summarizes batches
    into delta TreeSketch levels that queries combine with the base
    snapshot.  Everything after the name is the fragment.  INGEST is
    {e not} idempotent — a retried ingest is a second ingest — so the
    retrying client never replays it.  When the log cannot grow
    (ENOSPC) the server answers [error ingest-deferred ...]: nothing
    was retained, retry later.

    [DELETE] durably tombstones every {e live-ingested} subtree
    matching a slash-joined label path predicate ([a/b] = every [b]
    child of an [a]-rooted fragment; segments use the job-name
    alphabet).  [UPDATE] is delete-then-insert committed atomically at
    one WAL sequence.  Both share INGEST's durability contract (WAL
    append + fsync before the ack) and its non-idempotence: a retried
    mutation is a second mutation, {e except} after
    [error ingest-deferred], where nothing was retained and the resend
    is safe.  The base snapshot is never mutated — deletion addresses
    data that arrived through INGEST.

    Every mutation passes write-pressure admission control: under
    load the ack carries an advisory [backpressure=<ms>] pacing hint;
    past the shed threshold (or under the soft disk watermark) the
    server answers [error ingest-deferred retry-after=<ms>]; under the
    hard disk watermark all mutations are refused while reads, scrub
    and repair keep working.

    [-tier=<k>] asks for degradation rung [k] or coarser (0 = finest):
    against a ladder snapshot the server answers from tier
    [max k (server level)], clamped to the coarsest rung present;
    against a plain snapshot it is a no-op.  A brownout server inserts
    or raises this option itself when forwarding to pool workers (see
    {!with_tier}).

    The anti-entropy verbs (see {!Scrub} and {!Repair}): [SCRUB] runs
    a synchronous integrity pass over the catalog directory — every
    snapshot re-read and re-verified, rot quarantined as
    [scrub-<class>], orphaned temp files swept.  [FETCH <name>]
    streams the named snapshot's raw file bytes in length-prefixed
    CRC'd chunks — the {e only} multi-line response in the protocol,
    used by peer repair, never relayed by the coordinator.  [REPAIR]
    asks the server to pull repairs for its quarantined or divergent
    snapshots from its configured peers now.

    [HEALTH] separates liveness from readiness: any response at all
    means the process is live; [ready=yes] additionally means the
    catalog directory scans cleanly, the server is not draining, the
    connection pool has headroom and the job supervisor responds — the
    signal a rolling restart waits for before shifting traffic (see
    {!Server.request_drain}).

    {2 Responses}
    {v
    pong
    bye
    ok health live=yes ready=<yes|no> draining=<yes|no> catalog=<d> quarantined=<d> inflight=<d>/<d> jobs=<d> [wal=<d> staleness=<g>] [reason=<s>]
    ok catalog n=<d> names=<a,b,...> quarantined=<d>
    ok reload loaded=<d> reloaded=<d> quarantined=<d> removed=<d> swept=<d> sweep_age=<g>
    ok stat name=<s> classes=<d> edges=<d> bytes=<d> stable=<yes|no> quarantined=<no|yes reason=<class>> [levels=<d> level_records=<d> flushed=<d> wal=<d> staleness=<g>]
    ok stat name=<s> resident=no quarantined=yes reason=<class>
    ok query degraded=<no|deadline|nodes|work> [tier=<k>/<n> budget=<bytes>] [levels=<k> staleness=<g>] est=<g> classes=<d> empty=<yes|no>
    ok answer degraded=<no|deadline|nodes|work> [tier=<k>/<n> budget=<bytes>] [levels=<k> staleness=<g>] empty=yes
    ok answer degraded=<no|deadline|nodes|work> [tier=<k>/<n> budget=<bytes>] [levels=<k> staleness=<g>] truncated=<yes|no> nodes=<d> tree=<xml>
    ok build name=<s> state=running
    ok ingest name=<s> seq=<d> wal=<d> [backpressure=<ms>]
    ok delete name=<s> seq=<d> wal=<d> [backpressure=<ms>]
    ok update name=<s> seq=<d> wal=<d> [backpressure=<ms>]
    ok jobs n=<d> [<name>=<state>...]
    ok cancel name=<s> state=<s>
    ok scrub checked=<d> corrupt=<d> swept=<d>
    ok fetch name=<s> bytes=<d> chunks=<d> crc=<8-hex>   (then chunk lines; see {!Repair})
    ok repair attempted=<d> repaired=<d> deferred=<d> failed=<d>
    error <class> <message>
    v}
    Job states are [running], [backoff] (crashed, restarting from its
    checkpoint), [done], [done-degraded], [failed] and [cancelled].
    [degraded] names why the request budget stopped ([no] = it did
    not): a degraded response still carries the partial answer and its
    selectivity estimate — graceful degradation, never an abort.
    Error classes are {!Xmldoc.Fault.class_name} tags ([parse],
    [corrupt], [limit], [deadline], [io], [worker-crash]) plus the
    protocol-level [bad-request], [not-found], [overloaded], [busy],
    [internal] and [poisoned].  [worker-crash] means an isolated query
    worker died (or contained a crash) evaluating this request — the
    request is lost, the server is not; [poisoned] means the
    (synopsis, query) pair has crashed workers so often it is
    quarantined and answered without evaluation (see {!Pool}).
    [tier=<k>/<n> budget=<bytes>] appears on every answer served from a
    ladder snapshot with more than one rung: the 0-based tier the
    answer came from, the rung count, and that tier's byte budget —
    the declared accuracy of a browned-out answer.  Plain snapshots
    never carry it, so single-resolution responses are byte-identical
    to earlier versions.  [levels=<k> staleness=<g>] appears on every
    answer for a name carrying live-ingested delta levels: the answer
    merges the base snapshot with [k] deltas, and [staleness] bounds
    the age in seconds of acknowledged-but-unflushed records the answer
    may still be missing.  Names without levels respond byte-identically
    to earlier versions. *)

type opts = {
  deadline : float option;  (** relative seconds *)
  max_nodes : int option;
  tier : int option;  (** minimum degradation rung, 0 = finest *)
}

val no_opts : opts

type request =
  | Ping
  | Health
  | List
  | Reload of { force : bool }
  | Stat of string
  | Query of opts * string * Twig.Syntax.t
  | Answer of opts * string * Twig.Syntax.t
  | Build of { name : string; xml : string; budget : int }
  | Ingest of { name : string; xml : string }
      (** one single-line XML fragment for the live update path *)
  | Delete of { name : string; path : string }
      (** durably tombstone every live-ingested subtree matching the
          slash-joined path predicate (see {!Ingest.valid_path}) *)
  | Update of { name : string; path : string; xml : string }
      (** delete-then-insert committed atomically at one WAL sequence *)
  | Jobs
  | Cancel of string
  | Scrub  (** synchronous catalog integrity pass *)
  | Fetch of string  (** stream a snapshot's raw bytes for peer repair *)
  | Repair  (** pull repairs from configured peers now *)
  | Quit

val parse : string -> (request, string) result
(** Total: every malformed request line is [Error reason] (rendered by
    the server as [error bad-request <reason>]). *)

val request_deadline : string -> float option
(** The [-deadline] value carried in a request line's option zone
    (between the verb and the first operand) — [None] when absent or
    malformed.  Relays use it to size their own wait. *)

val with_remaining_deadline : string -> elapsed:float -> string
(** [with_remaining_deadline line ~elapsed] rewrites the line's
    [-deadline=D] option to [max 0 (D - elapsed)]: the budget a relay
    may grant downstream after burning [elapsed] seconds itself — never
    more than the caller has left, and clamped at zero when the relay
    already spent it all (a caller-supplied negative deadline passes
    through untouched, but a relay never {e manufactures} one).  The
    option is always preserved, never dropped.  Lines without a
    deadline option (and [elapsed <= 0]) pass through unchanged; only
    tokens in the leading option zone are touched, so operand text is
    never mangled. *)

val with_tier : string -> level:int -> string
(** [with_tier line ~level] raises the [-tier] option of a
    QUERY/ANSWER line to at least [level], inserting it when absent —
    how a browned-out server propagates its degradation level to pool
    workers, which re-parse the raw line against their own catalog
    copy.  A request already asking for a coarser tier is kept; every
    other line (and [level <= 0]) passes through unchanged.  Same
    option-zone-only discipline as {!with_remaining_deadline}. *)

val verbs : string list
(** Every request verb, upper case, in the order listed above. *)

val verb : string -> string
(** A request line's verb, upper-cased ([""] for a blank line). *)

val single_target_verbs : string list
(** The verbs bound to ONE server: BUILD, INGEST, DELETE, UPDATE,
    RELOAD, CANCEL, JOBS, QUIT, SCRUB, FETCH and REPAIR. *)

val single_target : string -> bool
(** Is this request's verb one of {!single_target_verbs}?  A
    replica-group relay must refuse to pick a target implicitly: the
    coordinator answers [error bad-request], and the replica-mode
    client requires an explicit [--target].  Case-insensitive. *)

val query_target : string -> string option
(** The synopsis name a QUERY/ANSWER request line targets, skipping
    options — [None] for every other verb or a malformed line.  This is
    what lets the client keep a per-synopsis circuit breaker without
    fully parsing (or even being able to parse) the query. *)

val one_line : string -> string
(** Newlines flattened to spaces — applied to anything woven into a
    response line. *)

val error_line : cls:string -> string -> string

val fault_line : Xmldoc.Fault.t -> string
(** [error <class> <message>] for a structured fault. *)

val yes_no : bool -> string

val degraded_token : Xmldoc.Budget.stop option -> string
(** [no], [deadline], [nodes], [work] or [heap]. *)

val field : string -> string -> string option
(** [field key line] is the value of the first [key=<value>] word of a
    response line (a word starts the line or follows a space), read
    only up to that word; [None] when no word has that key. *)

val error_class : string -> string option
(** [Some cls] for an [error <cls> ...] line, read up to the class. *)
