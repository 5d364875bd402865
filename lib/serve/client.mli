(** A resilient client for the [treesketch serve] line protocol.

    The client owns every failure mode a caller would otherwise have to
    hand-roll: connect timeouts, per-request deadlines, capped
    exponential backoff with seeded jitter, automatic reconnection, and
    failover across a list of server sockets (the other half of a
    rolling restart — when one server drains, requests move to its
    replacement).

    {2 Retry policy and idempotency}

    A request is retried only when doing so cannot duplicate a side
    effect:

    - {e Idempotent verbs} ({!idempotent_verbs}: PING, HEALTH, LIST,
      STAT, QUERY, ANSWER, JOBS, RELOAD) are always retried on
      transport failure, on timeout, and on an [error overloaded ...]
      response.
    - {e Every other verb} (BUILD, INGEST, DELETE, UPDATE, CANCEL,
      SCRUB, REPAIR, QUIT and anything unrecognized) is retried only
      while the failure provably happened {e before} the request was
      written (connect failure); after the bytes may have reached a
      server, the error is surfaced instead — unless the caller opts in
      with [retry_unsafe].
    - {e Write-pressure sheds} are the one exception for mutations: an
      [error ingest-deferred retry-after=<ms> ...] response to INGEST,
      DELETE or UPDATE means the server shed the mutation {e without
      retaining anything}, so the resend cannot duplicate it.  The
      client honors [retry-after] with upward jitter (falling back to
      its own backoff when the token is absent) and retries {e the same
      endpoint} without rotating the failover cursor — a mutation
      targets one server's WAL, and failing over would write
      elsewhere.

    {2 Results}

    [request] returns [Ok line] for {e any} well-formed response line
    the server delivered — including the server's own
    [error <class> ...] lines: the protocol round-trip succeeded, and
    interpreting the response is the caller's business.  [Error _] is
    reserved for client-side faults: the deadline expired, or transport
    kept failing after every configured attempt. *)

type config = {
  connect_timeout : float;  (** seconds to wait for a connect to land *)
  request_timeout : float;
      (** per-attempt deadline, seconds, covering send + receive *)
  attempts : int;  (** total tries per request (first + retries), >= 1 *)
  backoff_base : float;  (** delay before the 2nd attempt, seconds *)
  backoff_cap : float;  (** backoff ceiling, seconds *)
  jitter_seed : int;
      (** seeds the backoff jitter — same seed, same delays *)
  retry_unsafe : bool;
      (** retry the verbs outside {!idempotent_verbs} too; off by
          default because a retried BUILD can restart a build *)
  breaker_threshold : int;
      (** consecutive worker-crash/deadline failures on one synopsis
          before its circuit breaker opens; [0] disables breakers *)
  breaker_cooldown : float;
      (** seconds an open breaker fails fast before admitting one
          half-open probe (jittered up to 1.5x from [jitter_seed]) *)
}

val default_config : config
(** 1 s connect, 5 s request, 4 attempts, 50 ms backoff doubling to a
    1 s cap, seed 0, unsafe retries off, breaker opening after 5
    failures for a 2 s cooldown. *)

type t

val create : ?config:config -> string list -> t
(** [create paths] targets the Unix-socket servers at [paths], in
    preference order: the client sticks with a working socket and
    fails over to the next (wrapping around) when it stops answering.
    Sets SIGPIPE to ignored process-wide (a dead server must surface
    as a retryable EPIPE, not kill the client).  Raises
    [Invalid_argument] on an empty list. *)

type error =
  | Deadline of string  (** the per-request deadline expired *)
  | Io of string  (** transport kept failing through every attempt *)
  | Bad_response of string
      (** the server broke the line protocol (e.g. EOF mid-line) and
          retries were exhausted or not permitted *)
  | Breaker_open of string
      (** failed fast without contacting the server: this synopsis's
          circuit breaker is open (see {!section-breaker}) *)

val error_to_string : error -> string

val error_to_fault : error -> Xmldoc.Fault.t
(** Map a client error onto the {!Xmldoc.Fault} taxonomy so the CLI
    exits with the documented code: [Deadline _] → exit 4,
    [Io _]/[Bad_response _]/[Breaker_open _] → exit 5. *)

(** {2:breaker Per-(endpoint, synopsis) circuit breaker}

    A synopsis whose queries keep crashing pool workers ([error
    worker-crash ...] responses) or timing out client-side is expensive
    to keep probing: each attempt costs the server a worker and this
    client a full request timeout.  After [breaker_threshold]
    consecutive such failures on one synopsis {e at one endpoint}, that
    breaker {e opens}: QUERY/ANSWER requests for the synopsis that
    would dial that endpoint return [Error (Breaker_open _)]
    immediately, without touching the network.  After a jittered
    [breaker_cooldown] one {e half-open} probe is admitted — success
    closes the breaker, failure re-opens it.  Any definitive response
    (including server-side errors like [not-found]) resets the count;
    transport failures are the failover loop's concern and never trip
    a breaker.  Other verbs are never gated.

    Breakers are keyed by [(endpoint, synopsis)], not synopsis alone:
    in a failover client, one member's crashing workers say nothing
    about the identical synopsis on its healthy replicas, so an open
    breaker there must not fail-fast requests the rest of the group
    can answer.  The gate consults the endpoint the request will dial
    first (the live connection, else the failover cursor); the outcome
    is attributed to the endpoint of the final attempt. *)

val breaker_state :
  ?endpoint:string -> t -> string -> [ `Closed | `Open | `Half_open ] option
(** The breaker for synopsis [name] at [endpoint] (default: the
    endpoint the next request would dial first), if any failure or
    success has ever been recorded for it — exposed for tests and
    diagnostics. *)

val idempotent_verbs : string list
(** The verbs safe to resend after they may have reached a server. *)

val idempotent : string -> bool
(** [idempotent line] — is the request's verb one of
    {!idempotent_verbs}?  Case-insensitive; unknown verbs are not. *)

val is_deferred_response : string -> bool
(** Is this response line an [error ingest-deferred ...] write-pressure
    shed?  (The server retained nothing: resending the mutation is
    safe.) *)

val retry_after_ms : string -> int option
(** The [retry-after=<ms>] token of a deferred response, if present and
    well-formed. *)

val request : t -> string -> (string, error) result
(** One request line (without the newline) in, one response line out,
    after at most [config.attempts] tries across the configured
    sockets.  Never raises; never hangs past
    [attempts * (connect_timeout + request_timeout + backoff)].

    A FETCH line is never sent: its response is the protocol's one
    multi-line stream, which would desynchronize the connection, so
    the client answers it itself with an [error bad-request] line.

    A [-deadline=D] option on the line is {e propagated, not copied}:
    each attempt forwards [D] minus the wall-clock time this client has
    already burned on the request (connect timeouts, backoff sleeps,
    failed attempts), so a downstream server is never granted more
    budget than the caller has left
    ({!Protocol.with_remaining_deadline}). *)

val close : t -> unit
(** Drop the current connection (if any).  The client remains usable —
    the next {!request} reconnects. *)
