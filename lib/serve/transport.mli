(** Both halves of the line protocol.

    {b Outbound}: dial, send, read lines.  Every socket or pipe this
    library writes requests into and reads responses from goes through
    here: the resilient {!Client}, the {!Coordinator}'s scatter and
    health probes, peer {!Repair} and the query {!Pool}'s worker pipes.
    Each step is bounded by an absolute deadline, and each caller maps
    the typed {!error} onto its own wire strings.

    Responses reach megabytes (an ANSWER carries its whole approximate
    answer tree on one line), so the {!reader} scans every byte once:
    it keeps a residue buffer and the offset up to which that buffer is
    known to hold no newline.

    {b Inbound}: answer request lines.  The {!Server}, the
    {!Coordinator} and the {!Pool}'s workers answer through one line
    loop ({!serve_lines}); the two socket front ends accept, admit,
    track and drain connections through one listener
    ({!serve_connections}); and both flip the same {!drain} switch on
    SIGTERM.  Each caller keeps only its own request handler, its
    listening line, its background thread and its teardown. *)

type error =
  [ `Deadline of string
    (** the deadline passed first; ["send"] or ["receive"] says where *)
  | `Closed  (** the peer closed at a line boundary *)
  | `Closed_mid_line  (** the peer closed with part of a line buffered *)
  | `Failed of string
    (** a system call failed; the message starts ["read: "],
        ["write: "] or ["select: "] *) ]

val error_message : [< error ] -> string
(** ["send deadline"], ["receive deadline"], ["connection closed"]
    (either kind) or the [`Failed] message: the wording of the
    coordinator's and peer repair's error lines. *)

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], ignoring errors. *)

val connect : timeout:float -> string -> (Unix.file_descr, string) result
(** [connect ~timeout path] dials the Unix socket at [path], passing
    the {!Xmldoc.Io_fault.Connect} tap first.  The connect is
    non-blocking and waits in [select] at most [timeout] seconds
    (["connect timed out"]); any other failure is the errno's message,
    among them a listener whose backlog is full ([EAGAIN]): nothing was
    queued, so that dial fails rather than returning an unconnected
    descriptor.
    The returned descriptor is close-on-exec and non-blocking. *)

val send :
  ?tap:string ->
  Unix.file_descr ->
  string ->
  deadline:float ->
  (unit, [> `Deadline of string | `Failed of string ]) result
(** [send fd data ~deadline] writes all of [data] before the absolute
    time [deadline] or fails with [`Deadline "send"].  It switches
    [fd] to non-blocking mode and waits in [select] between writes, so
    a peer that stops reading cannot hold it past the deadline however
    large [data] is.  With [~tap:path], every write first passes the
    {!Xmldoc.Io_fault.Write} tap at [path]. *)

type reader
(** A line reader over one descriptor.  Bytes read past a newline stay
    buffered for the next line (FETCH streams many lines on one
    connection).  A buffer grown past 256 KiB for a long line is
    dropped once that line is handed back. *)

val reader : ?tap:string -> Unix.file_descr -> reader
(** With [~tap:path], every read first passes the
    {!Xmldoc.Io_fault.Read} tap at [path]. *)

val read_line : reader -> deadline:float -> (string, [> error ]) result
(** The next line, without its newline and without one trailing CR,
    read before the absolute time [deadline] (else
    [`Deadline "receive"]).  End of stream is [`Closed] when no partial
    line is buffered and [`Closed_mid_line] when one is. *)

val read_step :
  reader ->
  (string option, [> `Closed | `Closed_mid_line | `Failed of string ]) result
(** One step for a caller multiplexing several readers in its own
    [select]: the next buffered line if there is one, else one [read]
    and then the next line if that completed one.  [Ok None] means
    "no complete line yet". *)

(** {1 The inbound half} *)

type drain
(** A drain switch, flipped at most once.  Its [log] also receives the
    listener's [event=accept-error] and [event=draining] lines. *)

val drain_switch : log:(string -> unit) -> drain
val draining : drain -> bool

val request_drain : drain -> unit
(** Flip the switch and log [event=drain-requested]; idempotent and
    async-signal-safe (a flag store). *)

val install_drain_signals : drain -> unit
(** Route SIGTERM and SIGINT to {!request_drain}. *)

val serve_lines :
  ?tap:string -> drain -> (string -> string * bool) -> in_channel -> out_channel -> unit
(** [serve_lines drain handle ic oc] answers each [input_line] of [ic]
    with [handle]'s response, a newline and a flush on [oc], until EOF,
    a failed read or write, a response whose flag says quit, or a
    flipped [drain], which it checks before each read: a line that was
    read is always answered, so on stdin a drain takes effect at the
    next request line or at EOF.  With [~tap:path], reads and writes
    pass the {!Xmldoc.Io_fault} [Read]/[Write] [tap_retrying] at
    [path]. *)

(** Bounded in-flight admission: [try_acquire] is [false] at capacity. *)
module Admission : sig
  type t

  val create : int -> t
  val try_acquire : t -> bool
  val release : t -> unit
  val in_flight : t -> int
  val capacity : t -> int
end

type listener

val listen : string -> listener
(** A close-on-exec Unix socket bound at the path (replacing any file
    there) with a backlog of 64.  SIGPIPE is ignored from then on, so
    a peer hanging up mid-response fails a write instead of killing the
    process. *)

val close_inherited : unit -> unit
(** For a child forked without exec, first thing: [Unix.close] every
    listening socket and accepted connection of this process's
    listeners, so a client whose connection the parent closes sees EOF
    while the child lives.  The connections' channels are not closed
    (another thread may have held one's lock at the fork) and stay
    reachable, so the child never finalizes them.  Takes no lock. *)

val serve_connections :
  listener -> drain -> admission:Admission.t -> drain_deadline:float ->
  ?on_shed:(unit -> unit) -> (string -> string * bool) -> int
(** Accept until [drain] flips, ticking every 0.2 s past the
    {!Xmldoc.Io_fault} [Accept] tap (a failed [select] or [accept] logs
    [event=accept-error] and backs off 0.05 s).  Each admitted
    connection gets a thread running {!serve_lines}, tapped at the
    listener's path; one past capacity is answered [error overloaded
    <N> connections already in flight], closed, and [on_shed] called.

    The drain closes and unlinks the socket, logs [event=draining],
    shuts down the receive side of each of this listener's connections,
    waits up to [drain_deadline] for them to close, shuts down those
    still open and returns how many there were. *)
