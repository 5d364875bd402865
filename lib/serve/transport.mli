(** The outbound half of the line protocol: dial, send, read lines.

    Every socket or pipe this library writes requests into and reads
    responses from goes through here: the resilient {!Client}, the
    {!Coordinator}'s scatter and health probes, peer {!Repair} and the
    query {!Pool}'s worker pipes.  Each step is bounded by an absolute
    deadline, and each caller maps the typed {!error} onto its own
    wire strings.

    Responses reach megabytes (an ANSWER carries its whole approximate
    answer tree on one line), so the {!reader} scans every byte once:
    it keeps a residue buffer and the offset up to which that buffer is
    known to hold no newline. *)

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
    (["connect timed out"]); any other failure is the errno's message.
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
