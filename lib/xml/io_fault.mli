(** Deterministic I/O fault injection.

    One seeded, process-global shim over the Unix I/O operations the
    repository funnels its durability through — file opens and reads
    ({!Parser}, {!Sketch.Serialize}, the serving catalog), writes,
    fsyncs and renames ({!Sketch.Serialize.save_atomic}, checkpoint
    journals), and socket accepts (the serving front end).  Production
    code calls {!tap}/{!cap} at each such site; with no plan {!arm}ed
    the calls are a single [ref] read, so the shim costs nothing
    outside tests.

    A plan is a list of {!rule}s: per-{!site} (optionally per-path)
    probabilities of injecting [EINTR], [EIO], [ENOSPC], a short
    read/write, or latency.  Draws come from one [Random.State] seeded
    at {!arm} time, so a failing run is replayed exactly by re-arming
    with the same seed — the substrate behind [test_chaos.ml] and the
    store-crash suites, replacing the per-subsystem truncation loops
    they used to hand-roll. *)

type site =
  | Read  (** reading file or socket bytes *)
  | Write  (** writing file or socket bytes *)
  | Open  (** opening a file or scanning a directory *)
  | Close  (** closing a written file — the last moment a buffered
              write (or a temp-file cleanup) can fail *)
  | Stat  (** fingerprinting a path ([stat]) — what the catalog scan
             and the scrubber walk the directory with *)
  | Accept  (** accepting a socket connection *)
  | Connect  (** initiating a socket connection (the client and the
                replica coordinator dialing a server) *)
  | Fsync  (** flushing written data to disk *)
  | Rename  (** atomically publishing a temp file *)
  | Fork  (** forking a worker process (build jobs, the query pool) *)

val site_name : site -> string

type fault =
  | Eintr  (** transient: well-behaved call sites retry *)
  | Eio  (** hard I/O error *)
  | Enospc  (** disk full; on {!cap}-using write sites the write is
               also cut short first *)
  | Eagain  (** resource exhaustion — what [fork] raises when the
               process table (or memory) is full; supervisors must
               shed load and back off, not crash *)
  | Short  (** short read/write: {!cap} returns a random prefix
              length *)
  | Short_at of int  (** short read/write cut at a fixed byte offset —
                        the deterministic replacement for
                        truncate-at-every-offset test loops *)
  | Delay of float  (** sleep this many seconds, then proceed *)

type rule = {
  site : site;
  fault : fault;
  prob : float;  (** chance per tap/cap, in [0, 1] *)
  limit : int;  (** injections of this rule before it goes inert *)
  path_substring : string option;
      (** only fire when the site's path contains this *)
}

val rule : ?prob:float -> ?limit:int -> ?path:string -> site -> fault -> rule
(** Rule builder: [prob] defaults to [1.0], [limit] to unlimited,
    [path] (a substring filter on the site's path) to none. *)

val arm : ?seed:int -> rule list -> unit
(** Install a plan (replacing any previous one).  [seed] defaults to
    [0]; equal seeds and rule lists replay equal injection sequences
    for equal tap/cap call sequences. *)

val disarm : unit -> unit
(** Remove the plan; all taps become no-ops again. *)

val armed : unit -> bool

val seed : unit -> int option
(** The armed plan's seed, for error messages ("rerun with seed N"). *)

val injected : unit -> int
(** Total faults injected since {!arm} (0 when disarmed). *)

val tap : site -> path:string -> unit
(** The injection point: may raise [Unix.Unix_error] ([EINTR], [EIO],
    [ENOSPC] or [EAGAIN] with the site name as the function field),
    sleep, or return unit.  Thread-safe; never raises when
    disarmed. *)

val tap_retrying : site -> path:string -> unit
(** {!tap}, absorbing injected [EINTR] with a bounded retry loop — the
    standard restart-on-EINTR discipline, for call sites whose real
    syscalls cannot themselves return [EINTR] (buffered channel I/O).
    Sites with their own retry logic (the accept loop) use bare
    {!tap} so injection exercises that logic instead. *)

val cap : site -> path:string -> int -> int
(** [cap site ~path len] is the length an armed [Short]/[Short_at]
    rule cuts an [len]-byte transfer to (in [[0, len]]); [len] when
    nothing fires.  Call sites transfer that many bytes, modelling a
    short read (a torn file observed mid-write) or a short write (a
    tear the crash-safety machinery must keep invisible). *)

val read_file : ?limits:Limits.t -> string -> (string, Fault.t) result
(** A whole file's bytes through the [Open] and [Read] taps and the
    [Read] {!cap} — the one bounded read under every on-disk file
    family (XML documents, snapshots, level manifests and deltas,
    WALs).  A file over [limits.max_bytes] (default
    {!Limits.default}) is [Limit_exceeded] on ["bytes"]; anything
    unreadable is [Io_error].  Faults are {e not} path-tagged beyond
    [Io_error]'s own path: callers that tag ({!Fault.with_path}) do
    so themselves.  An injected short read returns a prefix. *)
