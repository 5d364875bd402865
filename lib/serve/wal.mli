(** Per-synopsis write-ahead log — the durability floor of the INGEST
    verb.

    One hidden file per synopsis ([.<name>.wal]), holding CRC-framed
    records.  Inserts use the original (v1) frame; an insert-only log
    is byte-identical to what earlier servers wrote, and old logs
    replay unchanged:

    {v
    rec <seq> <ts> <len> <8-hex crc32>\n
    <len payload bytes>\n
    v}

    Deletions and updates (v2) use a sibling header carrying the
    operation kind:

    {v
    mut <seq> <ts> <del|upd> <len> <8-hex crc32>\n
    <len payload bytes>\n
    v}

    The contract with the ingest engine:

    - {!append} does not return [Ok] until the frame is written and
      fsynced (both steps threaded through {!Xmldoc.Io_fault}), so an
      acknowledged record survives any subsequent kill.
    - {!open_} replays the log and truncates a torn tail — a partial
      frame left by a crash mid-append — back to the last intact
      record.  The intact prefix is never touched.
    - Sequence numbers must be strictly increasing; a regression is
      treated as a tear, so corruption can never replay stale records.
    - Disk exhaustion during {!append} (ENOSPC, or a short write that
      would otherwise tear the log) rolls the file back to its
      pre-append length and reports {!No_space} so the server can
      answer [error ingest-deferred] instead of acking a record it
      cannot make durable.  The rolled-back record's sequence number is
      not consumed — the engine reuses it on the retry, so replay never
      sees a gap. *)

type op =
  | Insert  (** append an XML fragment (the original v1 record) *)
  | Delete  (** payload is a slash-joined label path predicate *)
  | Update
      (** payload is ["<path> <xml>"] — delete the matching subtrees,
          then insert the replacement, atomically at one sequence
          number *)

type record = {
  seq : int;  (** caller-assigned, strictly increasing *)
  ts : float;  (** arrival wall-clock; feeds the staleness bound *)
  op : op;
  payload : string;  (** opaque — fragment, path-pred, or both *)
}

type t
(** An open log, positioned for appending. *)

val path : dir:string -> name:string -> string
(** [path ~dir ~name] is [dir/.<name>.wal]. *)

val wal_name : string -> string option
(** [wal_name file] is [Some name] iff base name [file] is a WAL file
    ([.<name>.wal]) — how the server discovers engines at startup. *)

val open_ :
  ?limits:Xmldoc.Limits.t ->
  dir:string ->
  name:string ->
  unit ->
  (t * record list * bool, Xmldoc.Fault.t) result
(** Open (creating if missing) and replay.  Returns the open log, the
    intact records in sequence order, and whether a torn tail was
    truncated.  Only an unreadable or oversized file is an [Error]. *)

val append : t -> record -> (unit, [ `No_space | `Fault of Xmldoc.Fault.t ]) result
(** Durably append one record (write + fsync).  On [`No_space] the log
    is rolled back to its previous length — nothing partial remains.
    If the pre-append length cannot be established the append fails
    fast without writing (a rollback to a guessed length could destroy
    acknowledged records). *)

val rewrite : t -> record list -> (unit, Xmldoc.Fault.t) result
(** Atomically replace the log's contents with exactly [records] — the
    post-flush trim.  Crash-safe via {!Sketch.Serialize.write_atomic}:
    a kill leaves either the old log or the new one, never a tear. *)

val scan :
  ?limits:Xmldoc.Limits.t -> string -> (record list * bool, Xmldoc.Fault.t) result
(** Read-only verification for the scrubber and [treesketch verify]:
    intact records plus a torn-tail flag, without repairing the file.
    A missing file is an [Io_error], like any unreadable one. *)

val bytes : t -> int
(** Bytes of intact log currently on disk — the write-pressure
    controller's "WAL outstanding" signal. *)

val wal_path : t -> string

val close : t -> unit
