(** Plain-text persistence for synopses, used by the command-line
    tools and the serving runtime's snapshot store.

    Versions 1-3 share the record grammar:
    {v
    treesketch 1          treesketch 2          treesketch 3
                                                meta <key> <value>
    root <id>             root <id>             root <id>
    node <id> <count> <label>
    edge <from> <to> <avg>
                          crc <8-hex-digit CRC-32 of all preceding bytes>
    v}

    Version 1 is the legacy CLI format.  Version 2 is the {e snapshot}
    format of the crash-safe store.  Version 3 is the {e checkpoint}
    format of resumable TSBUILD: version 2 plus [meta] records carrying
    build metadata (duplicate keys rejected, values opaque single-line
    strings).  In versions 2 and 3 the mandatory [crc] trailer is both
    an integrity checksum (CRC-32, as in zlib) and an end-of-snapshot
    marker, so a write cut short at any byte — missing trailer — or
    corrupted in place — checksum mismatch — is rejected as
    [Corrupt_synopsis], and anything {e after} the trailer (a
    concatenated or torn rewrite) is trailing garbage.  Both versions
    reject duplicate headers and duplicate [root] records.

    Version 4 is the {e ladder} format: several budget tiers of the same
    synopsis in one file, for brownout serving.  A checksummed manifest
    frames complete version-2 payloads:
    {v
    treesketch 4
    tier <i> budget=<bytes> bytes=<payload length> crc=<8-hex CRC-32>
    ...                      (dense indexes, budgets strictly decreasing)
    crc <8-hex-digit CRC-32 of the manifest above>
    <tier-0 version-2 snapshot><tier-1 version-2 snapshot>...
    v}
    Tier 0 is the finest (largest budget).  Each payload carries its own
    version-2 trailer {e and} is pinned by the [crc=] in the manifest,
    so a torn write is caught whether it cuts the manifest or any
    payload.  Versions 1-3 parse exactly as before; they reject a
    version-4 header as unsupported, and vice versa.

    Loading is total and validating: the [*_res] entry points never
    raise — every malformed line is reported as
    [Fault.Corrupt_synopsis] carrying the 1-based line number and the
    offending line's text, resource bounds from the supplied
    [Xmldoc.Limits.t] are enforced, and every successfully decoded
    synopsis has passed {!Synopsis.validate} (so downstream code can
    index it without bounds anxiety).  Faults from {!load_res} always
    name the file they came from. *)

val save : string -> Synopsis.t -> unit
(** Write the synopsis to a file (version 1, non-atomic). *)

val with_crc : string -> string
(** [body] sealed with the [crc <8-hex>] trailer line (CRC-32 of
    [body]) that ends version-2/3 snapshots, the ladder manifest and the
    level manifest. *)

val save_atomic :
  ?meta:(string * string) list -> string -> Synopsis.t -> (unit, Xmldoc.Fault.t) result
(** Crash-safe snapshot write (version 2, or version 3 when [meta] is
    supplied): the checksummed snapshot is written to a unique [.tmp]
    file in the destination directory, fsynced, and atomically renamed
    over [path] — a reader (or a post-crash reload) sees the previous
    complete snapshot or the new complete snapshot, never a prefix.
    I/O failures are returned as [Error (Io_error _)] and the temp
    file is removed.  Meta keys must be space-free and values
    newline-free ([Invalid_argument] otherwise). *)

val write_atomic : string -> string -> (unit, Xmldoc.Fault.t) result
(** The raw crash-safe write under {!save_atomic}: publish [text] —
    verbatim, byte for byte — at [path] via the same temp-file + fsync
    + rename discipline.  Exposed for peer snapshot repair, which must
    install a fetched (already-rendered, already-verified) snapshot
    {e byte-identically}, so content hashes converge across a replica
    group. *)

val load_raw_res :
  ?limits:Xmldoc.Limits.t -> string -> (string, Xmldoc.Fault.t) result
(** The file's raw bytes through {!Xmldoc.Io_fault.read_file} (the same
    taps and [max_bytes] bound as {!load_res}), path-tagged like it, but
    with {e no} parsing — what integrity scrubbing and peer repair hash
    and stream.  A torn read surfaces as a content prefix; callers
    verify checksums. *)

val load_res : ?limits:Xmldoc.Limits.t -> string -> (Synopsis.t, Xmldoc.Fault.t) result
(** Read and validate a synopsis, accepting either format version.
    Never raises: corrupt input is [Error (Corrupt_synopsis _)], an
    unreadable file [Error (Io_error _)], a violated bound
    [Error (Limit_exceeded _)] or [Error (Deadline _)].  Every fault is
    tagged with [path] (see {!Xmldoc.Fault.with_path}). *)

val of_string_res : ?limits:Xmldoc.Limits.t -> string -> (Synopsis.t, Xmldoc.Fault.t) result
(** In-memory variant of {!load_res} (no path tagging). *)

val load_meta_res :
  ?limits:Xmldoc.Limits.t ->
  string ->
  (Synopsis.t * (string * string) list, Xmldoc.Fault.t) result
(** Like {!load_res} but also returns the [meta] records of a version-3
    checkpoint, in file order (empty for versions 1 and 2). *)

val of_string_meta_res :
  ?limits:Xmldoc.Limits.t ->
  string ->
  (Synopsis.t * (string * string) list, Xmldoc.Fault.t) result
(** In-memory variant of {!load_meta_res} (no path tagging). *)

val load : ?limits:Xmldoc.Limits.t -> string -> Synopsis.t
(** Read a synopsis back.  @raise Failure on malformed input (the
    message includes the offending line), [Sys_error] if the file
    cannot be read. *)

val to_string : Synopsis.t -> string
(** Version-1 rendering (no checksum). *)

val to_snapshot_string : Synopsis.t -> string
(** Version-2 rendering with the [crc] trailer — what {!save_atomic}
    writes. *)

val to_checkpoint_string : meta:(string * string) list -> Synopsis.t -> string
(** Version-3 rendering: [meta] records plus the [crc] trailer — what
    {!save_atomic} writes when given [?meta]. *)

val of_string : ?limits:Xmldoc.Limits.t -> string -> Synopsis.t
(** @raise Failure on malformed input. *)

(** {2 Ladder snapshots (version 4)} *)

val to_ladder_string : (int * Synopsis.t) list -> string
(** Version-4 rendering of [(budget, synopsis)] tiers, finest first.
    @raise Invalid_argument on an empty list or budgets that are not
    strictly decreasing and positive. *)

val save_ladder_atomic :
  string -> (int * Synopsis.t) list -> (unit, Xmldoc.Fault.t) result
(** {!save_atomic}'s crash-safe write (temp file, fsync, rename) of a
    version-4 ladder.  Same argument validation as
    {!to_ladder_string}. *)

val load_ladder_res :
  ?limits:Xmldoc.Limits.t ->
  string ->
  ((int * Synopsis.t) array, Xmldoc.Fault.t) result
(** Read a version-4 ladder back: manifest checksum verified, every
    payload sliced at its declared length, checked against its
    manifest [crc=], parsed and {!Synopsis.validate}d independently.
    Any tear or mismatch anywhere is [Error (Corrupt_synopsis _)] —
    never a partial ladder.  Tiers come back finest first. *)

val of_ladder_string_res :
  ?limits:Xmldoc.Limits.t ->
  string ->
  ((int * Synopsis.t) array, Xmldoc.Fault.t) result
(** In-memory variant of {!load_ladder_res} (no path tagging). *)

(** What {!load_any_res} found in the file. *)
type loaded =
  | Single of Synopsis.t  (** a version-1/2/3 snapshot *)
  | Ladder of (int * Synopsis.t) array
      (** a version-4 ladder, [(budget, synopsis)] finest first *)

val load_any_res :
  ?limits:Xmldoc.Limits.t -> string -> (loaded, Xmldoc.Fault.t) result
(** Sniff the header and dispatch to {!load_res} or
    {!load_ladder_res} — the serving catalog's entry point, so one
    store can mix plain snapshots and ladders. *)

val of_any_string_res :
  ?limits:Xmldoc.Limits.t -> string -> (loaded, Xmldoc.Fault.t) result
(** In-memory variant of {!load_any_res} (no path tagging) — lets the
    integrity scrubber hash the raw bytes once via {!load_raw_res} and
    then verify the same bytes it hashed. *)
