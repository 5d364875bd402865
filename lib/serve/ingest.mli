(** The live update path of the INGEST verb: a WAL-backed memtable plus
    an LSM stack of delta TreeSketches, every stage of which survives a
    kill.

    Per synopsis [name], next to the base snapshot [name.ts]:

    - [.name.wal] — the write-ahead log ({!Wal}); acknowledged ingests
    - [.name.levels] — the level manifest, the single commit point
    - [.name.l<gen>.delta] — one delta TreeSketch snapshot per level
    - [.name.lock] — [lockf] file guarding manifest read-modify-writes

    Durability ordering: ingest = WAL append + fsync, then ack; flush =
    write delta file, atomically swap the manifest (which advances
    [flushed], the highest WAL sequence covered by levels), then trim
    the WAL; compaction = write merged delta, swap manifest, delete the
    consumed inputs.  Replay skips WAL records at or below [flushed],
    so the trailing cleanup steps are pure garbage collection — a crash
    before them loses nothing and duplicates nothing. *)

(** {2 File layout} *)

val manifest_path : dir:string -> name:string -> string
(** [dir/.<name>.levels]. *)

val manifest_name : string -> string option
(** [Some name] iff the base name is a level manifest. *)

val level_file : name:string -> gen:int -> string
(** [.<name>.l<gen>.delta]. *)

val level_name : string -> (string * int) option
(** [Some (name, gen)] iff the base name is a level delta file — how
    the scrubber's orphan sweep recognizes unreferenced levels. *)

(** {2 Path predicates}

    A DELETE/UPDATE targets subtrees by a slash-joined label path
    rooted at the engine's shared root: [a/b] matches every [b] child
    of an [a]-rooted fragment.  Segments use the job-name alphabet
    ([A-Za-z0-9_-]) — no spaces or commas, so a path travels unquoted
    in WAL payloads and comma-joined manifest fields. *)

val valid_path : string -> bool

val parse_path : string -> Xmldoc.Label.t list option
(** [Some labels] iff {!valid_path}; the interned segment labels. *)

val discover : dir:string -> string list
(** Names with live ingestion state (a WAL or a manifest) in [dir],
    sorted — how the server finds engines to reopen on restart. *)

(** {2 Manifest} *)

type level_info = {
  gen : int;  (** monotone generation; embedded in the file name *)
  file : string;  (** base name of the delta snapshot *)
  bytes : int;
  crc : int32;  (** CRC-32 of the delta file's raw bytes *)
  records : int;  (** ingested records summarized by this level *)
  since : float;  (** arrival time of the level's oldest record *)
  tombs : string list;
      (** tombstone path predicates from this level's deletes/updates:
          they mask matching subtrees in all strictly older levels
          until compaction reclaims them physically.  Rendered as a
          comma-joined [tombs=] field, omitted when empty — manifests
          without tombstones stay byte-identical to the previous
          format, and older parsers ignore the unknown field. *)
}

type manifest = {
  flushed : int;  (** highest WAL seq covered by the levels; 0 = none *)
  entries : level_info list;  (** ascending [gen] *)
}

val empty_manifest : manifest

val read_manifest :
  ?limits:Xmldoc.Limits.t ->
  dir:string ->
  name:string ->
  unit ->
  (manifest, Xmldoc.Fault.t) result
(** Load and verify (CRC trailer, line grammar, unique ascending
    generations).  A missing manifest reads as {!empty_manifest}. *)

val load_manifest :
  ?limits:Xmldoc.Limits.t -> string -> (manifest, Xmldoc.Fault.t) result
(** {!read_manifest} of the manifest file at a path, which must exist —
    what an fsck of that file checks. *)

val manifest_records : manifest -> int
(** Ingested records summarized across the manifest's levels. *)

val render_manifest : manifest -> string

val load_level :
  ?limits:Xmldoc.Limits.t ->
  dir:string ->
  level_info ->
  (Sketch.Synopsis.t, Xmldoc.Fault.t) result
(** Load one delta snapshot, verifying its bytes against the
    manifest's [crc] before parsing. *)

val load_stack :
  ?limits:Xmldoc.Limits.t ->
  dir:string ->
  name:string ->
  unit ->
  ( manifest * (Sketch.Synopsis.t * Xmldoc.Label.t list list) array,
    Xmldoc.Fault.t )
  result
(** {!read_manifest} plus every level it lists, in {!level_stack}'s
    shape, through the engine's own level loader: the first level that
    fails to load is the fault. *)

(** {2 Engine} *)

type t
(** One synopsis's live ingestion state: open WAL, memtable of
    acknowledged-but-unflushed records, loaded level stack. *)

val open_ :
  ?limits:Xmldoc.Limits.t ->
  ?root_label:Xmldoc.Label.t ->
  dir:string ->
  name:string ->
  level_budget:int ->
  flush_records:int ->
  unit ->
  (t, Xmldoc.Fault.t) result
(** Open (creating state files lazily) and recover: manifest read,
    levels loaded, WAL replayed with its torn tail truncated, records
    at or below the manifest's [flushed] dropped (exactly-once), the
    rest restored to the memtable.  [root_label] seeds the delta root
    when no level exists yet (existing levels win; defaults to
    [name]). *)

val close : t -> unit

val name : t -> string
val root_label : t -> Xmldoc.Label.t

val replayed_torn : t -> bool
(** Whether {!open_} truncated a torn WAL tail. *)

val ingest :
  ?now:float -> t -> xml:string -> (int * int, [ `No_space | `Fault of Xmldoc.Fault.t ]) result
(** Validate the fragment (parser limits apply), durably append it to
    the WAL, and admit it to the memtable.  Returns [(seq, depth)] —
    the record's sequence number and the post-append memtable depth.
    [`No_space] means the log could not grow: nothing was retained and
    the caller answers [error ingest-deferred].  A failed append never
    consumes the sequence number — the retry reuses it, so replay's
    strictly-increasing check never meets a legitimate gap. *)

val delete :
  ?now:float ->
  t ->
  path:string ->
  (int * int, [ `No_space | `Fault of Xmldoc.Fault.t ]) result
(** Durably append a deletion tombstone for every subtree matching the
    path predicate ({!valid_path}).  Same ack contract and return as
    {!ingest}.  Visibility follows flushes, like inserts: once the
    delete's batch is flushed, queries no longer see the deleted
    subtrees' contribution from any older level (the tombstone masks
    them) and compaction reclaims them physically.  The base snapshot
    is not mutated — deletion addresses live-ingested data. *)

val update :
  ?now:float ->
  t ->
  path:string ->
  xml:string ->
  (int * int, [ `No_space | `Fault of Xmldoc.Fault.t ]) result
(** Delete-then-insert committed atomically at one sequence number:
    one WAL record carries both the path predicate and the validated
    replacement fragment. *)

val flush : ?now:float -> t -> (bool, Xmldoc.Fault.t) result
(** Summarize the memtable into one delta TreeSketch (compressed under
    the level budget when needed), publish it as a new level via the
    locked manifest swap, and trim the WAL.  [Ok false] when there is
    nothing to flush or a compaction is in flight (flushes pause while
    compacting; the memtable simply grows and staleness rises). *)

val should_flush : t -> bool
(** Memtable at or past [flush_records] and no compaction in flight. *)

val refresh : t -> (unit, Xmldoc.Fault.t) result
(** Re-read the manifest and reload the level stack — the parent's
    reap path after a compaction child swapped the manifest. *)

val set_compacting : t -> bool -> unit
val compacting : t -> bool

val depth : t -> int
(** Memtable depth: acknowledged records not yet covered by a level. *)

val staleness : ?now:float -> t -> float
(** Age of the oldest acknowledged-but-unflushed record; [0.] when the
    memtable is empty.  The bound on how stale an answer over the
    level stack can be, exposed through STAT/HEALTH. *)

val wal_bytes : t -> int
(** Bytes of intact WAL on disk — the write-pressure controller's
    "WAL outstanding" signal. *)

val flushed_seq : t -> int
val level_count : t -> int
val level_records : t -> int

val level_stack : t -> (Sketch.Synopsis.t * Xmldoc.Label.t list list) array
(** The loaded levels, ascending generation, each paired with its
    parsed tombstone paths — the stack {!Query_exec.run} subtracts
    deletions over. *)

(** {2 Compaction (Jobs child body)} *)

val compact :
  ?limits:Xmldoc.Limits.t ->
  ?params:Sketch.Build.params ->
  dir:string ->
  name:string ->
  level_budget:int ->
  checkpoint:string ->
  unit ->
  (bool, Xmldoc.Fault.t) result
(** Merge every listed level ({!Sketch.Build.merge_tombstoned}: each
    level's tombstones prune the strictly older union before its
    content joins, so the output owes no tombstones — deleted subtrees
    are physically reclaimed) and compress the union under the level
    budget, journaling through Build checkpoints at [checkpoint] so a
    killed job resumes mid-clustering.  The swap re-validates, under
    the file lock, that the listed levels are exactly the consumed
    ones — a consumed-elsewhere input or a mid-compaction flush (whose
    tombstones the merge could not have folded) makes the result stale,
    discarded as a no-op.  Returns whether the compression degraded
    (maps to the degraded exit code in the Jobs child). *)
