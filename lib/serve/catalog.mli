(** The resident synopsis catalog of the serving runtime.

    A catalog maps names to loaded synopses, backed by a directory of
    [.ts] snapshot files ([name.ts] serves as [name]).  {!refresh}
    reconciles the resident set with the directory:

    - new or changed files (by [(mtime, size, inode)] fingerprint) are
      re-loaded through the validating {!Sketch.Serialize.load_res};
      the inode component means a same-second, same-size rewrite
      published by {!Sketch.Serialize.save_atomic}'s rename is still
      observed — only an in-place overwrite of the same inode needs
      [refresh ~force:true];
    - files that fail to load are {e quarantined}, never partially
      loaded: the structured fault is recorded, and — crucially — a
      previously resident version of the same name {e keeps serving}
      (approximate answers from a slightly stale synopsis beat no
      answers); a quarantined file is retried once its fingerprint
      moves — so an in-place repair is picked up without a restart,
      while a persistently corrupt file is not re-parsed on every
      refresh ([refresh ~force:true] retries unconditionally);
    - files that disappeared are dropped;
    - level manifests ([.name.levels], see {!Ingest}) are reconciled
      the same way in a second pass: a manifest whose own fingerprint
      moved (every flush/compaction swap renames a new inode over it)
      has its delta stack re-loaded and attached to the entry; a
      corrupt manifest quarantines the name while the previously
      loaded stack keeps serving; a manifest without a base snapshot
      synthesizes an ingest-only entry over a root-only placeholder.

    Combined with {!Sketch.Serialize.save_atomic}'s
    write-temp-then-rename discipline, a crash at any byte of a
    snapshot write leaves the catalog serving the previous complete
    version; a torn in-place write is caught by the version-2 checksum
    and quarantined.

    Every operation is thread-safe (one internal lock): connection
    threads read concurrently with auto-reload refreshes, without the
    server-wide serialization the pre-pool runtime relied on. *)

(** One rung of a degradation ladder: a synopsis built under
    [t_budget] bytes. *)
type tier = {
  t_budget : int;
  t_synopsis : Sketch.Synopsis.t;
}

type entry = {
  name : string;
  path : string;
  synopsis : Sketch.Synopsis.t;  (** the finest tier, [tiers.(0)] *)
  tiers : tier array;
      (** finest first, never empty: a version-4 ladder snapshot loads
          all its rungs; a plain snapshot has exactly one tier whose
          budget is its own size *)
  content_crc : string;
      (** 8-hex CRC-32 of the raw file bytes at load time — the
          content identity replicas compare for divergence, restored
          exactly by a byte-identical peer repair *)
  params_fp : string;
      (** the scrubber's params fingerprint ([v_fp] of
          {!Scrub.load_file}) of the build shape (plain vs ladder, tier
          budgets), 8-hex *)
  mtime : float;  (** fingerprint at load time *)
  size : int;  (** fingerprint at load time *)
  ino : int;  (** fingerprint at load time *)
  levels : (Sketch.Synopsis.t * Xmldoc.Label.t list list) array;
      (** the live-update delta stack ([.name.levels] manifest + its
          [.name.l<gen>.delta] files), ascending generation, each level
          paired with its tombstone path predicates ([tombs=] in the
          manifest, parsed); [[||]] when the name has no ingestion
          state.  Queries evaluate base plus every level and combine,
          with each level masked by every {e newer} level's tombstones
          first (see {!Query_exec}).  Levels are deliberately {e not}
          part of {!hashes}/{!combined_hash}: they are per-member
          ingestion state, and hashing them would make every replica
          look permanently divergent. *)
  level_records : int;  (** ingested records summarized across levels *)
  flushed_seq : int;  (** highest WAL sequence covered by the levels *)
  synthetic : bool;
      (** [true] for an ingest-only name: no base snapshot exists, and
          [synopsis] is a root-only placeholder the levels extend *)
  l_mtime : float;  (** manifest fingerprint; zeros when absent *)
  l_size : int;
  l_ino : int;
}

val tier_for : entry -> int -> tier
(** [tier_for entry level] is the rung serving degradation level
    [level], clamped to the coarsest rung present — [tiers.(0)] for
    every plain snapshot regardless of level. *)

type quarantined = {
  q_name : string;
  q_path : string;
  fault : Xmldoc.Fault.t;
  q_scrub : bool;
      (** [true] when the background scrubber found the file rotten in
          place ({!quarantine_scrub}); [false] for load-time rejection *)
  q_mtime : float;  (** fingerprint of the rejected file *)
  q_size : int;  (** fingerprint of the rejected file *)
  q_ino : int;  (** fingerprint of the rejected file *)
}

val quarantine_reason : quarantined -> string
(** Protocol token for why the name is quarantined:
    {!Xmldoc.Fault.class_name} of the fault, prefixed with ["scrub-"]
    (e.g. ["scrub-corrupt"]) when the scrubber found it — operators can
    tell a bad publish from bit-rot discovered later. *)

type event =
  | Loaded of string
  | Reloaded of string
  | Quarantined of string * Xmldoc.Fault.t
  | Removed of string
  | Scan_error of Xmldoc.Fault.t
      (** the catalog directory itself could not be scanned *)

type t

val snapshot_extension : string
(** [".ts"] — the only files the catalog considers, which is what makes
    {!Sketch.Serialize.save_atomic}'s [.tmp] staging files invisible to
    readers. *)

val create : ?limits:Xmldoc.Limits.t -> string -> t
(** [create dir] is an empty catalog over [dir]; call {!refresh} to
    populate it.  [limits] bounds every snapshot load. *)

val refresh : ?force:bool -> t -> event list
(** Reconcile with the directory; returns what changed, in
    deterministic (name-sorted) order.  [force] reloads unchanged files
    too.  Never raises. *)

val find : t -> string -> entry option

val fault_for : t -> string -> Xmldoc.Fault.t option
(** The quarantine fault recorded for [name], if any — present exactly
    when the on-disk file is unloadable (the name may still be
    resident from an earlier good version). *)

val names : t -> string list
(** Resident names, sorted. *)

val quarantined : t -> quarantined list
(** Quarantine records, sorted by name. *)

val quarantine_for : t -> string -> quarantined option
(** The full quarantine record for [name] (see {!fault_for} for just
    the fault). *)

val quarantine_scrub : t -> string -> Xmldoc.Fault.t -> unit
(** Apply a scrub verdict: record [name] as quarantined with
    [q_scrub = true].  The resident in-memory version {e keeps
    serving} — it was loaded from bytes that verified clean; what
    rotted is the file.  The recorded fingerprint is the rotten file's
    current stat, so a repair installed by atomic rename (new inode)
    is picked up by the next {!refresh} without [force]. *)

val hashes : t -> (string * string * string) list
(** [(name, content_crc, params_fp)] per resident entry, name-sorted —
    what LIST advertises for per-synopsis divergence checks. *)

val combined_hash : t -> string
(** One 8-hex hash over {!hashes}: equal between two members iff they
    hold byte-identical snapshots with identical build parameters under
    identical names.  Advertised by HEALTH; the coordinator compares
    members' values to flag divergent replicas. *)

val size : t -> int

val dir : t -> string
