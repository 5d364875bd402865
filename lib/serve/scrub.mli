(** Snapshot integrity scrubbing — the shared fsck core of the
    anti-entropy layer.

    One verification routine (raw read through the {!Xmldoc.Io_fault}
    taps, every CRC re-checked, every tier re-validated) reused by the
    catalog's load path ({!load_file}), the background scrub job and
    the synchronous SCRUB protocol verb ({!scan}), and the
    [treesketch verify] offline fsck ({!verify_path}).

    Two identities fall out of a verification:
    - the {e content hash} — CRC-32 of the file's raw bytes.  Replicas
      hold the same snapshot iff their hashes match; a byte-identical
      peer repair restores the hash exactly.
    - the {e params fingerprint} — a hash of the build shape only
      (plain vs ladder, tier budgets), so two members that built the
      same name with different parameters read as divergent even when
      nothing has rotted. *)

val snapshot_extension : string
(** [".ts"] — the catalog's snapshot naming convention, single-sourced
    here so the scrubber and the catalog can never walk different file
    sets. *)

val is_tmp_orphan : string -> bool
(** Does this basename match the [.treesketch*.tmp] staging pattern of
    {!Sketch.Serialize.save_atomic}? *)

type info = {
  v_bytes : int;  (** file size in bytes *)
  v_crc : string;  (** content hash: 8-hex CRC-32 of the raw bytes *)
  v_fp : string;  (** build-params fingerprint, 8-hex *)
  v_tiers : int;  (** ladder rungs; 1 for a plain snapshot *)
}

val content_hash : string -> string
(** 8-hex CRC-32 of some bytes — the content-hash function. *)

val verify_string :
  ?limits:Xmldoc.Limits.t -> string -> (info, Xmldoc.Fault.t) result
(** Verify already-read bytes: full parse (all CRCs re-computed, all
    tiers [Synopsis.validate]d) plus hashing.  What the FETCH receiver
    checks pulled bytes with. *)

val load_file :
  ?limits:Xmldoc.Limits.t ->
  string ->
  (string * Sketch.Serialize.loaded * info, Xmldoc.Fault.t) result
(** Read a snapshot through {!Sketch.Serialize.load_raw_res} and verify
    it end to end: its raw bytes, decoded tiers and identities — the
    catalog's load path and the FETCH source.  Faults are
    path-tagged. *)

val verify_file :
  ?limits:Xmldoc.Limits.t -> string -> (info, Xmldoc.Fault.t) result
(** {!load_file}'s identities alone.  This is the scrub: a
    snapshot that loaded cleanly an hour ago and has rotted since fails
    {e here}, where the catalog's fingerprint cache would never look. *)

(** What a clean file of each family verified as. *)
type verdict =
  | Snapshot of info  (** a plain or ladder snapshot *)
  | Wal_log of { records : int; torn : bool }
      (** intact frames; a torn tail passes (replay truncates it) *)
  | Manifest of { flushed : int; levels : int; tombs : int }
      (** a level manifest and every delta it lists *)
  | Delta of { gen : int; records : int; bytes : int }
      (** a delta matching its manifest entry's crc *)
  | Orphan of info  (** a delta no manifest lists, valid as a snapshot *)

val verify_path :
  ?limits:Xmldoc.Limits.t ->
  string ->
  (verdict, (string * Xmldoc.Fault.t) list) result
(** Verify one file with its family's reader, the family picked from
    the file name: a WAL ([.name.wal]) frame by frame, a level
    manifest ([.name.levels]) together with every delta it lists, a
    delta ([.name.l<gen>.delta]) against its manifest's crc — or as a
    plain snapshot when no manifest lists it — and anything else as a
    snapshot.  [Error] lists every fault found, each with the file it
    concerns (never empty); a missing file is an [Io_error] in every
    family.  {!scan} and [treesketch verify] both run it, so offline
    and online verification cannot disagree. *)

type file_report = {
  f_name : string;  (** snapshot name (extension stripped) *)
  f_path : string;
  f_result : (info, Xmldoc.Fault.t) result;
}

val scan :
  ?limits:Xmldoc.Limits.t ->
  string ->
  (file_report list, Xmldoc.Fault.t) result
(** Verify every [*.ts] snapshot under a directory, in name order.
    [Error] only when the directory itself cannot be scanned;
    individual corruption is data ([f_result = Error _]), not
    failure.

    Live-ingestion state ({!Ingest}) is verified too: each level
    manifest and each WAL through {!verify_path}.  Only {e failures}
    appear in the report (as corrupt entries under the synopsis name,
    first fault only), so directories without ingestion state scan
    exactly as before.  Files that vanish mid-walk are skipped, and
    unreferenced deltas are left to {!sweep_levels}. *)

val sweep_tmp : ?max_age:float -> string -> string list
(** Remove orphaned [.treesketch*.tmp] staging files older than
    [max_age] seconds (default 60) and return their names, sorted.
    The age gate protects live writers — a build worker or a repair
    installing through {!Sketch.Serialize.save_atomic} stages under
    the same pattern, but only for moments; a crash orphan only gets
    older.  Unremovable or vanished candidates are skipped, never
    fatal. *)

val sweep_levels : ?max_age:float -> string -> string list
(** Remove [.name.l<gen>.delta] level files no manifest references —
    left by a crash between a compaction's manifest swap and its input
    deletion, or between a level write and the swap that would have
    listed it.  Replay ignores them, so this is pure garbage
    collection.  Age-gated like {!sweep_tmp} (a live flush writes its
    level moments before referencing it); an unreadable manifest pins
    every level of its name, so nothing a repaired manifest may still
    list is lost.  Returns the swept names, sorted. *)

(** {2 Scrub-job report file}

    The scrub job runs as a forked child under the {!Jobs} supervisor
    and cannot touch the parent's resident catalog; it communicates
    through a hidden report file written atomically into the catalog
    directory, which the parent replays as quarantine decisions. *)

val report_path : string -> string
(** [dir/.scrub.report] — dot-prefixed, so the catalog scan never
    mistakes it for a snapshot. *)

val write_report : string -> file_report list -> (unit, Xmldoc.Fault.t) result
(** Render and atomically publish the report. *)

(** One parsed report line. *)
type reported =
  | Report_ok of info
  | Report_corrupt of { r_class : string; r_msg : string }

val read_report : string -> (string * reported) list option
(** Parse the report back, [None] if absent or unreadable.  Tolerant:
    unparseable lines are dropped — a torn or stale report quarantines
    nothing; the next scrub period rescans. *)

val remove_report : string -> unit
(** Best-effort deletion (consumed reports should not linger). *)
