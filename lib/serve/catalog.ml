type tier = {
  t_budget : int;
  t_synopsis : Sketch.Synopsis.t;
}

type entry = {
  name : string;
  path : string;
  synopsis : Sketch.Synopsis.t;
  tiers : tier array;
      (* finest first, never empty; [tiers.(0).t_synopsis == synopsis].
         A plain (non-ladder) snapshot has exactly one tier. *)
  content_crc : string;
  params_fp : string;
  mtime : float;
  size : int;
  ino : int;
  (* The live-update level stack ([.name.levels] + its delta files):
     queries evaluate base + every level and combine.  Deliberately
     excluded from {!hashes}/{!combined_hash} — levels are per-member
     ingestion state, and hashing them would make every replica look
     permanently divergent to the repair machinery. *)
  levels : (Sketch.Synopsis.t * Xmldoc.Label.t list list) array;
      (* ascending generation, each level paired with its manifest
         tombstone paths — newer levels' tombs mask older levels at
         query time *)
  level_records : int;  (* ingested records across the stack *)
  flushed_seq : int;  (* highest WAL seq covered by the stack *)
  synthetic : bool;
      (* no base snapshot: the entry exists only because levels do, and
         [synopsis] is a root-only placeholder for them to extend *)
  l_mtime : float;  (* manifest fingerprint; zeros when absent *)
  l_size : int;
  l_ino : int;
}

let tier_for entry level =
  let n = Array.length entry.tiers in
  entry.tiers.(min level (n - 1))

type quarantined = {
  q_name : string;
  q_path : string;
  fault : Xmldoc.Fault.t;
  q_scrub : bool;
  q_mtime : float;
  q_size : int;
  q_ino : int;
}

(* Protocol rendering of why a name is quarantined.  A scrub-detected
   fault is prefixed so operators can tell load-time rejection (a bad
   publish) from bit-rot found later in place. *)
let quarantine_reason q =
  if q.q_scrub then "scrub-" ^ Xmldoc.Fault.class_name q.fault
  else Xmldoc.Fault.class_name q.fault

type event =
  | Loaded of string
  | Reloaded of string
  | Quarantined of string * Xmldoc.Fault.t
  | Removed of string
  | Scan_error of Xmldoc.Fault.t

type t = {
  dir : string;
  limits : Xmldoc.Limits.t;
  entries : (string, entry) Hashtbl.t;
  quarantine : (string, quarantined) Hashtbl.t;
  (* Every public operation takes this lock: the serving runtime reads
     the catalog from many connection threads while auto-reload
     refreshes it, and the pool-era server no longer serializes request
     handling under one global lock.  A refresh holds the lock for the
     duration of any snapshot loads it performs — readers of a name
     being reloaded briefly queue, readers of a stable catalog do
     not block behind query evaluation (which happens outside). *)
  lock : Mutex.t;
}

(* Single-sourced from the scrubber so the catalog scan and the fsck
   walk can never consider different file sets. *)
let snapshot_extension = Scrub.snapshot_extension

let create ?(limits = Xmldoc.Limits.default) dir =
  {
    dir;
    limits;
    entries = Hashtbl.create 16;
    quarantine = Hashtbl.create 4;
    lock = Mutex.create ();
  }

let dir t = t.dir

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries name)

let fault_for t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.quarantine name with
      | Some q -> Some q.fault
      | None -> None)

let names t =
  Mutex.protect t.lock (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun name _ acc -> name :: acc) t.entries []))

let quarantined t =
  Mutex.protect t.lock (fun () ->
      List.sort
        (fun a b -> String.compare a.q_name b.q_name)
        (Hashtbl.fold (fun _ q acc -> q :: acc) t.quarantine []))

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)

(* A snapshot file is reconsidered when its (mtime, size, inode)
   fingerprint moves.  The inode closes the staleness window a plain
   (mtime, size) pair leaves open: [save_atomic] publishes by renaming
   a fresh temp file over the old one, so a same-second, same-size
   rewrite — invisible to a coarse mtime clock — still lands on a new
   inode.  [force] reconsiders everything regardless: the escape hatch
   for a same-size in-place overwrite of the very same inode, which no
   stat-level fingerprint can see. *)
let changed entry st =
  entry.mtime <> st.Unix.st_mtime
  || entry.size <> st.Unix.st_size
  || entry.ino <> st.Unix.st_ino

let refresh ?(force = false) t =
  Mutex.protect t.lock @@ fun () ->
  let events = ref [] in
  let note e = events := e :: !events in
  match
    Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path:t.dir;
    Sys.readdir t.dir
  with
  | exception Sys_error message ->
    note (Scan_error (Xmldoc.Fault.Io_error { path = t.dir; message }));
    List.rev !events
  | exception Unix.Unix_error (e, fn, _) ->
    note
      (Scan_error
         (Xmldoc.Fault.Io_error
            { path = t.dir; message = fn ^ ": " ^ Unix.error_message e }));
    List.rev !events
  | files ->
    let seen = Hashtbl.create 16 in
    Array.sort String.compare files;
    Array.iter
      (fun file ->
        if Filename.check_suffix file snapshot_extension then begin
          let name = Filename.chop_suffix file snapshot_extension in
          let path = Filename.concat t.dir file in
          match
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
            Unix.stat path
          with
          | exception Unix.Unix_error _ -> () (* deleted between readdir and stat *)
          | st when st.Unix.st_kind <> Unix.S_REG -> ()
          | st ->
            Hashtbl.replace seen name ();
            let known = Hashtbl.find_opt t.entries name in
            let needs_load =
              force
              ||
              match Hashtbl.find_opt t.quarantine name with
              | Some q ->
                (* a quarantined file is retried only once its
                   fingerprint moves: unconditional retry would re-read
                   and re-parse a persistently corrupt file on every
                   refresh.  RELOAD -force stays the escape hatch for
                   in-place rewrites the fingerprint cannot see. *)
                q.q_mtime <> st.Unix.st_mtime
                || q.q_size <> st.Unix.st_size
                || q.q_ino <> st.Unix.st_ino
              | None -> (
                match known with None -> true | Some e -> changed e st)
            in
            if needs_load then begin
              (* The scrubber's own verifier: the content hash covers
                 exactly the bytes that were validated, so a replica
                 group can compare hashes to detect divergence. *)
              match Scrub.load_file ~limits:t.limits path with
              | Ok (_, loaded, info) ->
                let tiers =
                  match loaded with
                  | Sketch.Serialize.Single s ->
                    [| { t_budget = Sketch.Synopsis.size_bytes s; t_synopsis = s } |]
                  | Sketch.Serialize.Ladder tiers ->
                    Array.map
                      (fun (t_budget, t_synopsis) -> { t_budget; t_synopsis })
                      tiers
                in
                (* base reload preserves the attached level stack; the
                   manifest pass below re-syncs it if it moved too *)
                let levels, level_records, flushed_seq, l_mtime, l_size, l_ino =
                  match known with
                  | Some e ->
                    (e.levels, e.level_records, e.flushed_seq, e.l_mtime, e.l_size, e.l_ino)
                  | None -> ([||], 0, 0, 0., 0, 0)
                in
                Hashtbl.replace t.entries name
                  {
                    name;
                    path;
                    synopsis = tiers.(0).t_synopsis;
                    tiers;
                    content_crc = info.Scrub.v_crc;
                    params_fp = info.Scrub.v_fp;
                    mtime = st.Unix.st_mtime;
                    size = st.Unix.st_size;
                    ino = st.Unix.st_ino;
                    levels;
                    level_records;
                    flushed_seq;
                    synthetic = false;
                    l_mtime;
                    l_size;
                    l_ino;
                  };
                Hashtbl.remove t.quarantine name;
                note (if known = None then Loaded name else Reloaded name)
              | Error fault ->
                (* Quarantine the file; a previously resident version
                   keeps serving (stale beats absent — the synopsis is
                   approximate either way). *)
                Hashtbl.replace t.quarantine name
                  {
                    q_name = name;
                    q_path = path;
                    fault;
                    q_scrub = false;
                    q_mtime = st.Unix.st_mtime;
                    q_size = st.Unix.st_size;
                    q_ino = st.Unix.st_ino;
                  };
                note (Quarantined (name, fault))
            end
        end)
      files;
    (* Second pass: level manifests.  Runs after the snapshot pass so a
       base reload and a manifest swap landing in the same refresh
       compose.  A manifest is re-read when its own (mtime, size, ino)
       fingerprint moves — a flush or compaction swap renames a fresh
       temp file over it, so the inode always changes. *)
    let have_manifest = Hashtbl.create 4 in
    Array.iter
      (fun file ->
        match Ingest.manifest_name file with
        | None -> ()
        | Some name -> (
          let path = Filename.concat t.dir file in
          match
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
            Unix.stat path
          with
          | exception Unix.Unix_error _ -> ()
          | st when st.Unix.st_kind <> Unix.S_REG -> ()
          | st -> (
            Hashtbl.replace have_manifest name ();
            let known = Hashtbl.find_opt t.entries name in
            let needs_load =
              force
              ||
              match known with
              | Some e ->
                e.l_mtime <> st.Unix.st_mtime
                || e.l_size <> st.Unix.st_size
                || e.l_ino <> st.Unix.st_ino
              | None -> true
            in
            if needs_load then begin
              match Ingest.load_stack ~limits:t.limits ~dir:t.dir ~name () with
              | Ok (m, levels) -> (
                let fingerprint e =
                  {
                    e with
                    levels;
                    level_records = Ingest.manifest_records m;
                    flushed_seq = m.Ingest.flushed;
                    l_mtime = st.Unix.st_mtime;
                    l_size = st.Unix.st_size;
                    l_ino = st.Unix.st_ino;
                  }
                in
                match known with
                | Some e ->
                  Hashtbl.replace t.entries name (fingerprint e);
                  note (Reloaded name)
                | None when Array.length levels = 0 ->
                  (* an empty manifest with no base names nothing yet *)
                  ()
                | None ->
                  (* ingest-only name: serve the level stack over a
                     root-only placeholder base until a BUILD or a
                     snapshot publish gives it a real one *)
                  let root_label =
                    let s, _ = levels.(0) in
                    Sketch.Synopsis.label s s.Sketch.Synopsis.root
                  in
                  let base =
                    Sketch.Synopsis.make ~root:0
                      [| { Sketch.Synopsis.label = root_label; count = 1.0; edges = [||] } |]
                  in
                  Hashtbl.replace t.entries name
                    (fingerprint
                       {
                         name;
                         path;
                         synopsis = base;
                         tiers =
                           [|
                             {
                               t_budget = Sketch.Synopsis.size_bytes base;
                               t_synopsis = base;
                             };
                           |];
                         content_crc = "-";
                         params_fp = "-";
                         mtime = 0.;
                         size = 0;
                         ino = 0;
                         levels = [||];
                         level_records = 0;
                         flushed_seq = 0;
                         synthetic = true;
                         l_mtime = 0.;
                         l_size = 0;
                         l_ino = 0;
                       });
                  note (Loaded name))
              | Error fault ->
                (* same keep-resident discipline as a corrupt base: the
                   previously loaded stack keeps serving, the rotten
                   manifest is quarantined until its fingerprint moves *)
                Hashtbl.replace t.quarantine name
                  {
                    q_name = name;
                    q_path = path;
                    fault;
                    q_scrub = false;
                    q_mtime = st.Unix.st_mtime;
                    q_size = st.Unix.st_size;
                    q_ino = st.Unix.st_ino;
                  };
                note (Quarantined (name, fault))
            end)))
      files;
    (* a manifest that vanished takes its level stack with it *)
    Hashtbl.iter
      (fun name e ->
        if
          (not (Hashtbl.mem have_manifest name))
          && (Array.length e.levels > 0 || e.l_ino <> 0)
          && not e.synthetic
        then
          Hashtbl.replace t.entries name
            {
              e with
              levels = [||];
              level_records = 0;
              flushed_seq = 0;
              l_mtime = 0.;
              l_size = 0;
              l_ino = 0;
            })
      (Hashtbl.copy t.entries);
    let keep name =
      Hashtbl.mem seen name
      || (Hashtbl.mem have_manifest name
         &&
         match Hashtbl.find_opt t.entries name with
         | Some e -> e.synthetic
         | None -> false)
    in
    let gone =
      Hashtbl.fold
        (fun name _ acc -> if keep name then acc else name :: acc)
        t.entries []
    in
    List.iter
      (fun name ->
        Hashtbl.remove t.entries name;
        note (Removed name))
      (List.sort String.compare gone);
    Hashtbl.iter
      (fun name q ->
        if not (Sys.file_exists q.q_path) then Hashtbl.remove t.quarantine name)
      (Hashtbl.copy t.quarantine);
    List.rev !events

let quarantine_for t name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.quarantine name)

(* Scrub verdict application.  The resident (in-memory) version keeps
   serving — it was loaded from bytes that verified clean; what rotted
   is the file.  The quarantine fingerprint is the rotten file's
   current stat, so the repair path's atomic install (new inode) is
   retried by the very next refresh, while the rotten file itself is
   not re-parsed every period. *)
let quarantine_scrub t name fault =
  Mutex.protect t.lock @@ fun () ->
  let path = Filename.concat t.dir (name ^ snapshot_extension) in
  let q_mtime, q_size, q_ino =
    match Unix.stat path with
    | st -> (st.Unix.st_mtime, st.Unix.st_size, st.Unix.st_ino)
    | exception Unix.Unix_error _ -> (0., 0, 0)
  in
  Hashtbl.replace t.quarantine name
    { q_name = name; q_path = path; fault; q_scrub = true; q_mtime; q_size; q_ino }

let hashes t =
  Mutex.protect t.lock (fun () ->
      List.sort
        (fun (a, _, _) (b, _, _) -> String.compare a b)
        (Hashtbl.fold
           (fun name e acc ->
             (* synthetic (ingest-only) entries have no base snapshot to
                compare or repair, and levels are per-member state: both
                stay out of the group's content identity, or the
                divergence detector would flag — and REPAIR would chase
                — every replica forever *)
             if e.synthetic then acc
             else (name, e.content_crc, e.params_fp) :: acc)
           t.entries []))

(* One hash for the whole resident set: equal iff two members hold
   byte-identical snapshots built with identical parameters under
   identical names.  What HEALTH advertises and the coordinator's
   divergence detector compares. *)
let combined_hash t =
  let line (name, crc, fp) = name ^ ":" ^ crc ^ ":" ^ fp in
  Scrub.content_hash (String.concat ";" (List.map line (hashes t)))
