(* Snapshot integrity scrubbing: the shared fsck core.

   One verification routine — read the raw bytes through the fault
   taps, re-check every CRC (version-2/3 trailers, version-4 ladder
   manifest and per-tier checksums), re-run [Synopsis.validate] on
   every decoded tier — reused by four callers:

   - the catalog's load path ([load_file], which hands back the
     decoded tiers with the content hash and params fingerprint);
   - the background scrub job forked by the {!Jobs} supervisor, which
     walks the directory and writes a report the serving parent applies
     as quarantines;
   - the synchronous SCRUB protocol verb;
   - the [treesketch verify] offline fsck subcommand.

   The content hash is the CRC-32 of the file's raw bytes: two replicas
   hold the same snapshot iff their hashes match, and a byte-identical
   peer repair restores the hash exactly.  The params fingerprint hashes
   only the build {e shape} (plain vs ladder, tier budgets) — two
   members that built the same name with different budgets diverge in
   fingerprint even when bit-rot is absent. *)

let snapshot_extension = ".ts"

(* Staging files left by a crash mid-[save_atomic]: the
   [Filename.temp_file ~temp_dir:dir ".treesketch" ".tmp"] naming every
   atomic writer in this repository uses. *)
let is_tmp_orphan file =
  let prefix = ".treesketch" and suffix = ".tmp" in
  String.length file > String.length prefix + String.length suffix
  && String.sub file 0 (String.length prefix) = prefix
  && String.sub file
       (String.length file - String.length suffix)
       (String.length suffix)
     = suffix

type info = {
  v_bytes : int;
  v_crc : string;  (* 8-hex CRC-32 of the raw file bytes *)
  v_fp : string;  (* 8-hex build-params fingerprint *)
  v_tiers : int;  (* ladder rungs; 1 for a plain snapshot *)
}

let content_hash s = Sketch.Crc32.to_hex (Sketch.Crc32.string s)

(* Decode already-read bytes: the parse IS the integrity check — every
   CRC is re-computed and every tier re-validated by
   [of_any_string_res].  The params fingerprint hashes the build shape
   only: plain, or the ladder's tier budgets. *)
let decode ?limits text =
  Result.map
    (fun (loaded : Sketch.Serialize.loaded) ->
      let shape, tiers =
        match loaded with
        | Single _ -> ("single", 1)
        | Ladder tiers ->
          ( "ladder:"
            ^ String.concat ","
                (Array.to_list (Array.map (fun (b, _) -> string_of_int b) tiers)),
            Array.length tiers )
      in
      ( loaded,
        {
          v_bytes = String.length text;
          v_crc = content_hash text;
          v_fp = content_hash shape;
          v_tiers = tiers;
        } ))
    (Sketch.Serialize.of_any_string_res ?limits text)

let verify_string ?limits text = Result.map snd (decode ?limits text)

let load_file ?limits path =
  Result.bind (Sketch.Serialize.load_raw_res ?limits path) (fun text ->
      match decode ?limits text with
      | Ok (loaded, info) -> Ok (text, loaded, info)
      | Error f -> Error (Xmldoc.Fault.with_path path f))

let verify_file ?limits path =
  Result.map (fun (_, _, info) -> info) (load_file ?limits path)

type verdict =
  | Snapshot of info
  | Wal_log of { records : int; torn : bool }
  | Manifest of { flushed : int; levels : int; tombs : int }
  | Delta of { gen : int; records : int; bytes : int }
  | Orphan of info

(* The one dispatcher from a file name to its family's reader.  Every
   fault is reported against the file it concerns, so a manifest
   reports each rotten delta it lists. *)
let verify_path ?limits path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let one verdict = Result.map_error (fun f -> [ (path, f) ]) verdict in
  match (Wal.wal_name base, Ingest.manifest_name base, Ingest.level_name base) with
  | Some _, _, _ ->
    (* a torn tail is a normal crash artifact replay truncates: it
       passes *)
    one
      (Result.map
         (fun (records, torn) -> Wal_log { records = List.length records; torn })
         (Wal.scan ?limits path))
  | None, Some name, _ -> (
    (* resolved the way the engine names it, so faults read exactly as
       a restart's would *)
    match Ingest.load_manifest ?limits (Ingest.manifest_path ~dir ~name) with
    | Error f -> Error [ (path, f) ]
    | Ok m -> (
      let rotten (e : Ingest.level_info) =
        match Ingest.load_level ?limits ~dir e with
        | Ok _ -> None
        | Error f -> Some (Filename.concat dir e.file, f)
      in
      match List.filter_map rotten m.entries with
      | [] ->
        Ok
          (Manifest
             {
               flushed = m.flushed;
               levels = List.length m.entries;
               tombs =
                 List.fold_left
                   (fun n (e : Ingest.level_info) -> n + List.length e.tombs)
                   0 m.entries;
             })
      | faults -> Error faults))
  | None, None, Some (name, gen) -> (
    match Ingest.read_manifest ?limits ~dir ~name () with
    | Error f -> Error [ (path, f) ]
    | Ok m -> (
      match List.find_opt (fun (e : Ingest.level_info) -> e.gen = gen) m.entries with
      | Some e ->
        one
          (Result.map
             (fun _ -> Delta { gen; records = e.records; bytes = e.bytes })
             (Ingest.load_level ?limits ~dir e))
      | None ->
        (* unreferenced: a crash orphan replay ignores and the sweep
           collects, but it must still be a well-formed snapshot *)
        one (Result.map (fun i -> Orphan i) (verify_file ?limits path))))
  | None, None, None ->
    one (Result.map (fun i -> Snapshot i) (verify_file ?limits path))

type file_report = {
  f_name : string;
  f_path : string;
  f_result : (info, Xmldoc.Fault.t) result;
}

(* Walk [dir] and verify every snapshot, in name order.  [Error] only
   when the directory itself cannot be scanned — per-file corruption is
   data, not failure. *)
let scan ?limits dir =
  match
    Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path:dir;
    Sys.readdir dir
  with
  | exception Sys_error message ->
    Error (Xmldoc.Fault.Io_error { path = dir; message })
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Xmldoc.Fault.Io_error
         { path = dir; message = fn ^ ": " ^ Unix.error_message e })
  | files ->
    Array.sort String.compare files;
    let ts_reports =
      Array.to_list files
      |> List.filter_map (fun file ->
             if not (Filename.check_suffix file snapshot_extension) then None
             else
               let name = Filename.chop_suffix file snapshot_extension in
               let path = Filename.concat dir file in
               match
                 Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
                 Unix.stat path
               with
               | exception Unix.Unix_error _ -> None (* unlinked mid-scan *)
               | st when st.Unix.st_kind <> Unix.S_REG -> None
               | _ ->
                 Some { f_name = name; f_path = path; f_result = verify_file ?limits path })
    in
    (* Live-ingestion state rots too: each level manifest (with every
       delta it lists) and each WAL goes through [verify_path].  Only
       failures are reported, one per file with its first fault; the
       serving parent replays them as quarantines exactly like snapshot
       rot (the resident level stack keeps serving).  Unreferenced
       deltas are left to [sweep_levels]: replay ignores them, so their
       rot must not quarantine the name. *)
    let ingest_reports =
      Array.to_list files
      |> List.filter_map (fun file ->
             let path = Filename.concat dir file in
             match Ingest.manifest_name file, Wal.wal_name file with
             | (Some name, _ | None, Some name) when Sys.file_exists path -> (
               match verify_path ?limits path with
               | Error ((_, f) :: _) ->
                 Some { f_name = name; f_path = path; f_result = Error f }
               | Ok _ | Error [] -> None)
             | _ -> None)
    in
    Ok (ts_reports @ ingest_reports)

(* ------------------------------------------------------------------ *)
(* Orphaned temp-file sweep                                            *)
(* ------------------------------------------------------------------ *)

(* Remove [.treesketch*.tmp] staging files abandoned by a crash
   mid-atomic-write.  Age-gated: a LIVE writer (a build worker
   publishing, a repair installing) also stages under this pattern, so
   only temps older than [max_age] seconds are orphans — a crashed
   writer's temp only gets older, while a live writer's is seconds old.
   Returns the swept file names (not paths), sorted. *)
let sweep_tmp ?(max_age = 60.0) dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.sort String.compare files;
    let now = Unix.gettimeofday () in
    Array.to_list files
    |> List.filter_map (fun file ->
           if not (is_tmp_orphan file) then None
           else
             let path = Filename.concat dir file in
             match
               Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
               Unix.stat path
             with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind <> Unix.S_REG -> None
             | st when now -. st.Unix.st_mtime < max_age -> None
             | _ -> (
               match
                 (* temp-file cleanup is itself an injectable fault
                    point: a sweep that cannot unlink leaves the orphan
                    for the next sweep instead of failing the caller *)
                 Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Close ~path;
                 Sys.remove path
               with
               | () -> Some file
               | exception (Sys_error _ | Unix.Unix_error _) -> None))

(* Unreferenced level delta files: a crash after a compaction's
   manifest swap but before its input deletion — or between a level
   write and the swap that would have listed it — leaves
   [.name.l<gen>.delta] files no manifest references.  Replay ignores
   them; this sweep removes them.  Age-gated like the tmp sweep: a live
   flush/compaction writes its level file moments before the swap that
   references it, so only old unreferenced files are orphans.  An
   unreadable manifest pins every level of its name — never sweep what
   a repaired manifest may still list. *)
let sweep_levels ?(max_age = 60.0) dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.sort String.compare files;
    let referenced = Hashtbl.create 8 in
    let pinned = Hashtbl.create 4 in
    Array.iter
      (fun file ->
        match Ingest.manifest_name file with
        | None -> ()
        | Some name -> (
          match Ingest.read_manifest ~dir ~name () with
          | Error _ -> Hashtbl.replace pinned name ()
          | Ok m ->
            List.iter
              (fun (e : Ingest.level_info) ->
                Hashtbl.replace referenced (name, e.Ingest.gen) ())
              m.Ingest.entries))
      files;
    let now = Unix.gettimeofday () in
    Array.to_list files
    |> List.filter_map (fun file ->
           match Ingest.level_name file with
           | None -> None
           | Some (name, gen)
             when Hashtbl.mem referenced (name, gen) || Hashtbl.mem pinned name
             ->
             None
           | Some _ -> (
             let path = Filename.concat dir file in
             match
               Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
               Unix.stat path
             with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind <> Unix.S_REG -> None
             | st when now -. st.Unix.st_mtime < max_age -> None
             | _ -> (
               match
                 Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Close ~path;
                 Sys.remove path
               with
               | () -> Some file
               | exception (Sys_error _ | Unix.Unix_error _) -> None)))

(* ------------------------------------------------------------------ *)
(* Scrub-job report file                                               *)
(* ------------------------------------------------------------------ *)

(* The forked scrub worker cannot touch the parent's resident catalog;
   it writes its findings to a hidden report file (atomic rename, so
   the parent never reads a torn report) which the parent replays as
   quarantine decisions.  One line per snapshot:

     ok <name> bytes=<n> crc=<hex> fp=<hex> tiers=<k>
     corrupt <name> class=<class> msg=<flattened message>
*)

let report_path dir = Filename.concat dir ".scrub.report"

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let render_report reports =
  String.concat ""
    (List.map
       (fun r ->
         match r.f_result with
         | Ok i ->
           Printf.sprintf "ok %s bytes=%d crc=%s fp=%s tiers=%d\n" r.f_name
             i.v_bytes i.v_crc i.v_fp i.v_tiers
         | Error f ->
           Printf.sprintf "corrupt %s class=%s msg=%s\n" r.f_name
             (Xmldoc.Fault.class_name f)
             (one_line (Xmldoc.Fault.to_string f)))
       reports)

let write_report dir reports =
  Sketch.Serialize.write_atomic (report_path dir) (render_report reports)

type reported =
  | Report_ok of info
  | Report_corrupt of { r_class : string; r_msg : string }

(* Tolerant reader: unparseable lines are dropped (a torn or stale
   report quarantines nothing — scrubbing is advisory, the next period
   rescans), a missing report reads as [None]. *)
let read_report dir =
  let path = report_path dir in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception (Sys_error _ | End_of_file) -> None
  | text ->
    let kv prefix tok =
      if
        String.length tok > String.length prefix
        && String.sub tok 0 (String.length prefix) = prefix
      then Some (String.sub tok (String.length prefix)
                   (String.length tok - String.length prefix))
      else None
    in
    Some
      (List.filter_map
         (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | "ok" :: name :: bytes :: crc :: fp :: tiers :: [] -> (
             match
               ( Option.bind (kv "bytes=" bytes) int_of_string_opt,
                 kv "crc=" crc,
                 kv "fp=" fp,
                 Option.bind (kv "tiers=" tiers) int_of_string_opt )
             with
             | Some v_bytes, Some v_crc, Some v_fp, Some v_tiers ->
               Some (name, Report_ok { v_bytes; v_crc; v_fp; v_tiers })
             | _ -> None)
           | "corrupt" :: name :: cls :: msg_words -> (
             match kv "class=" cls with
             | Some r_class ->
               let msg = String.concat " " msg_words in
               let r_msg =
                 match kv "msg=" msg with Some m -> m | None -> msg
               in
               Some (name, Report_corrupt { r_class; r_msg })
             | None -> None)
           | _ -> None)
         (String.split_on_char '\n' text))

let remove_report dir =
  try Sys.remove (report_path dir) with Sys_error _ -> ()
