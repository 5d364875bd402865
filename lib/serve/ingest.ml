(* The live update path: WAL-backed memtable + LSM levels of delta
   TreeSketches.

   Per synopsis [name], three kinds of hidden files live next to the
   base snapshot ([name.ts]):

   - [.name.wal]        the write-ahead log ({!Wal}); acked ingests
   - [.name.levels]     the level manifest — THE commit point
   - [.name.l<gen>.delta]  one delta TreeSketch per flushed level

   The manifest is a CRC-trailed text file listing the live levels and
   [flushed <seq>], the highest WAL sequence whose records are covered
   by some level.  Every transition is ordered so a kill at any byte
   loses nothing acknowledged:

   {v
   ingest:   WAL append+fsync  ->  ack            (record durable)
   flush:    write .l<gen>.delta -> swap manifest -> trim WAL
   compact:  write merged delta -> swap manifest -> delete inputs
   v}

   Both swaps go through {!Sketch.Serialize.write_atomic} (temp +
   fsync + rename), and replay skips WAL records with [seq <=
   flushed], so the WAL-trim and input-delete steps are pure garbage
   collection — re-running them after a crash is harmless, and
   crashing before them merely leaves files that replay ignores (and
   the scrubber's orphan sweep eventually removes).

   Manifest read-modify-writes are serialized across PROCESSES with an
   [lockf] file lock ([.name.lock]): a still-running compaction child
   orphaned by a server crash and the restarted server's flusher may
   both swap the manifest, and without mutual exclusion the loser's
   update — including [flushed], i.e. acknowledged records — would be
   silently dropped.  Within a process the engine mutex serializes. *)

let manifest_suffix = ".levels"

let manifest_path ~dir ~name = Filename.concat dir ("." ^ name ^ manifest_suffix)

let manifest_name file =
  if
    String.length file > 1 + String.length manifest_suffix
    && file.[0] = '.'
    && Filename.check_suffix file manifest_suffix
  then
    Some (String.sub file 1 (String.length file - 1 - String.length manifest_suffix))
  else None

let level_file ~name ~gen = Printf.sprintf ".%s.l%d.delta" name gen

(* [Some (name, gen)] iff [file] is a level file name. *)
let level_name file =
  if String.length file > 7 && file.[0] = '.' && Filename.check_suffix file ".delta"
  then
    let stem = String.sub file 1 (String.length file - 7) in
    match String.rindex_opt stem '.' with
    | Some dot
      when dot + 2 < String.length stem && stem.[dot + 1] = 'l' ->
      let name = String.sub stem 0 dot in
      let gen = String.sub stem (dot + 2) (String.length stem - dot - 2) in
      if name = "" then None
      else (
        match int_of_string_opt gen with
        | Some g when g >= 0 && String.for_all (fun c -> c >= '0' && c <= '9') gen
          ->
          Some (name, g)
        | _ -> None)
    | _ -> None
  else None

let lock_path ~dir ~name = Filename.concat dir ("." ^ name ^ ".lock")

(* ------------------------------------------------------------------ *)
(* Path predicates                                                      *)
(* ------------------------------------------------------------------ *)

(* A DELETE/UPDATE targets subtrees by a slash-joined label path rooted
   at the engine's shared root: [a/b] matches every [b] child of an
   [a]-rooted fragment.  The segment alphabet is the job-name alphabet
   (no spaces, no commas, no slashes inside a segment), which is what
   lets a path ride in a WAL payload before an XML body and in a
   comma-joined manifest field without any quoting. *)
let valid_path_segment seg =
  seg <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       seg

let valid_path s =
  s <> ""
  && List.for_all valid_path_segment (String.split_on_char '/' s)

let parse_path s =
  if not (valid_path s) then None
  else Some (List.map Xmldoc.Label.of_string (String.split_on_char '/' s))

(* Cross-process critical section around every manifest
   read-modify-write.  [lockf] locks are per-(process, file): they
   exclude the orphan-compactor-vs-restarted-server race that
   in-process mutexes cannot see. *)
let with_manifest_lock ~dir ~name f =
  match
    Unix.openfile (lock_path ~dir ~name) [ Unix.O_RDWR; Unix.O_CREAT ] 0o666
  with
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Xmldoc.Fault.Io_error
         {
           path = lock_path ~dir ~name;
           message = fn ^ ": " ^ Unix.error_message e;
         })
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lockf fd Unix.F_LOCK 0 with
        | exception Unix.Unix_error (e, fn, _) ->
          Error
            (Xmldoc.Fault.Io_error
               {
                 path = lock_path ~dir ~name;
                 message = fn ^ ": " ^ Unix.error_message e;
               })
        | () ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
            f)

(* ------------------------------------------------------------------ *)
(* Manifest format                                                      *)
(* ------------------------------------------------------------------ *)

type level_info = {
  gen : int;  (** monotone generation; embedded in the file name *)
  file : string;  (** base name of the delta snapshot *)
  bytes : int;
  crc : int32;  (** CRC-32 of the delta file's raw bytes *)
  records : int;  (** ingested records summarized by this level *)
  since : float;  (** arrival time of the level's oldest record *)
  tombs : string list;
      (** tombstone path predicates from this level's deletes/updates —
          they mask matching subtrees in all strictly older levels
          until compaction reclaims them physically *)
}

type manifest = {
  flushed : int;  (** highest WAL seq covered by the levels; 0 = none *)
  entries : level_info list;  (** ascending [gen] *)
}

let empty_manifest = { flushed = 0; entries = [] }

let corrupt path line content message =
  Xmldoc.Fault.with_path path
    (Xmldoc.Fault.Corrupt_synopsis { line; content; message })

let render_manifest m =
  let b = Buffer.create 256 in
  Buffer.add_string b "levelset 1\n";
  Printf.bprintf b "flushed %d\n" m.flushed;
  List.iter
    (fun e ->
      (* [tombs=] is appended only when present, so tombstone-free
         manifests render byte-identically to what earlier servers
         wrote — and earlier parsers, which ignore unknown key=value
         fields, read tombstoned manifests without choking *)
      let tombs =
        if e.tombs = [] then "" else " tombs=" ^ String.concat "," e.tombs
      in
      Printf.bprintf b
        "level %d file=%s bytes=%d crc=%s records=%d since=%.6f%s\n" e.gen
        e.file e.bytes
        (Sketch.Crc32.to_hex e.crc)
        e.records e.since tombs)
    m.entries;
  Sketch.Serialize.with_crc (Buffer.contents b)

let kv key token =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  if String.length token > plen && String.sub token 0 plen = prefix then
    Some (String.sub token plen (String.length token - plen))
  else None

let parse_manifest ~path text =
  let fail line content message = Error (corrupt path line content message) in
  let lines = String.split_on_char '\n' text in
  (* CRC trailer is mandatory: the last line seals everything above. *)
  let rec split_trailer acc = function
    | [ crc_line; "" ] -> Ok (List.rev acc, crc_line)
    | [ crc_line ] -> Ok (List.rev acc, crc_line)
    | line :: rest -> split_trailer (line :: acc) rest
    | [] -> fail 0 "" "empty manifest"
  in
  match split_trailer [] lines with
  | Error _ as e -> e
  | Ok (body_lines, crc_line) -> (
    let body = String.concat "" (List.map (fun l -> l ^ "\n") body_lines) in
    match String.split_on_char ' ' crc_line with
    | [ "crc"; hex ] -> (
      match Sketch.Crc32.of_hex hex with
      | Some declared when Int32.equal declared (Sketch.Crc32.string body) -> (
        match body_lines with
        | header :: rest when header = "levelset 1" -> (
          let flushed = ref None in
          let entries = ref [] in
          let error = ref None in
          List.iteri
            (fun i line ->
              if !error = None then
                let lineno = i + 2 in
                match String.split_on_char ' ' line with
                | [ "flushed"; n ] -> (
                  match int_of_string_opt n with
                  | Some n when n >= 0 && !flushed = None -> flushed := Some n
                  | _ -> error := Some (corrupt path lineno line "bad flushed line"))
                | "level" :: gen :: fields -> (
                  let field key = List.find_map (kv key) fields in
                  let tombs =
                    (* absent = none; present = comma-joined valid paths
                       (the alphabet excludes commas, so no quoting) *)
                    match field "tombs" with
                    | None -> Some []
                    | Some s ->
                      let paths = String.split_on_char ',' s in
                      if paths <> [] && List.for_all valid_path paths then
                        Some paths
                      else None
                  in
                  match
                    ( int_of_string_opt gen,
                      field "file",
                      Option.bind (field "bytes") int_of_string_opt,
                      Option.bind (field "crc") Sketch.Crc32.of_hex,
                      Option.bind (field "records") int_of_string_opt,
                      Option.bind (field "since") float_of_string_opt,
                      tombs )
                  with
                  | ( Some gen,
                      Some file,
                      Some bytes,
                      Some crc,
                      Some records,
                      Some since,
                      Some tombs )
                    when gen >= 0 && bytes >= 0 && records >= 0
                         && Float.is_finite since
                         && file <> ""
                         && Filename.basename file = file ->
                    entries :=
                      { gen; file; bytes; crc; records; since; tombs }
                      :: !entries
                  | _ -> error := Some (corrupt path lineno line "bad level line"))
                | _ -> error := Some (corrupt path lineno line "unknown manifest line"))
            rest;
          match !error with
          | Some f -> Error f
          | None ->
            let entries =
              List.sort (fun a b -> compare a.gen b.gen) (List.rev !entries)
            in
            let rec dup = function
              | a :: (b :: _ as rest) -> a.gen = b.gen || dup rest
              | _ -> false
            in
            if dup entries then fail 0 "" "duplicate level generation"
            else Ok { flushed = Option.value ~default:0 !flushed; entries })
        | header :: _ -> fail 1 header "not a levelset manifest"
        | [] -> fail 0 "" "empty manifest")
      | Some _ -> fail (List.length body_lines + 1) crc_line "manifest checksum mismatch"
      | None -> fail (List.length body_lines + 1) crc_line "bad crc line")
    | _ -> fail (List.length body_lines + 1) crc_line "missing crc trailer")

let load_manifest ?limits path =
  Result.bind (Sketch.Serialize.load_raw_res ?limits path) (parse_manifest ~path)

let read_manifest ?limits ~dir ~name () =
  let path = manifest_path ~dir ~name in
  if Sys.file_exists path then load_manifest ?limits path else Ok empty_manifest

let manifest_records m = List.fold_left (fun acc e -> acc + e.records) 0 m.entries

let load_level ?limits ~dir info =
  let path = Filename.concat dir info.file in
  Result.bind (Sketch.Serialize.load_raw_res ?limits path) (fun raw ->
      if not (Int32.equal (Sketch.Crc32.string raw) info.crc) then
        Error (corrupt path 0 "" "level content does not match manifest crc")
      else
        Result.map_error (Xmldoc.Fault.with_path path)
          (Sketch.Serialize.of_string_res ?limits raw))

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

type level = {
  info : level_info;
  synopsis : Sketch.Synopsis.t;
}

type t = {
  dir : string;
  name : string;
  limits : Xmldoc.Limits.t;
  level_budget : int;
  flush_records : int;
  root_label : Xmldoc.Label.t;
  wal : Wal.t;
  mutable pending : Wal.record list;  (* newest first; oldest = last *)
  mutable next_seq : int;
  mutable flushed : int;
  mutable levels : level list;  (* ascending gen *)
  mutable compacting : bool;
  replayed_torn : bool;
  mutex : Mutex.t;
}

let with_mutex t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let load_levels ?limits ~dir ~cache entries =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | info :: rest -> (
      match List.find_opt (fun l -> l.info.gen = info.gen) cache with
      | Some l -> go ({ l with info } :: acc) rest
      | None -> (
        match load_level ?limits ~dir info with
        | Error f -> Error f
        | Ok synopsis -> go ({ info; synopsis } :: acc) rest))
  in
  go [] entries

let open_ ?(limits = Xmldoc.Limits.default) ?root_label ~dir ~name ~level_budget
    ~flush_records () =
  match read_manifest ~limits ~dir ~name () with
  | Error f -> Error f
  | Ok manifest -> (
    match load_levels ~limits ~dir ~cache:[] manifest.entries with
    | Error f -> Error f
    | Ok levels -> (
      match Wal.open_ ~limits ~dir ~name () with
      | Error f -> Error f
      | Ok (wal, records, torn) ->
        (* exactly-once: records at or below [flushed] are already in a
           level — a crash between manifest swap and WAL trim must not
           replay them into the memtable again *)
        let live = List.filter (fun r -> r.Wal.seq > manifest.flushed) records in
        let top =
          List.fold_left (fun acc r -> max acc r.Wal.seq) manifest.flushed records
        in
        let root_label =
          match levels with
          | l :: _ ->
            (* levels win: deltas must keep sharing one root label *)
            Sketch.Synopsis.label l.synopsis l.synopsis.Sketch.Synopsis.root
          | [] -> (
            match root_label with
            | Some l -> l
            | None -> Xmldoc.Label.of_string name)
        in
        Ok
          {
            dir;
            name;
            limits;
            level_budget;
            flush_records;
            root_label;
            wal;
            pending = List.rev live;
            next_seq = top + 1;
            flushed = manifest.flushed;
            levels;
            compacting = false;
            replayed_torn = torn;
            mutex = Mutex.create ();
          }))

let close t = with_mutex t (fun () -> Wal.close t.wal)

let name t = t.name
let root_label t = t.root_label
let replayed_torn t = t.replayed_torn
let depth t = with_mutex t (fun () -> List.length t.pending)
let flushed_seq t = with_mutex t (fun () -> t.flushed)
let level_count t = with_mutex t (fun () -> List.length t.levels)
let compacting t = with_mutex t (fun () -> t.compacting)

let level_records t =
  with_mutex t (fun () ->
      List.fold_left (fun acc l -> acc + l.info.records) 0 t.levels)

(* Age of the oldest acknowledged-but-unflushed record: the bound on
   how stale a query answer over the level stack can be. *)
let staleness ?(now = Unix.gettimeofday ()) t =
  with_mutex t (fun () ->
      match t.pending with
      | [] -> 0.
      | records ->
        let oldest =
          List.fold_left (fun acc r -> Float.min acc r.Wal.ts) Float.infinity
            records
        in
        Float.max 0. (now -. oldest))

let tomb_paths info = List.filter_map parse_path info.tombs

let stack_of levels =
  Array.of_list (List.map (fun l -> (l.synopsis, tomb_paths l.info)) levels)

let level_stack t = with_mutex t (fun () -> stack_of t.levels)

(* The catalog's view of [name]'s levels: the same manifest read and
   level loader the engine replays through, in {!level_stack}'s
   shape. *)
let load_stack ?limits ~dir ~name () =
  Result.bind (read_manifest ?limits ~dir ~name ()) (fun m ->
      Result.map
        (fun levels -> (m, stack_of levels))
        (load_levels ?limits ~dir ~cache:[] m.entries))

let wal_bytes t = with_mutex t (fun () -> Wal.bytes t.wal)

(* Durably append one validated mutation.  The sequence number is
   advanced only after the WAL accepted the frame: a rolled-back append
   (ENOSPC, fault) reuses the same seq on the retry, so replay never
   sees a gap it would mistake for a tear boundary. *)
let append_mutation ?(now = Unix.gettimeofday ()) t ~op ~payload =
  with_mutex t (fun () ->
      let record = { Wal.seq = t.next_seq; ts = now; op; payload } in
      match Wal.append t.wal record with
      | Error _ as e -> e
      | Ok () ->
        t.pending <- record :: t.pending;
        t.next_seq <- t.next_seq + 1;
        Ok (record.Wal.seq, List.length t.pending))

let bad_path path =
  `Fault
    (Xmldoc.Fault.Parse_error
       {
         line = 0;
         column = 0;
         message =
           Printf.sprintf
             "invalid path predicate %S (want slash-joined [A-Za-z0-9_-] \
              segments)"
             path;
       })

let ingest ?now t ~xml =
  (* validate before logging: a fragment the parser rejects must be
     refused at the door, not discovered poisonous during replay *)
  match Xmldoc.Parser.of_string_res ~limits:t.limits xml with
  | Error f -> Error (`Fault f)
  | Ok _ -> append_mutation ?now t ~op:Wal.Insert ~payload:xml

let delete ?now t ~path =
  if not (valid_path path) then Error (bad_path path)
  else append_mutation ?now t ~op:Wal.Delete ~payload:path

(* An update's payload carries both halves — [<path> <xml>] — in one
   record, so delete-then-insert commits atomically at one seq. *)
let update ?now t ~path ~xml =
  if not (valid_path path) then Error (bad_path path)
  else
    match Xmldoc.Parser.of_string_res ~limits:t.limits xml with
    | Error f -> Error (`Fault f)
    | Ok _ -> append_mutation ?now t ~op:Wal.Update ~payload:(path ^ " " ^ xml)

let split_update payload =
  match String.index_opt payload ' ' with
  | None -> None
  | Some i ->
    Some
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )

let should_flush t =
  with_mutex t (fun () ->
      (not t.compacting) && List.length t.pending >= t.flush_records)

let set_compacting t b = with_mutex t (fun () -> t.compacting <- b)

(* Drop the subtrees one tombstone path matches from an in-batch
   fragment tree: the path's head addresses the fragment root, each
   further segment one containment step.  [None] = the whole fragment
   is deleted. *)
let rec prune_tree path tree =
  match path with
  | [] -> Some tree
  | [ l ] ->
    if Xmldoc.Label.equal (Xmldoc.Tree.label tree) l then None else Some tree
  | l :: rest ->
    if Xmldoc.Label.equal (Xmldoc.Tree.label tree) l then
      Some
        (Xmldoc.Tree.make_arr (Xmldoc.Tree.label tree)
           (Array.of_list
              (List.filter_map (prune_tree rest)
                 (Array.to_list (Xmldoc.Tree.children tree)))))
    else Some tree

(* Summarize the memtable into one delta TreeSketch and publish it as a
   new level.  Ordering is the crash-safety argument: the delta file
   lands first, the manifest swap commits it (advancing [flushed]), and
   only then is the WAL trimmed — so a kill anywhere either changes
   nothing visible or leaves garbage that replay ignores. *)
let flush ?(now = Unix.gettimeofday ()) t =
  with_mutex t (fun () ->
      if t.pending = [] || t.compacting then Ok false
      else
        let batch = List.rev t.pending in
        (* Replay the batch in sequence order: inserts accumulate
           fragment trees; a delete prunes the fragments accumulated so
           far (its strictly-older in-batch data) and becomes a
           tombstone on the published level, masking every older level
           until compaction; an update is delete-then-insert at one
           seq.  Inserts after a delete are untouched by it, so the
           level's own content is already net of its own tombstones. *)
        let apply (trees, tombs) r =
          let prune path trees =
            match parse_path path with
            | None -> trees (* validated at the door; defensive *)
            | Some labels -> List.filter_map (prune_tree labels) trees
          in
          let tomb path tombs =
            if List.mem path tombs then tombs else path :: tombs
          in
          let insert xml trees =
            match Xmldoc.Parser.of_string_res ~limits:t.limits xml with
            | Ok tree -> tree :: trees
            | Error _ -> trees (* validated at ingest; defensive *)
          in
          match r.Wal.op with
          | Wal.Insert -> (insert r.Wal.payload trees, tombs)
          | Wal.Delete -> (prune r.Wal.payload trees, tomb r.Wal.payload tombs)
          | Wal.Update -> (
            match split_update r.Wal.payload with
            | None -> (trees, tombs)
            | Some (path, xml) ->
              (insert xml (prune path trees), tomb path tombs))
        in
        let rev_fragments, rev_tombs =
          List.fold_left apply ([], []) batch
        in
        let fragments = List.rev rev_fragments in
        let tombs = List.rev rev_tombs in
        let last_seq =
          List.fold_left (fun acc r -> max acc r.Wal.seq) t.flushed batch
        in
        let oldest_ts =
          List.fold_left (fun acc r -> Float.min acc r.Wal.ts) now batch
        in
        let publish synopsis =
          let text = Sketch.Serialize.to_snapshot_string synopsis in
          let swapped =
            with_manifest_lock ~dir:t.dir ~name:t.name (fun () ->
                match read_manifest ~limits:t.limits ~dir:t.dir ~name:t.name () with
                | Error f -> Error f
                | Ok m -> (
                  let gen =
                    1 + List.fold_left (fun acc e -> max acc e.gen) 0 m.entries
                  in
                  let file = level_file ~name:t.name ~gen in
                  match
                    Sketch.Serialize.write_atomic (Filename.concat t.dir file) text
                  with
                  | Error f -> Error f
                  | Ok () -> (
                    let entry =
                      {
                        gen;
                        file;
                        bytes = String.length text;
                        crc = Sketch.Crc32.string text;
                        records = List.length batch;
                        since = oldest_ts;
                        tombs;
                      }
                    in
                    let m' =
                      {
                        flushed = max m.flushed last_seq;
                        entries = m.entries @ [ entry ];
                      }
                    in
                    match
                      Sketch.Serialize.write_atomic
                        (manifest_path ~dir:t.dir ~name:t.name)
                        (render_manifest m')
                    with
                    | Error f -> Error f
                    | Ok () -> Ok (m', entry, synopsis))))
          in
          match swapped with
          | Error _ as e -> e
          | Ok (m', entry, synopsis) -> (
            let cache = { info = entry; synopsis } :: t.levels in
            match load_levels ~limits:t.limits ~dir:t.dir ~cache m'.entries with
            | Error f -> Error f
            | Ok levels ->
              t.levels <- levels;
              t.flushed <- m'.flushed;
              t.pending <- [];
              (* pure GC from here: trimmed-or-not, replay skips
                 records at or below the manifest's flushed seq *)
              (match Wal.rewrite t.wal [] with Ok () | Error _ -> ());
              Ok true)
        in
        match fragments with
        | [] ->
          (* nothing positive left to summarize — an all-deletes batch,
             or deletes that cancelled every in-batch insert.  The
             root-only level still carries the tombstones (they must
             mask older levels) and advances flushed so the WAL
             drains. *)
          publish (Sketch.Stable.build (Xmldoc.Tree.make t.root_label []))
        | fragments -> (
          let stable =
            Sketch.Stable.build (Xmldoc.Tree.make t.root_label fragments)
          in
          if Sketch.Synopsis.size_bytes stable <= t.level_budget then
            publish stable
          else
            match
              Sketch.Build.build_res ~limits:t.limits stable
                ~budget:t.level_budget
            with
            | Error f -> Error f
            | Ok outcome -> publish outcome.Sketch.Build.synopsis))

(* Re-read the manifest after someone else swapped it (the compaction
   child, via the parent's reap path). *)
let refresh t =
  with_mutex t (fun () ->
      match read_manifest ~limits:t.limits ~dir:t.dir ~name:t.name () with
      | Error f -> Error f
      | Ok m -> (
        match load_levels ~limits:t.limits ~dir:t.dir ~cache:t.levels m.entries with
        | Error f -> Error f
        | Ok levels ->
          t.levels <- levels;
          t.flushed <- max t.flushed m.flushed;
          Ok ()))

(* ------------------------------------------------------------------ *)
(* Compaction (runs in a Jobs child process)                            *)
(* ------------------------------------------------------------------ *)

(* Merge every level into one delta and swap it in.  The merge is
   tombstone-cancelling ({!Sketch.Build.merge_tombstoned}): each
   level's tombstones prune the strictly older union before its own
   content joins, so the compacted level carries no tombstones at all —
   deletion becomes physical reclamation.  The expensive compression
   journals through Build checkpoints, so a killed-and-restarted
   compaction job resumes mid-clustering instead of starting over (same
   discipline as the BUILD worker).  The swap re-reads the manifest
   under the file lock and verifies the listed levels are EXACTLY the
   consumed ones — a level that appeared mid-compaction (an orphaned
   compactor racing a restarted server's flusher) may carry tombstones
   addressing the very data being merged, and folding it in would need
   an age order the generation sequence no longer reflects, so the
   compaction's output is discarded as a stale no-op instead. *)
let compact ?(limits = Xmldoc.Limits.default) ?(params = Sketch.Build.default_params)
    ~dir ~name ~level_budget ~checkpoint () =
  match read_manifest ~limits ~dir ~name () with
  | Error f -> Error f
  | Ok m when List.length m.entries < 2 ->
    (try Sys.remove checkpoint with Sys_error _ -> ());
    Ok false
  | Ok m -> (
    match load_levels ~limits ~dir ~cache:[] m.entries with
    | Error f -> Error f
    | Ok levels -> (
      match
        Sketch.Build.merge_tombstoned
          (List.map (fun l -> (l.synopsis, tomb_paths l.info)) levels)
      with
      | Error message ->
        Error (Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message })
      | Ok merged -> (
        let consumed = List.map (fun l -> l.info.gen) levels in
        let records =
          List.fold_left (fun acc l -> acc + l.info.records) 0 levels
        in
        let since =
          List.fold_left
            (fun acc l -> Float.min acc l.info.since)
            Float.infinity levels
        in
        let compressed =
          if Sketch.Synopsis.size_bytes merged <= level_budget then
            Ok { Sketch.Build.synopsis = merged; degraded = false }
          else
            let fingerprint = Sketch.Build.Checkpoint.fingerprint merged in
            let resumable =
              Sys.file_exists checkpoint
              &&
              match Sketch.Build.Checkpoint.load_res ~limits checkpoint with
              | Ok ck ->
                ck.Sketch.Build.Checkpoint.meta.source = fingerprint
                && ck.meta.budget = level_budget
                && ck.meta.params_hash = Sketch.Build.Checkpoint.hash_params params
              | Error _ -> false
            in
            if resumable then Sketch.Build.resume_res ~params ~limits checkpoint
            else
              Sketch.Build.build_checkpointed_res ~params ~limits ~checkpoint
                merged ~budget:level_budget
        in
        match compressed with
        | Error f -> Error f
        | Ok outcome -> (
          let text =
            Sketch.Serialize.to_snapshot_string outcome.Sketch.Build.synopsis
          in
          let swapped =
            with_manifest_lock ~dir ~name (fun () ->
                match read_manifest ~limits ~dir ~name () with
                | Error f -> Error f
                | Ok m2 ->
                  (* exactly the consumed set: a missing input means
                     another actor already compacted; an EXTRA level
                     means a flush landed mid-compaction whose
                     tombstones we could not have folded — both make
                     this output stale *)
                  if
                    List.map (fun e -> e.gen) m2.entries <> consumed
                  then Ok None
                  else
                    let gen =
                      1 + List.fold_left (fun acc e -> max acc e.gen) 0 m2.entries
                    in
                    let file = level_file ~name ~gen in
                    (match
                       Sketch.Serialize.write_atomic (Filename.concat dir file)
                         text
                     with
                    | Error f -> Error f
                    | Ok () -> (
                      let entry =
                        {
                          gen;
                          file;
                          bytes = String.length text;
                          crc = Sketch.Crc32.string text;
                          records;
                          since;
                          (* tombstones cancelled into the merge: the
                             compacted level owes nothing to levels
                             below it (there are none left) *)
                          tombs = [];
                        }
                      in
                      let kept =
                        List.filter
                          (fun e -> not (List.mem e.gen consumed))
                          m2.entries
                      in
                      let entries =
                        List.sort
                          (fun a b -> compare a.gen b.gen)
                          (entry :: kept)
                      in
                      match
                        Sketch.Serialize.write_atomic (manifest_path ~dir ~name)
                          (render_manifest { m2 with entries })
                      with
                      | Error f -> Error f
                      | Ok () -> Ok (Some ()))))
          in
          match swapped with
          | Error f -> Error f
          | Ok None ->
            (try Sys.remove checkpoint with Sys_error _ -> ());
            Ok false
          | Ok (Some ()) ->
            (* pure GC: consumed inputs are no longer referenced *)
            List.iter
              (fun l ->
                try Sys.remove (Filename.concat dir l.info.file)
                with Sys_error _ -> ())
              levels;
            (try Sys.remove checkpoint with Sys_error _ -> ());
            Ok outcome.Sketch.Build.degraded))))

(* ------------------------------------------------------------------ *)
(* Discovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Names with live ingestion state in [dir] — a WAL, a manifest, or
   both.  How the server finds engines to reopen after a restart. *)
let discover ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    let names = Hashtbl.create 8 in
    Array.iter
      (fun file ->
        match Wal.wal_name file with
        | Some name -> Hashtbl.replace names name ()
        | None -> (
          match manifest_name file with
          | Some name -> Hashtbl.replace names name ()
          | None -> ()))
      files;
    List.sort compare (Hashtbl.fold (fun name () acc -> name :: acc) names [])
