(* Anti-entropy: background integrity scrubbing + peer snapshot repair.

   - the scrub core: verify/scan/report round-trips, the tmp-orphan
     sweep's age gate, and [verify_path] over every file family
     (clean, rotten, missing) agreeing with [scan];
   - catalog content identity (per-snapshot hash + params fingerprint)
     and scrub quarantine semantics (resident copy keeps serving, an
     atomic-rename repair clears the quarantine without --force);
   - the SCRUB / FETCH / REPAIR protocol verbs, including a torn FETCH
     stream (injected short write) that must never install a partial
     file, and an ENOSPC preflight that defers instead of wedging;
   - the repair planner's quorum rules (one peer's word never overrules
     a locally-clean copy; deletions are never propagated);
   - replica divergence detection (modal catalog hash, stale members
     read as Suspect) at the registry and through a probing
     coordinator;
   - end to end: a v4 ladder rotted in one tier is quarantined whole
     and repaired byte-identically, and a live 3-replica group with a
     background scrubber detects in-place corruption, pulls the clean
     copy from a peer, and converges — with zero lost client requests.

   Everything is seeded; override with CHAOS_SEED=<n>. *)

module F = Xmldoc.Io_fault
module Server = Serve.Server
module Client = Serve.Client
module Protocol = Serve.Protocol
module Replica = Serve.Replica
module Coordinator = Serve.Coordinator
module Catalog = Serve.Catalog
module Scrub = Serve.Scrub
module Repair = Serve.Repair
module Serialize = Sketch.Serialize
module Stable = Sketch.Stable

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | None -> 0x5C4B
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "CHAOS_SEED=%S is not an integer" s))

let () =
  Printf.eprintf "scrub seed = %d (override with CHAOS_SEED=<n>)\n%!" seed

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "tsscrub" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file ->
          try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let synopsis =
  lazy
    (Stable.build
       (Xmldoc.Parser.of_string
          "<db><movie><actor/><actor/><title/></movie>\
           <movie><actor/><title/></movie><short><title/></short></db>"))

let other_synopsis =
  lazy
    (Stable.build
       (Xmldoc.Parser.of_string
          "<db><movie><actor/><title/></movie><book><title/></book></db>"))

let save path s =
  match Serialize.save_atomic path s with
  | Ok () -> ()
  | Error f -> Alcotest.failf "save %s: %s" path (Xmldoc.Fault.to_string f)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path text =
  match Serialize.write_atomic path text with
  | Ok () -> ()
  | Error f -> Alcotest.failf "write %s: %s" path (Xmldoc.Fault.to_string f)

let crc_hex s = Sketch.Crc32.to_hex (Sketch.Crc32.string s)

(* A fixed, microsecond-exact mtime: [Unix.utimes] and [Unix.stat]
   round-trip it precisely, so an in-place corruption that restores it
   leaves the catalog's (mtime, size, inode) fingerprint unchanged —
   exactly the rot only a scrub can see. *)
let t0 = 1_700_000_000.0

let normalize_mtime path = Unix.utimes path t0 t0

(* Flip one byte in place, keeping size, inode and mtime — bit-rot as
   the filesystem would present it. *)
let corrupt_in_place path ~at =
  let text = read_file path in
  let n = String.length text in
  let at = min at (n - 1) in
  let b = Bytes.of_string text in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let rec w off = if off < n then w (off + Unix.write fd b off (n - off)) in
  w 0;
  Unix.close fd;
  normalize_mtime path

let quiet_server ?config dir = Server.create ~log:(fun _ -> ()) ?config dir

let rec connect ?(attempts = 100) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when attempts > 0
    ->
    Unix.close fd;
    Thread.delay 0.02;
    connect ~attempts:(attempts - 1) path

(* One raw request / single-line response against a served socket. *)
let ask sock line =
  let fd = connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc (line ^ "\n");
      flush oc;
      input_line ic)

let starts_with prefix s = String.starts_with ~prefix s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
  in
  nn = 0 || scan 0

let token_with prefix line =
  List.find_opt (starts_with prefix) (String.split_on_char ' ' line)

(* Serve [server] on [sock] in a thread; always drained and joined. *)
let with_served server sock f =
  let thread =
    Thread.create (fun () -> Server.serve_socket server ~path:sock) ()
  in
  Unix.close (connect sock);
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join thread)
    (fun () -> f ())

(* ------------------------------------------------------------------ *)
(* Scrub core                                                          *)
(* ------------------------------------------------------------------ *)

let test_verify_detects_rot () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      let text = read_file path in
      (match Scrub.verify_file path with
      | Error f -> Alcotest.failf "clean file rejected: %s" (Xmldoc.Fault.to_string f)
      | Ok info ->
        Alcotest.(check int) "bytes" (String.length text) info.Scrub.v_bytes;
        Alcotest.(check string) "content hash is the raw-bytes crc"
          (crc_hex text) info.Scrub.v_crc;
        Alcotest.(check int) "plain = one tier" 1 info.Scrub.v_tiers);
      corrupt_in_place path ~at:(String.length text / 2);
      match Scrub.verify_file path with
      | Ok _ -> Alcotest.fail "flipped byte not detected"
      | Error f ->
        Alcotest.(check string) "classed as corruption" "corrupt"
          (Xmldoc.Fault.class_name f))

let test_fingerprint_sees_build_shape () =
  with_temp_dir (fun dir ->
      let plain = Filename.concat dir "p.ts" in
      save plain (Lazy.force synopsis);
      let ladder = Filename.concat dir "l.ts" in
      (match
         Sketch.Build.build_ladder_res ~limits:Xmldoc.Limits.unlimited
           (Lazy.force synopsis) ~budget:2048 ~tiers:3
       with
      | Error f -> Alcotest.failf "ladder build: %s" (Xmldoc.Fault.to_string f)
      | Ok { ladder = tiers; _ } -> (
        match Serialize.save_ladder_atomic ladder tiers with
        | Ok () -> ()
        | Error f -> Alcotest.failf "ladder save: %s" (Xmldoc.Fault.to_string f)));
      match (Scrub.verify_file plain, Scrub.verify_file ladder) with
      | Ok p, Ok l ->
        Alcotest.(check int) "ladder tiers" 3 l.Scrub.v_tiers;
        (* same logical content, different build parameters: the params
           fingerprint must split them, or two members that built the
           same name differently would read as converged *)
        Alcotest.(check bool) "plain and ladder fingerprints differ" true
          (p.Scrub.v_fp <> l.Scrub.v_fp)
      | Error f, _ | _, Error f ->
        Alcotest.failf "verify: %s" (Xmldoc.Fault.to_string f))

let test_scan_classifies_directory () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "good.ts") (Lazy.force synopsis);
      let bad = Filename.concat dir "bad.ts" in
      save bad (Lazy.force other_synopsis);
      corrupt_in_place bad ~at:30;
      (* non-snapshot files are invisible to the scrub, like the catalog *)
      Out_channel.with_open_bin (Filename.concat dir "notes.txt")
        (fun oc -> Out_channel.output_string oc "not a snapshot");
      Out_channel.with_open_bin (Filename.concat dir ".treesketch-x.tmp")
        (fun oc -> Out_channel.output_string oc "staging");
      match Scrub.scan dir with
      | Error f -> Alcotest.failf "scan: %s" (Xmldoc.Fault.to_string f)
      | Ok reports ->
        Alcotest.(check (list string)) "only snapshots, name order"
          [ "bad"; "good" ]
          (List.map (fun r -> r.Scrub.f_name) reports);
        let verdict name =
          let r = List.find (fun r -> r.Scrub.f_name = name) reports in
          Result.is_ok r.Scrub.f_result
        in
        Alcotest.(check bool) "good passes" true (verdict "good");
        Alcotest.(check bool) "bad fails" false (verdict "bad"))

let test_report_round_trip () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "db.ts") (Lazy.force synopsis);
      let reports =
        match Scrub.scan dir with
        | Ok r -> r
        | Error f -> Alcotest.failf "scan: %s" (Xmldoc.Fault.to_string f)
      in
      let fabricated =
        {
          Scrub.f_name = "rotten";
          f_path = Filename.concat dir "rotten.ts";
          f_result =
            Error
              (Xmldoc.Fault.Corrupt_synopsis
                 { line = 3; content = ""; message = "checksum mismatch" });
        }
      in
      (match Scrub.write_report dir (fabricated :: reports) with
      | Ok () -> ()
      | Error f -> Alcotest.failf "write_report: %s" (Xmldoc.Fault.to_string f));
      (* the report is dot-prefixed: never mistaken for a snapshot *)
      Alcotest.(check bool) "report hidden from scan" true
        (match Scrub.scan dir with
        | Ok rs -> List.for_all (fun r -> r.Scrub.f_name <> ".scrub") rs
        | Error _ -> false);
      (match Scrub.read_report dir with
      | None -> Alcotest.fail "report unreadable"
      | Some lines ->
        (match List.assoc_opt "db" lines with
        | Some (Scrub.Report_ok info) ->
          Alcotest.(check int) "tiers round-trip" 1 info.Scrub.v_tiers
        | _ -> Alcotest.fail "db missing or misclassified");
        match List.assoc_opt "rotten" lines with
        | Some (Scrub.Report_corrupt { r_class; _ }) ->
          Alcotest.(check string) "fault class round-trips" "corrupt" r_class
        | _ -> Alcotest.fail "rotten missing or misclassified");
      Scrub.remove_report dir;
      Alcotest.(check bool) "consumed reports do not linger" true
        (Scrub.read_report dir = None))

let test_tmp_sweep_age_gate () =
  with_temp_dir (fun dir ->
      Alcotest.(check bool) "orphan pattern" true
        (Scrub.is_tmp_orphan ".treesketch-db.123.tmp");
      Alcotest.(check bool) "snapshots are not orphans" false
        (Scrub.is_tmp_orphan "db.ts");
      let old_orphan = Filename.concat dir ".treesketch-old.tmp" in
      let fresh = Filename.concat dir ".treesketch-fresh.tmp" in
      Out_channel.with_open_bin old_orphan (fun oc ->
          Out_channel.output_string oc "torn write from a dead server");
      Out_channel.with_open_bin fresh (fun oc ->
          Out_channel.output_string oc "live writer mid-publish");
      let old_t = Unix.gettimeofday () -. 600.0 in
      Unix.utimes old_orphan old_t old_t;
      save (Filename.concat dir "db.ts") (Lazy.force synopsis);
      let swept = Scrub.sweep_tmp ~max_age:60.0 dir in
      Alcotest.(check (list string)) "only the stale orphan swept"
        [ ".treesketch-old.tmp" ] swept;
      Alcotest.(check bool) "stale orphan gone" false (Sys.file_exists old_orphan);
      (* the age gate is what protects a live atomic write in flight *)
      Alcotest.(check bool) "fresh staging file survives" true
        (Sys.file_exists fresh);
      Alcotest.(check bool) "real snapshot untouched" true
        (Sys.file_exists (Filename.concat dir "db.ts")))

(* ------------------------------------------------------------------ *)
(* One reader per file family                                          *)
(* ------------------------------------------------------------------ *)

let save_ladder path =
  match
    Sketch.Build.build_ladder_res ~limits:Xmldoc.Limits.unlimited
      (Lazy.force synopsis) ~budget:2048 ~tiers:3
  with
  | Error f -> Alcotest.failf "ladder build: %s" (Xmldoc.Fault.to_string f)
  | Ok { ladder = tiers; _ } -> (
    match Serialize.save_ladder_atomic path tiers with
    | Ok () -> ()
    | Error f -> Alcotest.failf "ladder save: %s" (Xmldoc.Fault.to_string f))

(* Live-ingestion state for synopsis [db]: [flushes] published levels
   (.db.l1.delta, .db.l2.delta, ...) plus [pending] unflushed records
   in .db.wal. *)
let ingest_state ?(flushes = 2) ?(pending = 0) dir =
  let engine =
    match
      Serve.Ingest.open_ ~dir ~name:"db" ~level_budget:64 ~flush_records:64 ()
    with
    | Ok t -> t
    | Error f -> Alcotest.failf "open_: %s" (Xmldoc.Fault.to_string f)
  in
  let add i =
    match
      Serve.Ingest.ingest engine
        ~xml:(Printf.sprintf "<movie><title/><n%d/></movie>" i)
    with
    | Ok _ -> ()
    | Error `No_space -> Alcotest.fail "ingest: no space"
    | Error (`Fault f) -> Alcotest.failf "ingest: %s" (Xmldoc.Fault.to_string f)
  in
  for i = 1 to flushes do
    add i;
    match Serve.Ingest.flush engine with
    | Ok true -> ()
    | Ok false -> Alcotest.fail "flush published nothing"
    | Error f -> Alcotest.failf "flush: %s" (Xmldoc.Fault.to_string f)
  done;
  for i = 1 to pending do
    add (100 + i)
  done;
  Serve.Ingest.close engine

let copy_file src dst = write_raw dst (read_file src)

(* Every file family, clean, rotten and missing, through
   [Scrub.verify_path] — and [Scrub.scan] over the same directory must
   reach the same verdict, so offline and online verification cannot
   disagree.  Two deliberate exceptions ([scanned = false]): an
   unreferenced delta, which replay ignores and [sweep_levels]
   collects, so the scan never quarantines a name over it; and a
   missing file, which fails verification in every family while the
   scan, which may race a deletion, skips what is gone. *)
let test_verify_path_families () =
  let in_dir dir file = Filename.concat dir file in
  let delta dir gen = in_dir dir (Printf.sprintf ".db.l%d.delta" gen) in
  let cases =
    [
      ( "plain snapshot",
        (fun dir ->
          save (in_dir dir "db.ts") (Lazy.force synopsis);
          in_dir dir "db.ts"),
        `Clean (function Scrub.Snapshot i -> i.Scrub.v_tiers = 1 | _ -> false),
        true );
      ( "rotten plain snapshot",
        (fun dir ->
          save (in_dir dir "db.ts") (Lazy.force synopsis);
          corrupt_in_place (in_dir dir "db.ts") ~at:40;
          in_dir dir "db.ts"),
        `Rotten (1, "corrupt"),
        true );
      ( "ladder snapshot",
        (fun dir ->
          save_ladder (in_dir dir "db.ts");
          in_dir dir "db.ts"),
        `Clean (function Scrub.Snapshot i -> i.Scrub.v_tiers = 3 | _ -> false),
        true );
      ( "rotten ladder snapshot",
        (fun dir ->
          save_ladder (in_dir dir "db.ts");
          corrupt_in_place (in_dir dir "db.ts") ~at:400;
          in_dir dir "db.ts"),
        `Rotten (1, "corrupt"),
        true );
      ( "WAL",
        (fun dir ->
          ingest_state ~flushes:0 ~pending:3 dir;
          in_dir dir ".db.wal"),
        `Clean
          (function
          | Scrub.Wal_log { records = 3; torn = false } -> true | _ -> false),
        true );
      ( "WAL with a torn tail",
        (fun dir ->
          ingest_state ~flushes:0 ~pending:2 dir;
          let wal = in_dir dir ".db.wal" in
          write_raw wal (read_file wal ^ "rec 99 1.0 50 deadbeef\npartial");
          wal),
        `Clean
          (function
          | Scrub.Wal_log { records = 2; torn = true } -> true | _ -> false),
        true );
      ( "manifest",
        (fun dir ->
          ingest_state dir;
          in_dir dir ".db.levels"),
        `Clean
          (function
          | Scrub.Manifest { flushed = 2; levels = 2; tombs = 0 } -> true
          | _ -> false),
        true );
      ( "manifest checksum mismatch",
        (fun dir ->
          ingest_state dir;
          let m = in_dir dir ".db.levels" in
          let text = read_file m in
          let at = String.index text '\n' + 1 in
          let b = Bytes.of_string text in
          (* "flushed 2" -> "flushed 3": grammatical, but not what the
             trailer seals *)
          Bytes.set b (at + 8) '3';
          write_raw m (Bytes.to_string b);
          m),
        `Rotten (1, "corrupt"),
        true );
      ( "manifest listing two rotten deltas",
        (fun dir ->
          ingest_state dir;
          corrupt_in_place (delta dir 1) ~at:60;
          corrupt_in_place (delta dir 2) ~at:60;
          in_dir dir ".db.levels"),
        `Rotten (2, "corrupt"),
        true );
      ( "referenced delta",
        (fun dir ->
          ingest_state dir;
          delta dir 1),
        `Clean
          (function
          | Scrub.Delta { gen = 1; records = 1; _ } -> true | _ -> false),
        true );
      ( "rotten referenced delta",
        (fun dir ->
          ingest_state dir;
          corrupt_in_place (delta dir 2) ~at:60;
          delta dir 2),
        `Rotten (1, "corrupt"),
        true );
      ( "orphan delta",
        (fun dir ->
          ingest_state dir;
          copy_file (delta dir 1) (delta dir 9);
          delta dir 9),
        `Clean (function Scrub.Orphan _ -> true | _ -> false),
        false );
      ( "rotten orphan delta",
        (fun dir ->
          ingest_state dir;
          copy_file (delta dir 1) (delta dir 9);
          corrupt_in_place (delta dir 9) ~at:60;
          delta dir 9),
        `Rotten (1, "corrupt"),
        false );
    ]
    @ List.map
        (fun file ->
          ("missing " ^ file, (fun dir -> in_dir dir file), `Rotten (1, "io"), false))
        [ "db.ts"; ".db.wal"; ".db.levels"; ".db.l1.delta" ]
  in
  List.iter
    (fun (label, setup, expect, scanned) ->
      with_temp_dir (fun dir ->
          let path = setup dir in
          let verified_clean =
            match (Scrub.verify_path path, expect) with
            | Ok v, `Clean shape ->
              Alcotest.(check bool) (label ^ ": verdict shape") true (shape v);
              true
            | Error faults, `Rotten (n, cls) ->
              Alcotest.(check int) (label ^ ": one entry per fault") n
                (List.length faults);
              List.iter
                (fun (_, f) ->
                  Alcotest.(check string) (label ^ ": fault class") cls
                    (Xmldoc.Fault.class_name f))
                faults;
              false
            | Ok _, `Rotten _ -> Alcotest.failf "%s: rot not detected" label
            | Error ((file, f) :: _), `Clean _ ->
              Alcotest.failf "%s: clean file rejected: %s: %s" label file
                (Xmldoc.Fault.to_string f)
            | Error [], _ -> Alcotest.failf "%s: empty fault list" label
          in
          let scan_clean =
            match Scrub.scan dir with
            | Error f -> Alcotest.failf "%s: scan: %s" label (Xmldoc.Fault.to_string f)
            | Ok reports ->
              List.for_all (fun r -> Result.is_ok r.Scrub.f_result) reports
          in
          Alcotest.(check bool)
            (label ^ ": scan reaches the same verdict")
            (verified_clean || not scanned)
            scan_clean))
    cases

(* A background scrub racing a flush's manifest swap: in the window
   where the new delta level is already on disk but the manifest
   rename that references it is still in flight, the scanner must read
   the old committed manifest as clean (never quarantine a mid-swap
   manifest) and the orphan sweeper must leave the fresh unreferenced
   delta alone (the age gate, same as for tmp staging files).  The
   swap window is held open with an injected [Delay] on the manifest's
   publishing rename. *)
let test_scrub_never_disturbs_mid_swap_flush () =
  with_temp_dir (fun dir ->
      let engine =
        match
          Serve.Ingest.open_ ~dir ~name:"db" ~level_budget:64 ~flush_records:64
            ()
        with
        | Ok t -> t
        | Error f -> Alcotest.failf "open_: %s" (Xmldoc.Fault.to_string f)
      in
      let add xml =
        match Serve.Ingest.ingest engine ~xml with
        | Ok _ -> ()
        | Error `No_space -> Alcotest.fail "ingest: no space"
        | Error (`Fault f) ->
          Alcotest.failf "ingest: %s" (Xmldoc.Fault.to_string f)
      in
      let flush () =
        match Serve.Ingest.flush engine with
        | Ok landed -> landed
        | Error f -> Alcotest.failf "flush: %s" (Xmldoc.Fault.to_string f)
      in
      let corrupt_entries () =
        match Scrub.scan dir with
        | Error f -> Alcotest.failf "scan: %s" (Xmldoc.Fault.to_string f)
        | Ok reports ->
          List.filter_map
            (fun r ->
              match r.Scrub.f_result with
              | Ok _ -> None
              | Error f ->
                Some (r.Scrub.f_path ^ ": " ^ Xmldoc.Fault.to_string f))
            reports
      in
      add "movie <movie><title/></movie>";
      Alcotest.(check bool) "first flush lands" true (flush ());
      Alcotest.(check (list string)) "clean after first flush" []
        (corrupt_entries ());
      add "short <short><title/></short>";
      Fun.protect ~finally:F.disarm (fun () ->
          (* Hold the swap open: the delta file for gen 2 is written
             and fsynced, then the manifest rename sleeps. *)
          F.arm ~seed
            [ F.rule ~prob:1.0 ~limit:1 ~path:".levels" F.Rename (F.Delay 0.5) ];
          let flusher = Thread.create (fun () -> ignore (flush () : bool)) () in
          Thread.delay 0.15;
          (* Mid-swap: the committed manifest still references only gen
             1; gen 2's delta exists, unreferenced and seconds old. *)
          Alcotest.(check (list string)) "mid-swap scan quarantines nothing" []
            (corrupt_entries ());
          Alcotest.(check (list string)) "live delta is never swept as orphan"
            [] (Scrub.sweep_levels dir);
          Thread.join flusher);
      (* After the swap lands the picture is whole: both levels
         referenced and verifiable, still nothing to sweep. *)
      Alcotest.(check int) "both levels live" 2
        (Serve.Ingest.level_count engine);
      Alcotest.(check (list string)) "clean after the swap" []
        (corrupt_entries ());
      Alcotest.(check (list string)) "nothing to sweep after the swap" []
        (Scrub.sweep_levels dir);
      Serve.Ingest.close engine)

(* ------------------------------------------------------------------ *)
(* Catalog: content identity + scrub quarantine                        *)
(* ------------------------------------------------------------------ *)

let test_catalog_hashes () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      let cat = Catalog.create dir in
      ignore (Catalog.refresh cat);
      let text = read_file path in
      (match Catalog.hashes cat with
      | [ (name, crc, fp) ] ->
        Alcotest.(check string) "name" "db" name;
        Alcotest.(check string) "content hash = raw file crc" (crc_hex text) crc;
        Alcotest.(check bool) "fingerprint present" true (String.length fp > 0)
      | hs -> Alcotest.failf "expected one hash, got %d" (List.length hs));
      let h1 = Catalog.combined_hash cat in
      (* replacing the content moves the combined hash; restoring the
         exact bytes restores it exactly — the convergence criterion a
         byte-identical repair is held to *)
      save path (Lazy.force other_synopsis);
      ignore (Catalog.refresh cat);
      let h2 = Catalog.combined_hash cat in
      Alcotest.(check bool) "different content, different hash" true (h1 <> h2);
      write_raw path text;
      ignore (Catalog.refresh cat);
      Alcotest.(check string) "byte-identical restore converges the hash" h1
        (Catalog.combined_hash cat))

let test_scrub_quarantine_keeps_serving_and_heals () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      normalize_mtime path;
      let clean = read_file path in
      let cat = Catalog.create dir in
      ignore (Catalog.refresh cat);
      corrupt_in_place path ~at:(String.length clean / 2);
      (* the fingerprint did not move: a plain refresh cannot see the
         rot — that blindness is the scrubber's whole reason to exist *)
      ignore (Catalog.refresh cat);
      Alcotest.(check (list string)) "refresh is blind to in-place rot" []
        (List.map (fun q -> q.Catalog.q_name) (Catalog.quarantined cat));
      let fault =
        match Scrub.verify_file path with
        | Error f -> f
        | Ok _ -> Alcotest.fail "scrub missed the rot"
      in
      Catalog.quarantine_scrub cat "db" fault;
      (match Catalog.quarantine_for cat "db" with
      | None -> Alcotest.fail "not quarantined"
      | Some q ->
        Alcotest.(check string) "reason distinguishes bit-rot from bad publish"
          "scrub-corrupt"
          (Catalog.quarantine_reason q));
      (* the resident entry was loaded from bytes that verified clean:
         it KEEPS serving *)
      Alcotest.(check bool) "resident copy keeps serving" true
        (Catalog.find cat "db" <> None);
      (* repair by atomic rename (new inode): the next PLAIN refresh
         picks it up and clears the quarantine — no restart, no --force *)
      write_raw path clean;
      ignore (Catalog.refresh cat);
      Alcotest.(check bool) "rename repair clears the quarantine" true
        (Catalog.quarantine_for cat "db" = None);
      Alcotest.(check string) "hash restored exactly" (crc_hex clean)
        (match Catalog.hashes cat with [ (_, crc, _) ] -> crc | _ -> ""))

(* ------------------------------------------------------------------ *)
(* Protocol verbs: SCRUB, FETCH, REPAIR                                *)
(* ------------------------------------------------------------------ *)

let test_scrub_verb_detects_in_place_rot () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      normalize_mtime path;
      let server = quiet_server dir in
      let askl line = fst (Server.handle_line server line) in
      Alcotest.(check string) "clean scrub"
        "ok scrub checked=1 corrupt=0 swept=0" (askl "SCRUB");
      corrupt_in_place path ~at:(String.length (read_file path) / 2);
      (* auto-reload STAT sees nothing: fingerprint unchanged *)
      Alcotest.(check bool) "stat blind to the rot" true
        (contains (askl "STAT db") "quarantined=no");
      Alcotest.(check string) "scrub finds it"
        "ok scrub checked=1 corrupt=1 swept=0" (askl "SCRUB");
      Alcotest.(check bool) "stat reports scrub-corrupt" true
        (contains (askl "STAT db") "quarantined=yes reason=scrub-corrupt");
      (* degraded, not down: the resident synopsis still answers *)
      Alcotest.(check bool) "queries still served" true
        (starts_with "ok query" (askl "QUERY db //movie"));
      (* operand validation *)
      Alcotest.(check bool) "SCRUB takes no operands" true
        (starts_with "error bad-request" (askl "SCRUB now"));
      Alcotest.(check bool) "FETCH validates the name" true
        (starts_with "error bad-request" (askl "FETCH ../etc/passwd"));
      Alcotest.(check bool) "REPAIR without peers is refused" true
        (starts_with "error bad-request" (askl "REPAIR")))

let test_fetch_round_trip_and_refusals () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      let clean = read_file path in
      let sock = Filename.concat dir "src.sock" in
      let server = quiet_server dir in
      with_served server sock (fun () ->
          (match Repair.fetch ~timeout:2.0 sock "db" with
          | Error e -> Alcotest.failf "fetch: %s" e
          | Ok text ->
            Alcotest.(check string) "fetched bytes are byte-identical" clean text);
          (match Repair.fetch ~timeout:2.0 sock "ghost" with
          | Ok _ -> Alcotest.fail "fetched a snapshot that does not exist"
          | Error e ->
            Alcotest.(check bool) "unknown name refused" true
              (contains e "not-found"));
          (* a repair source must never stream rot: corrupt the file in
             place and FETCH again — refused, not forwarded *)
          corrupt_in_place path ~at:(String.length clean / 2);
          match Repair.fetch ~timeout:2.0 sock "db" with
          | Ok _ -> Alcotest.fail "server streamed a corrupt snapshot"
          | Error e ->
            Alcotest.(check bool) "corrupt source refused" true
              (contains e "corrupt")))

let test_torn_fetch_never_installs () =
  with_temp_dir (fun src ->
      with_temp_dir (fun dst ->
          save (Filename.concat src "torn.ts") (Lazy.force synopsis);
          let clean = read_file (Filename.concat src "torn.ts") in
          let sock = Filename.concat src "src.sock" in
          let server = quiet_server src in
          with_served server sock (fun () ->
              Fun.protect ~finally:F.disarm (fun () ->
                  (* cut the chunk armour short on the serving side:
                     the puller's per-chunk CRC must reject the tear *)
                  F.arm ~seed
                    [ F.rule ~prob:1.0 ~path:"torn.ts" F.Write (F.Short_at 64) ];
                  (match
                     Repair.repair_one ~timeout:2.0 ~dir:dst "torn" [ sock ]
                   with
                  | Repair.Failed _ -> ()
                  | o ->
                    Alcotest.failf "torn fetch yielded %s"
                      (Repair.outcome_name o));
                  Alcotest.(check bool) "no partial file installed" false
                    (Sys.file_exists (Filename.concat dst "torn.ts")));
              (* same pull with the fault gone: proves the tear was the
                 only obstacle *)
              match Repair.repair_one ~timeout:2.0 ~dir:dst "torn" [ sock ] with
              | Repair.Repaired { crc; _ } ->
                Alcotest.(check string) "repair is byte-identical"
                  (crc_hex clean)
                  crc;
                Alcotest.(check string) "installed bytes match" clean
                  (read_file (Filename.concat dst "torn.ts"))
              | o -> Alcotest.failf "clean fetch yielded %s" (Repair.outcome_name o))))

let test_enospc_defers_repair () =
  with_temp_dir (fun src ->
      with_temp_dir (fun dst ->
          save (Filename.concat src "db.ts") (Lazy.force synopsis);
          let src_sock = Filename.concat src "a.sock" in
          let server = quiet_server src in
          with_served server src_sock (fun () ->
              Fun.protect ~finally:F.disarm (fun () ->
                  F.arm ~seed
                    [ F.rule ~prob:1.0 ~path:".treesketch-preflight" F.Write
                        F.Enospc ];
                  (match Repair.preflight dst ~bytes:4096 with
                  | Error `No_space -> ()
                  | Error (`Io m) -> Alcotest.failf "preflight io: %s" m
                  | Ok () -> Alcotest.fail "full disk not detected");
                  match Repair.repair_one ~timeout:2.0 ~dir:dst "db" [ src_sock ] with
                  | Repair.Deferred _ ->
                    Alcotest.(check bool) "nothing installed on a full disk"
                      false
                      (Sys.file_exists (Filename.concat dst "db.ts"))
                  | o -> Alcotest.failf "full disk yielded %s" (Repair.outcome_name o));
              (* space freed: the same pull now lands *)
              match Repair.repair_one ~timeout:2.0 ~dir:dst "db" [ src_sock ] with
              | Repair.Repaired _ -> ()
              | o -> Alcotest.failf "retry yielded %s" (Repair.outcome_name o))))

let test_repair_verb_pulls_quorum () =
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          with_temp_dir (fun local ->
              save (Filename.concat d1 "db.ts") (Lazy.force synopsis);
              let text = read_file (Filename.concat d1 "db.ts") in
              write_raw (Filename.concat d2 "db.ts") text;
              let s1 = Filename.concat d1 "p1.sock" in
              let s2 = Filename.concat d2 "p2.sock" in
              let p1 = quiet_server d1 and p2 = quiet_server d2 in
              with_served p1 s1 (fun () ->
                  with_served p2 s2 (fun () ->
                      let config =
                        { Server.default_config with peers = [ s1; s2 ] }
                      in
                      let server = quiet_server ~config local in
                      let askl line = fst (Server.handle_line server line) in
                      (* two peers agree on an identity the local catalog
                         lacks: quorum reached, REPAIR pulls it in *)
                      Alcotest.(check string) "repair pulls the missing name"
                        "ok repair attempted=1 repaired=1 deferred=0 failed=0"
                        (askl "REPAIR");
                      Alcotest.(check string) "repair is byte-identical" text
                        (read_file (Filename.concat local "db.ts"));
                      Alcotest.(check bool) "now resident" true
                        (contains (askl "LIST") "names=db");
                      (* converged: a second pass has nothing to do *)
                      Alcotest.(check string) "repair is idempotent"
                        "ok repair attempted=0 repaired=0 deferred=0 failed=0"
                        (askl "REPAIR"))))))

let test_tmp_orphan_never_shadows_snapshot () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis);
      let orphan = Filename.concat dir ".treesketch-db.999.tmp" in
      Out_channel.with_open_bin orphan (fun oc ->
          Out_channel.output_string oc "torn write from a crashed publisher");
      let old_t = Unix.gettimeofday () -. 600.0 in
      Unix.utimes orphan old_t old_t;
      (* startup fsck: the orphan is swept, the real snapshot loads —
         the orphan never shadowed it and does not outlive it *)
      let server = quiet_server dir in
      Alcotest.(check bool) "startup sweep removed the orphan" false
        (Sys.file_exists orphan);
      let askl line = fst (Server.handle_line server line) in
      Alcotest.(check bool) "real snapshot serves" true
        (starts_with "ok query" (askl "QUERY db //movie"));
      (* a later orphan is swept by RELOAD once it ages out *)
      Out_channel.with_open_bin orphan (fun oc ->
          Out_channel.output_string oc "another tear");
      Unix.utimes orphan old_t old_t;
      let reload = askl "RELOAD" in
      Alcotest.(check bool)
        (Printf.sprintf "reload sweeps and reports (%s)" reload)
        true
        (contains reload "swept=1");
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
      Alcotest.(check bool) "snapshot outlives every orphan" true
        (Sys.file_exists path))

let test_single_target_verbs () =
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " is single-target") true
        (Protocol.single_target l))
    [ "SCRUB"; "FETCH db"; "REPAIR" ]

(* ------------------------------------------------------------------ *)
(* The repair planner's quorum rules                                   *)
(* ------------------------------------------------------------------ *)

let test_plan_quorum_rules () =
  (* quarantined: our copy is known-bad — any holder is a candidate,
     majority identity first (fetch-side verification is the guard) *)
  let plan1 =
    Repair.plan
      ~local_hashes:[ ("db", "aaaa", "ff") ]
      ~quarantined:[ "db" ]
      ~peer_census:
        [
          ("p1", [ ("db", ("cccc", "ff")) ]);
          ("p2", [ ("db", ("bbbb", "ff")) ]);
          ("p3", [ ("db", ("bbbb", "ff")) ]);
        ]
  in
  (match plan1 with
  | [ ("db", candidates) ] ->
    Alcotest.(check (list string)) "majority identity first"
      [ "p2"; "p3"; "p1" ] candidates
  | _ -> Alcotest.fail "quarantined name not planned");
  (* divergence needs TWO peers agreeing: one peer's word never
     overrules a locally-clean copy *)
  Alcotest.(check bool) "single peer cannot overrule" true
    (Repair.plan
       ~local_hashes:[ ("db", "aaaa", "ff") ]
       ~quarantined:[]
       ~peer_census:[ ("p1", [ ("db", ("bbbb", "ff")) ]) ]
    = []);
  (match
     Repair.plan
       ~local_hashes:[ ("db", "aaaa", "ff") ]
       ~quarantined:[]
       ~peer_census:
         [
           ("p1", [ ("db", ("bbbb", "ff")) ]);
           ("p2", [ ("db", ("bbbb", "ff")) ]);
         ]
   with
  | [ ("db", [ "p1"; "p2" ]) ] -> ()
  | _ -> Alcotest.fail "two agreeing peers should out-vote a local copy");
  (* agreement WITH the local copy plans nothing *)
  Alcotest.(check bool) "matching modal hash needs no repair" true
    (Repair.plan
       ~local_hashes:[ ("db", "bbbb", "ff") ]
       ~quarantined:[]
       ~peer_census:
         [
           ("p1", [ ("db", ("bbbb", "ff")) ]);
           ("p2", [ ("db", ("bbbb", "ff")) ]);
         ]
    = []);
  (* deletions are never propagated: a name only we hold is left alone *)
  Alcotest.(check bool) "deletions not propagated" true
    (Repair.plan
       ~local_hashes:[ ("onlyus", "aaaa", "ff") ]
       ~quarantined:[]
       ~peer_census:[ ("p1", []); ("p2", []) ]
    = [])

(* ------------------------------------------------------------------ *)
(* Replica divergence: stale members read as Suspect                   *)
(* ------------------------------------------------------------------ *)

let test_replica_divergence_quorum () =
  let g = Replica.create [ "a"; "b"; "c" ] in
  let m i = List.nth (Replica.members g) i in
  Replica.note_probe ~catalog_hash:"h1" g (m 0) `Ready;
  Replica.note_probe ~catalog_hash:"h1" g (m 1) `Ready;
  Replica.note_probe ~catalog_hash:"h2" g (m 2) `Ready;
  Replica.mark_divergent g;
  Alcotest.(check int) "one stale member" 1 (Replica.stale_count g);
  Alcotest.(check bool) "minority hash is stale" true (Replica.stale (m 2));
  Alcotest.(check bool) "stale reads as Suspect" true
    (Replica.state g (m 2) = Replica.Suspect);
  (* deprioritized, not ejected: it still appears in the ranking *)
  let ranked = List.map Replica.path (Replica.rank g) in
  Alcotest.(check int) "rank keeps everyone" 3 (List.length ranked);
  Alcotest.(check string) "stale ranks last" "c" (List.nth ranked 2);
  Alcotest.(check bool) "describe shows it" true
    (List.exists (fun d -> contains d "stale=yes") (Replica.describe g));
  (* repair converges the hash: the next sweep clears the flag *)
  Replica.note_probe ~catalog_hash:"h1" g (m 2) `Ready;
  Replica.mark_divergent g;
  Alcotest.(check int) "healed" 0 (Replica.stale_count g);
  (* a 1:1 split has no majority: nobody is condemned *)
  let g2 = Replica.create [ "a"; "b" ] in
  let n i = List.nth (Replica.members g2) i in
  Replica.note_probe ~catalog_hash:"x" g2 (n 0) `Ready;
  Replica.note_probe ~catalog_hash:"y" g2 (n 1) `Ready;
  Replica.mark_divergent g2;
  Alcotest.(check int) "no quorum, no verdict" 0 (Replica.stale_count g2);
  (* unknown hashes are absence of evidence, not divergence *)
  let g3 = Replica.create [ "a"; "b"; "c" ] in
  let p i = List.nth (Replica.members g3) i in
  Replica.note_probe ~catalog_hash:"x" g3 (p 0) `Ready;
  Replica.note_probe ~catalog_hash:"x" g3 (p 1) `Ready;
  Replica.note_probe g3 (p 2) `Ready;
  Replica.mark_divergent g3;
  Alcotest.(check int) "unprobed member not condemned" 0 (Replica.stale_count g3)

let test_coordinator_marks_divergent_member () =
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          with_temp_dir (fun d3 ->
              save (Filename.concat d1 "db.ts") (Lazy.force synopsis);
              let text = read_file (Filename.concat d1 "db.ts") in
              write_raw (Filename.concat d2 "db.ts") text;
              (* the third member built something else under the same name *)
              save (Filename.concat d3 "db.ts") (Lazy.force other_synopsis);
              let socks =
                [
                  Filename.concat d1 "r0.sock";
                  Filename.concat d2 "r1.sock";
                  Filename.concat d3 "r2.sock";
                ]
              in
              let servers = List.map quiet_server [ d1; d2; d3 ] in
              let threads =
                List.map2
                  (fun server sock ->
                    Thread.create
                      (fun () -> Server.serve_socket server ~path:sock)
                      ())
                  servers socks
              in
              List.iter (fun s -> Unix.close (connect s)) socks;
              let coord_sock = Filename.concat d1 "coord.sock" in
              let config =
                {
                  Coordinator.default_config with
                  probe_interval = 0.1;
                  probe_timeout = 0.5;
                  drain_deadline = 2.0;
                  replica = { Replica.default_config with seed };
                }
              in
              let coord = Coordinator.create ~log:(fun _ -> ()) ~config socks in
              let coord_thread =
                Thread.create
                  (fun () -> Coordinator.serve_socket coord ~path:coord_sock)
                  ()
              in
              Unix.close (connect coord_sock);
              Fun.protect
                ~finally:(fun () ->
                  Coordinator.request_drain coord;
                  Thread.join coord_thread;
                  List.iter Server.request_drain servers;
                  List.iter Thread.join threads)
                (fun () ->
                  let stale_field () =
                    match token_with "stale=" (ask coord_sock "HEALTH") with
                    | Some tok ->
                      int_of_string_opt
                        (String.sub tok 6 (String.length tok - 6))
                    | None -> None
                  in
                  let rec await what want deadline =
                    if Unix.gettimeofday () > deadline then
                      Alcotest.failf "%s: timed out" what
                    else if stale_field () <> Some want then begin
                      Thread.delay 0.05;
                      await what want deadline
                    end
                  in
                  (* two members agree, the third diverges: the prober's
                     hash comparison must flag exactly one *)
                  await "divergence detected" 1 (Unix.gettimeofday () +. 5.0);
                  (* converge the oddball (byte-identical copy + reload):
                     the next sweeps clear the verdict *)
                  write_raw (Filename.concat d3 "db.ts") text;
                  Alcotest.(check bool) "member reloaded" true
                    (starts_with "ok reload" (ask (List.nth socks 2) "RELOAD"));
                  await "divergence healed" 0 (Unix.gettimeofday () +. 5.0)))))

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

(* A v4 ladder rotted in ONE tier: the scrub quarantines the whole
   ladder (tiers ship as one snapshot; a ladder with one rotten rung
   has no trustworthy rung boundary), and the peer repair restores
   every tier byte-identically in one pull. *)
let test_ladder_scrub_and_repair () =
  with_temp_dir (fun da ->
      with_temp_dir (fun db ->
          let tiers =
            match
              Sketch.Build.build_ladder_res ~limits:Xmldoc.Limits.unlimited
                (Lazy.force synopsis) ~budget:2048 ~tiers:3
            with
            | Ok { ladder; _ } -> ladder
            | Error f -> Alcotest.failf "ladder: %s" (Xmldoc.Fault.to_string f)
          in
          (match Serialize.save_ladder_atomic (Filename.concat db "lad.ts") tiers with
          | Ok () -> ()
          | Error f -> Alcotest.failf "save: %s" (Xmldoc.Fault.to_string f));
          let clean = read_file (Filename.concat db "lad.ts") in
          let path_a = Filename.concat da "lad.ts" in
          write_raw path_a clean;
          normalize_mtime path_a;
          let peer_sock = Filename.concat db "peer.sock" in
          let peer = quiet_server db in
          with_served peer peer_sock (fun () ->
              let config =
                { Server.default_config with peers = [ peer_sock ] }
              in
              let server = quiet_server ~config da in
              let askl line = fst (Server.handle_line server line) in
              (match Catalog.find (Server.catalog server) "lad" with
              | Some entry ->
                Alcotest.(check int) "three tiers resident" 3
                  (Array.length entry.Catalog.tiers)
              | None -> Alcotest.fail "ladder not resident");
              (* rot one byte inside the LAST tier's payload *)
              corrupt_in_place path_a ~at:(String.length clean - 12);
              Alcotest.(check string) "one rotten tier condemns the ladder"
                "ok scrub checked=1 corrupt=1 swept=0" (askl "SCRUB");
              Alcotest.(check bool) "quarantined as scrub-corrupt" true
                (contains (askl "STAT lad") "quarantined=yes reason=scrub-corrupt");
              Alcotest.(check bool) "resident ladder keeps answering" true
                (starts_with "ok query" (askl "QUERY lad //movie"));
              Alcotest.(check string) "peer repair in one pull"
                "ok repair attempted=1 repaired=1 deferred=0 failed=0"
                (askl "REPAIR");
              (* byte-identical file = every tier byte-identical *)
              Alcotest.(check string) "all tiers restored exactly" clean
                (read_file path_a);
              Alcotest.(check bool) "quarantine cleared" true
                (contains (askl "STAT lad") "quarantined=no");
              match Catalog.find (Server.catalog server) "lad" with
              | Some entry ->
                Alcotest.(check int) "three tiers again" 3
                  (Array.length entry.Catalog.tiers);
                Alcotest.(check string) "content hash converged"
                  (crc_hex clean) entry.Catalog.content_crc
              | None -> Alcotest.fail "ladder dropped after repair")))

(* The acceptance scenario: a 3-replica group, one member's snapshot
   rotted in place while it serves live traffic.  The background
   scrubber must detect the rot within a period, quarantine it (the
   resident copy keeps answering), pull the clean bytes from a peer
   over FETCH, and converge to identical content hashes — with zero
   server exits and zero lost client requests. *)
let test_e2e_scrub_repair_convergence () =
  with_temp_dir (fun d0 ->
      with_temp_dir (fun d1 ->
          with_temp_dir (fun d2 ->
              save (Filename.concat d0 "db.ts") (Lazy.force synopsis);
              let clean = read_file (Filename.concat d0 "db.ts") in
              List.iter
                (fun d -> write_raw (Filename.concat d "db.ts") clean)
                [ d1; d2 ];
              let path0 = Filename.concat d0 "db.ts" in
              normalize_mtime path0;
              let s0 = Filename.concat d0 "e0.sock" in
              let s1 = Filename.concat d1 "e1.sock" in
              let s2 = Filename.concat d2 "e2.sock" in
              let log_lock = Mutex.create () in
              let logs = ref [] in
              let log line =
                Mutex.protect log_lock (fun () -> logs := line :: !logs)
              in
              let logged needle =
                Mutex.protect log_lock (fun () ->
                    List.exists (fun l -> contains l needle) !logs)
              in
              let config0 =
                {
                  Server.default_config with
                  scrub_interval = 0.25;
                  peers = [ s1; s2 ];
                  repair_timeout = 2.0;
                  drain_deadline = 2.0;
                }
              in
              let server0 = Server.create ~log ~config:config0 d0 in
              let peers = [ quiet_server d1; quiet_server d2 ] in
              let all = server0 :: peers in
              let threads =
                List.map2
                  (fun server sock ->
                    Thread.create
                      (fun () -> Server.serve_socket server ~path:sock)
                      ())
                  all [ s0; s1; s2 ]
              in
              List.iter (fun s -> Unix.close (connect s)) [ s0; s1; s2 ];
              Fun.protect
                ~finally:(fun () ->
                  List.iter Server.request_drain all;
                  List.iter Thread.join threads)
                (fun () ->
                  let client =
                    Client.create
                      ~config:
                        {
                          Client.default_config with
                          attempts = 4;
                          request_timeout = 4.0;
                          jitter_seed = seed;
                        }
                      [ s0 ]
                  in
                  let lost = ref 0 and served = ref 0 in
                  let drive () =
                    match Client.request client "QUERY db //movie[//actor]" with
                    | Ok response ->
                      if starts_with "ok query" response then incr served
                      else
                        Alcotest.failf "query answered %S during repair"
                          response
                    | Error _ -> incr lost
                  in
                  for _ = 1 to 25 do
                    drive ()
                  done;
                  (* live, in-place bit-rot: size, inode and mtime all
                     preserved — only a scrub re-read can see it *)
                  corrupt_in_place path0 ~at:(String.length clean / 2);
                  let deadline = Unix.gettimeofday () +. 20.0 in
                  let converged () =
                    read_file path0 = clean
                    && contains (ask s0 "STAT db") "quarantined=no"
                  in
                  while (not (converged ())) && Unix.gettimeofday () < deadline
                  do
                    drive ();
                    Thread.delay 0.05
                  done;
                  Alcotest.(check bool) "repaired within the window" true
                    (converged ());
                  (* the detection and repair both went through the
                     anti-entropy machinery, not a lucky reload *)
                  Alcotest.(check bool) "scrub detected the rot" true
                    (logged "event=scrub-quarantine name=db");
                  Alcotest.(check bool) "repair pulled from a peer" true
                    (logged "event=repair name=db");
                  (* all three members now advertise identical hashes *)
                  let hashes sock =
                    match token_with "hashes=" (ask sock "LIST") with
                    | Some tok -> tok
                    | None -> Alcotest.failf "no hashes token from %s" sock
                  in
                  let h0 = hashes s0 in
                  Alcotest.(check string) "converged with peer 1" h0 (hashes s1);
                  Alcotest.(check string) "converged with peer 2" h0 (hashes s2);
                  Alcotest.(check bool) "hash is the clean content" true
                    (contains h0 (crc_hex clean));
                  (* the scrub job is supervisor housekeeping, invisible
                     to clients *)
                  Alcotest.(check bool) "scrub job hidden from JOBS" false
                    (contains (ask s0 "JOBS") "scrub");
                  for _ = 1 to 25 do
                    drive ()
                  done;
                  Printf.eprintf
                    "scrub e2e: served=%d lost=%d (corruption at byte %d)\n%!"
                    !served !lost
                    (String.length clean / 2);
                  Alcotest.(check int) "zero lost client requests" 0 !lost;
                  Client.close client))))

let () =
  Alcotest.run "scrub"
    [
      ( "scrub core",
        [
          Alcotest.test_case "verify detects in-place rot" `Quick
            test_verify_detects_rot;
          Alcotest.test_case "fingerprint sees build shape" `Quick
            test_fingerprint_sees_build_shape;
          Alcotest.test_case "scan classifies a directory" `Quick
            test_scan_classifies_directory;
          Alcotest.test_case "report file round-trips" `Quick
            test_report_round_trip;
          Alcotest.test_case "tmp sweep is age-gated" `Quick
            test_tmp_sweep_age_gate;
          Alcotest.test_case "scrub never disturbs a mid-swap flush" `Quick
            test_scrub_never_disturbs_mid_swap_flush;
          Alcotest.test_case "verify_path: every family, agreeing with scan"
            `Quick test_verify_path_families;
        ] );
      ( "catalog identity",
        [
          Alcotest.test_case "content hashes" `Quick test_catalog_hashes;
          Alcotest.test_case "scrub quarantine keeps serving, rename heals"
            `Quick test_scrub_quarantine_keeps_serving_and_heals;
        ] );
      ( "verbs",
        [
          Alcotest.test_case "SCRUB detects what reload cannot" `Quick
            test_scrub_verb_detects_in_place_rot;
          Alcotest.test_case "FETCH round-trips and refuses rot" `Quick
            test_fetch_round_trip_and_refusals;
          Alcotest.test_case "torn FETCH never installs a partial file" `Quick
            test_torn_fetch_never_installs;
          Alcotest.test_case "ENOSPC defers repair" `Quick
            test_enospc_defers_repair;
          Alcotest.test_case "REPAIR pulls on peer quorum" `Quick
            test_repair_verb_pulls_quorum;
          Alcotest.test_case "tmp orphan never shadows a snapshot" `Quick
            test_tmp_orphan_never_shadows_snapshot;
          Alcotest.test_case "anti-entropy verbs are single-target" `Quick
            test_single_target_verbs;
        ] );
      ( "repair plan",
        [ Alcotest.test_case "quorum rules" `Quick test_plan_quorum_rules ] );
      ( "divergence",
        [
          Alcotest.test_case "registry quorum semantics" `Quick
            test_replica_divergence_quorum;
          Alcotest.test_case "coordinator flags and heals a stale member"
            `Quick test_coordinator_marks_divergent_member;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "ladder rot: quarantined whole, repaired whole"
            `Quick test_ladder_scrub_and_repair;
          Alcotest.test_case
            "live replica rots, scrubber detects, peers repair, group converges"
            `Quick test_e2e_scrub_repair_convergence;
        ] );
    ]
