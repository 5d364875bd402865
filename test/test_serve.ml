(* Tests for the serving runtime: catalog crash-safety and hot-reload,
   the request protocol, an end-to-end smoke of the server loop over
   real channels, and a seeded chaos run that interleaves malformed
   requests, corrupt snapshots, expired deadlines and over-cap answers
   — asserting the server never dies and every response is structurally
   well-formed. *)

module Server = Serve.Server
module Catalog = Serve.Catalog
module Protocol = Serve.Protocol
module Serialize = Sketch.Serialize
module Synopsis = Sketch.Synopsis
module Stable = Sketch.Stable
module T = Testutil

let seed = 0x5e17e

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "tsserve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let synopsis_a =
  lazy (Stable.build (Xmldoc.Parser.of_string
          "<db><movie><actor/><actor/><title/></movie>\
           <movie><actor/><title/></movie><short><title/></short></db>"))

let synopsis_b =
  lazy (Stable.build (Xmldoc.Parser.of_string "<lib><book><ref/></book></lib>"))

let canonical s = Serialize.to_string s

let save path s =
  match Serialize.save_atomic path s with
  | Ok () -> ()
  | Error f -> Alcotest.failf "save %s: %s" path (Xmldoc.Fault.to_string f)

(* mtime has 1-second granularity on some filesystems; tests that
   rewrite a file in place force the reload instead of sleeping *)
let refresh_force c = Catalog.refresh ~force:true c

let quiet_server ?config dir = Server.create ~log:(fun _ -> ()) ?config dir

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog_loads () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "a.ts") (Lazy.force synopsis_a);
      save (Filename.concat dir "b.ts") (Lazy.force synopsis_b);
      write_file (Filename.concat dir "notes.txt") "not a snapshot";
      let c = Catalog.create dir in
      let events = Catalog.refresh c in
      Alcotest.(check int) "two loads" 2
        (List.length
           (List.filter (function Catalog.Loaded _ -> true | _ -> false) events));
      Alcotest.(check (list string)) "names" [ "a"; "b" ] (Catalog.names c);
      (match Catalog.find c "a" with
      | Some e ->
        Alcotest.(check string) "a content" (canonical (Lazy.force synopsis_a))
          (canonical e.synopsis)
      | None -> Alcotest.fail "a not resident");
      Alcotest.(check int) "no quarantine" 0 (List.length (Catalog.quarantined c)))

let test_catalog_quarantines_and_keeps_previous () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "a.ts" in
      save path (Lazy.force synopsis_a);
      let c = Catalog.create dir in
      ignore (Catalog.refresh c);
      (* corrupt the file behind the catalog's back *)
      write_file path "treesketch 2\nroot 0\nnode 0 1 zz\n" (* missing crc *);
      let events = refresh_force c in
      (match events with
      | [ Catalog.Quarantined ("a", Xmldoc.Fault.Corrupt_synopsis _) ] -> ()
      | _ -> Alcotest.failf "expected one quarantine event, got %d" (List.length events));
      (* the previous resident version keeps serving *)
      (match Catalog.find c "a" with
      | Some e ->
        Alcotest.(check string) "stale version served"
          (canonical (Lazy.force synopsis_a))
          (canonical e.synopsis)
      | None -> Alcotest.fail "previous version dropped");
      Alcotest.(check bool) "fault recorded" true (Catalog.fault_for c "a" <> None);
      (* repair in place: picked up without a restart *)
      save path (Lazy.force synopsis_a);
      (match refresh_force c with
      | [ Catalog.Reloaded "a" ] -> ()
      | events -> Alcotest.failf "expected a reload, got %d events" (List.length events));
      Alcotest.(check bool) "quarantine cleared" true (Catalog.fault_for c "a" = None))

(* a persistently corrupt file must not be re-parsed on every refresh:
   the retry is gated on the (mtime, size) fingerprint moving, with
   [~force] as the unconditional escape hatch *)
let test_catalog_quarantine_retry_gated_by_fingerprint () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "a.ts" in
      write_file path "treesketch 2\nroot 0\nnode 0 1 zz\n" (* missing crc *);
      let c = Catalog.create dir in
      (match Catalog.refresh c with
      | [ Catalog.Quarantined ("a", _) ] -> ()
      | events ->
        Alcotest.failf "expected one quarantine event, got %d" (List.length events));
      (* unchanged fingerprint: the corrupt file is left alone *)
      (match Catalog.refresh c with
      | [] -> ()
      | events ->
        Alcotest.failf "quarantined file retried while unchanged (%d events)"
          (List.length events));
      Alcotest.(check bool) "still quarantined" true (Catalog.fault_for c "a" <> None);
      (* -force retries unconditionally *)
      (match Catalog.refresh ~force:true c with
      | [ Catalog.Quarantined ("a", _) ] -> ()
      | _ -> Alcotest.fail "force did not retry the quarantined file");
      (* an in-place repair moves the fingerprint and is picked up on a
         plain refresh, no force required *)
      save path (Lazy.force synopsis_a);
      (match Catalog.refresh c with
      | [ Catalog.Loaded "a" ] -> ()
      | events -> Alcotest.failf "repair not picked up (%d events)" (List.length events));
      Alcotest.(check bool) "quarantine cleared" true (Catalog.fault_for c "a" = None))

(* catalog-level crash-safety: a snapshot read torn at any sampled
   offset either leaves the previous version serving (quarantine) or —
   if the tear kept the text complete — reloads it identically; never
   partial.  The tear comes from the {!Xmldoc.Io_fault} shim (an
   injected short read of the intact on-disk file), not from rewriting
   the file — the same substrate the chaos suite uses. *)
let test_catalog_torn_writes_never_partial () =
  with_temp_dir (fun dir ->
      let module F = Xmldoc.Io_fault in
      let s = Lazy.force synopsis_a in
      let full = canonical s in
      let snap = Serialize.to_snapshot_string s in
      let path = Filename.concat dir "a.ts" in
      save path s;
      let c = Catalog.create dir in
      ignore (Catalog.refresh c);
      Fun.protect ~finally:F.disarm (fun () ->
          let cut = ref 0 in
          while !cut < String.length snap do
            F.arm ~seed [ F.rule ~prob:1.0 ~path:"a.ts" F.Read (F.Short_at !cut) ];
            ignore (refresh_force c);
            F.disarm ();
            (match Catalog.find c "a" with
            | Some e ->
              Alcotest.(check string)
                (Printf.sprintf "cut at %d serves a complete synopsis" !cut)
                full (canonical e.synopsis)
            | None -> Alcotest.failf "cut at %d: synopsis vanished" !cut);
            cut := !cut + 7
          done);
      (* with the shim disarmed the intact file loads cleanly again *)
      ignore (refresh_force c);
      Alcotest.(check int) "no quarantine after disarm" 0
        (List.length (Catalog.quarantined c));
      (* a torn staging file must be invisible to the scan *)
      write_file (Filename.concat dir ".treesketch_torn.tmp")
        (String.sub snap 0 (String.length snap / 2));
      ignore (refresh_force c);
      Alcotest.(check (list string)) "staging file invisible" [ "a" ] (Catalog.names c);
      Alcotest.(check int) "no quarantine" 0 (List.length (Catalog.quarantined c)))

(* satellite regression: a same-second, same-size rewrite must still be
   observed by a plain refresh — the inode (atomic publishes rename a
   fresh temp file into place, so the inode always moves) is folded
   into the staleness fingerprint precisely for this window *)
let test_catalog_same_second_same_size_rewrite () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "x.ts" in
      (* two distinct synopses whose snapshots are byte-for-byte the
         same length: same structure, different labels *)
      let s1 = Stable.build (Xmldoc.Parser.of_string "<db><aa/></db>") in
      let s2 = Stable.build (Xmldoc.Parser.of_string "<db><bb/></db>") in
      let snap1 = Serialize.to_snapshot_string s1
      and snap2 = Serialize.to_snapshot_string s2 in
      Alcotest.(check int) "same size" (String.length snap1) (String.length snap2);
      (* pin both publishes to the same whole-second timestamp
         (utimes cannot express sub-second precision portably): the
         fingerprint then matches in (mtime, size) and only the inode
         differs — exactly the same-second same-size window *)
      let t = Float.of_int (int_of_float (Unix.time ()) - 10) in
      save path s1;
      Unix.utimes path t t;
      let c = Catalog.create dir in
      ignore (Catalog.refresh c);
      let st1 = Unix.stat path in
      save path s2;
      Unix.utimes path t t;
      let st2 = Unix.stat path in
      Alcotest.(check bool) "same mtime" true (st1.Unix.st_mtime = st2.Unix.st_mtime);
      Alcotest.(check bool) "same size" true (st1.Unix.st_size = st2.Unix.st_size);
      (match Catalog.refresh c with
      | [ Catalog.Reloaded "x" ] -> ()
      | events ->
        Alcotest.failf "same-second same-size rewrite missed (%d events)"
          (List.length events));
      match Catalog.find c "x" with
      | Some e -> Alcotest.(check string) "new content served" (canonical s2)
                    (canonical e.synopsis)
      | None -> Alcotest.fail "x not resident")

let test_catalog_removal () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "a.ts" in
      save path (Lazy.force synopsis_a);
      let c = Catalog.create dir in
      ignore (Catalog.refresh c);
      Sys.remove path;
      (match Catalog.refresh c with
      | [ Catalog.Removed "a" ] -> ()
      | events -> Alcotest.failf "expected removal, got %d events" (List.length events));
      Alcotest.(check (list string)) "empty" [] (Catalog.names c))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  let ok line expect =
    match Protocol.parse line with
    | Ok req when req = expect -> ()
    | Ok _ -> Alcotest.failf "%S parsed to the wrong request" line
    | Error msg -> Alcotest.failf "%S rejected: %s" line msg
  in
  ok "PING" Protocol.Ping;
  ok "ping" Protocol.Ping;
  ok "HEALTH" Protocol.Health;
  ok "health" Protocol.Health;
  ok "  LIST  " Protocol.List;
  ok "QUIT" Protocol.Quit;
  ok "RELOAD" (Protocol.Reload { force = false });
  ok "RELOAD -force" (Protocol.Reload { force = true });
  ok "STAT db" (Protocol.Stat "db");
  (match Protocol.parse "QUERY -deadline=0.5 -max-nodes=9 db //movie" with
  | Ok (Protocol.Query (opts, "db", _)) ->
    Alcotest.(check (option int)) "max-nodes" (Some 9) opts.max_nodes;
    (match opts.deadline with
    | Some d -> Alcotest.(check bool) "deadline" true (T.feq d 0.5)
    | None -> Alcotest.fail "deadline dropped")
  | Ok _ -> Alcotest.fail "wrong request shape"
  | Error msg -> Alcotest.failf "rejected: %s" msg);
  let fails line =
    match Protocol.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S accepted" line
  in
  fails "";
  fails "   ";
  fails "BOGUS";
  fails "STAT";
  fails "STAT a b";
  fails "PING extra";
  fails "HEALTH extra";
  fails "QUERY db";
  fails "QUERY -deadline=soon db //a";
  fails "QUERY -max-nodes=0 db //a";
  fails "QUERY -frobnicate=1 db //a";
  fails "ANSWER db //a[";
  ok "BUILD db doc.xml 4KB"
    (Protocol.Build { name = "db"; xml = "doc.xml"; budget = 4096 });
  ok "build job-1 /tmp/d.xml 512"
    (Protocol.Build { name = "job-1"; xml = "/tmp/d.xml"; budget = 512 });
  ok "JOBS" Protocol.Jobs;
  ok "CANCEL db" (Protocol.Cancel "db");
  fails "BUILD";
  fails "BUILD db";
  fails "BUILD db doc.xml";
  fails "BUILD db doc.xml nope";
  fails "BUILD db doc.xml 0";
  fails "BUILD ../evil doc.xml 4KB" (* name must not escape the catalog dir *);
  fails "BUILD a/b doc.xml 4KB";
  fails "JOBS extra";
  fails "CANCEL";
  fails "CANCEL a b";
  Alcotest.(check string) "one_line flattens" "a b c" (Protocol.one_line "a\nb\rc")

(* ------------------------------------------------------------------ *)
(* End-to-end over real channels                                       *)
(* ------------------------------------------------------------------ *)

(* run one serve_channels session over temp files, returning the
   response lines *)
let session server requests =
  let req_path = Filename.temp_file "tsreq" ".txt" in
  let resp_path = Filename.temp_file "tsresp" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req_path with Sys_error _ -> ());
      try Sys.remove resp_path with Sys_error _ -> ())
    (fun () ->
      write_file req_path (String.concat "\n" requests ^ "\n");
      let ic = open_in req_path in
      let oc = open_out resp_path in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr oc)
        (fun () -> Server.serve_channels server ic oc);
      let ic = open_in resp_path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | line -> read (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          read []))

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_prefix what prefix line =
  if not (starts_with prefix line) then
    Alcotest.failf "%s: expected %S..., got %S" what prefix line

let test_serve_end_to_end () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.ts" in
      save path (Lazy.force synopsis_a);
      let server = quiet_server dir in
      (* session 1: browse and query a healthy catalog *)
      (match
         session server
           [ "PING"; "LIST"; "STAT db"; "QUERY db //movie[//actor]";
             "ANSWER db //short"; "QUERY ghost //a" ]
       with
      | [ pong; list; stat; query; answer; ghost ] ->
        Alcotest.(check string) "pong" "pong" pong;
        check_prefix "list" "ok catalog n=1 names=db quarantined=0" list;
        check_prefix "stat" "ok stat name=db classes=" stat;
        Alcotest.(check bool) "healthy stat" true (T.contains stat "quarantined=no");
        check_prefix "query" "ok query degraded=no est=2 " query;
        check_prefix "answer" "ok answer degraded=no truncated=no" answer;
        check_prefix "missing name" "error not-found" ghost
      | lines -> Alcotest.failf "session 1: %d responses" (List.length lines));
      (* corrupt the snapshot behind the server's back; the resident
         version keeps serving and the quarantine is visible *)
      write_file path "treesketch 2\nroot 0\nnode 0 1 zz\n";
      (match
         session server [ "RELOAD -force"; "QUERY db //movie"; "LIST"; "STAT db" ]
       with
      | [ reload; query; list; stat ] ->
        check_prefix "reload" "ok reload loaded=0 reloaded=0 quarantined=1" reload;
        check_prefix "stale still serves" "ok query degraded=no" query;
        check_prefix "quarantine visible" "ok catalog n=1 names=db quarantined=1" list;
        (* STAT on a quarantined name is a report, not an error: the
           resident stats plus why the on-disk file is rejected *)
        check_prefix "stat answers despite quarantine" "ok stat name=db classes=" stat;
        Alcotest.(check bool) "stat reports the quarantine" true
          (T.contains stat "quarantined=yes reason=corrupt")
      | lines -> Alcotest.failf "session 2: %d responses" (List.length lines));
      (* repair in place: hot-reloaded, quarantine cleared, QUIT stops
         the loop before later requests *)
      save path (Lazy.force synopsis_a);
      (match
         session server
           [ "RELOAD -force"; "QUERY db //movie"; "QUIT"; "PING" ]
       with
      | [ reload; query; bye ] ->
        check_prefix "repair reloads" "ok reload loaded=0 reloaded=1 quarantined=0" reload;
        check_prefix "healthy again" "ok query degraded=no" query;
        Alcotest.(check string) "bye" "bye" bye
      | lines -> Alcotest.failf "session 3: %d responses" (List.length lines)))

(* HEALTH separates liveness from readiness: a healthy server reports
   ready=yes; once a drain is requested it keeps answering (live) but
   flips ready=no draining=yes — the signal a rolling restart watches *)
let test_health_readiness () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "db.ts") (Lazy.force synopsis_a);
      let server = quiet_server dir in
      (match session server [ "HEALTH" ] with
      | [ health ] ->
        check_prefix "healthy" "ok health live=yes ready=yes draining=no" health;
        Alcotest.(check bool) "catalog counted" true (T.contains health "catalog=1")
      | lines -> Alcotest.failf "%d responses" (List.length lines));
      Alcotest.(check bool) "not draining" false (Server.draining server);
      Server.request_drain server;
      Alcotest.(check bool) "draining" true (Server.draining server);
      (* still live — handle_line answers — but no longer ready *)
      (match Server.handle_line server "HEALTH" with
      | health, false ->
        check_prefix "draining health"
          "ok health live=yes ready=no draining=yes" health;
        Alcotest.(check bool) "reason named" true (T.contains health "reason=draining")
      | _, true -> Alcotest.fail "HEALTH quit");
      (* serve_channels refuses new lines once draining *)
      match session server [ "PING" ] with
      | [] -> ()
      | lines -> Alcotest.failf "draining loop served %d lines" (List.length lines))

(* In-process, the server counts a degraded answer from the evaluator's
   own outcome; through a pool worker it reads the rendered line, whose
   [degraded=nodes] must not pass for [degraded=no]. *)
let test_serve_degradation_over_channel () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "db.ts") (Lazy.force synopsis_a);
      let pooled =
        {
          Server.default_config with
          pool = { Serve.Pool.default_config with workers = 1 };
        }
      in
      List.iter
        (fun (what, config) ->
          let server = quiet_server ~config dir in
          Fun.protect
            ~finally:(fun () ->
              ignore (Serve.Pool.shutdown (Server.pool server) : int))
            (fun () ->
              match
                session server
                  [
                    "QUERY -deadline=-1 db //movie[//actor]";
                    "ANSWER -max-nodes=1 db //movie";
                  ]
              with
              | [ query; answer ] ->
                check_prefix (what ^ ": expired deadline degrades")
                  "ok query degraded=deadline" query;
                check_prefix (what ^ ": node cap truncates")
                  "ok answer degraded=nodes" answer;
                Alcotest.(check int) (what ^ ": degraded counted") 2
                  (Server.stats server).degraded
              | lines ->
                Alcotest.failf "%s: %d responses" what (List.length lines)))
        [ ("in-process", Server.default_config); ("pooled", pooled) ])

(* ------------------------------------------------------------------ *)
(* Unix-socket front end                                               *)
(* ------------------------------------------------------------------ *)

let rec connect ?(attempts = 100) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when attempts > 0 ->
    Unix.close fd;
    Thread.delay 0.02;
    connect ~attempts:(attempts - 1) path

(* a client that disconnects without reading its responses makes the
   server write to a dead peer — EPIPE, and with SIGPIPE at its default
   disposition that would kill the whole process, not just the
   connection.  The accept loop must shrug it off and keep serving. *)
let test_socket_survives_rude_client () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "db.ts") (Lazy.force synopsis_a);
      let sock_path = Filename.concat dir "serve.sock" in
      let server = quiet_server dir in
      let _ : Thread.t =
        Thread.create
          (fun () ->
            try Server.serve_socket server ~path:sock_path
            with _ -> () (* the listener dies with the test process *))
          ()
      in
      (* burst enough requests that responses are still being written
         after the close, then vanish without reading any of them *)
      let rude = connect sock_path in
      let burst =
        String.concat "" (List.init 50 (fun _ -> "QUERY db //movie\n"))
      in
      ignore (Unix.write_substring rude burst 0 (String.length burst) : int);
      Unix.close rude;
      (* the server must still be accepting and answering *)
      let polite = connect sock_path in
      Fun.protect
        ~finally:(fun () -> try Unix.close polite with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr polite in
          let oc = Unix.out_channel_of_descr polite in
          output_string oc "PING\n";
          flush oc;
          Alcotest.(check string) "alive after rude client" "pong" (input_line ic);
          output_string oc "QUERY db //movie\n";
          flush oc;
          check_prefix "still serving queries" "ok query" (input_line ic)))

(* HEALTH must keep answering while a socket drain is ACTIVELY in
   progress — live=yes ready=no draining=yes — not just after the
   flag flips.  This is the window a rolling restart (and the replica
   coordinator's prober) watches: a draining member must read as
   alive-but-not-ready, so it is deprioritized rather than ejected,
   and the restart script knows the process is still unwinding. *)
let test_health_during_active_drain () =
  with_temp_dir (fun dir ->
      save (Filename.concat dir "db.ts") (Lazy.force synopsis_a);
      let sock_path = Filename.concat dir "drainh.sock" in
      let config = { Server.default_config with drain_deadline = 1.0 } in
      let server = quiet_server ~config dir in
      let th =
        Thread.create (fun () -> Server.serve_socket server ~path:sock_path) ()
      in
      let fd = connect sock_path in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc "HEALTH\n";
      flush oc;
      check_prefix "ready over the socket"
        "ok health live=yes ready=yes draining=no" (input_line ic);
      (* the drain starts; the accept loop and connection teardown are
         now actively unwinding on the serve thread *)
      Server.request_drain server;
      (match Server.handle_line server "HEALTH" with
      | health, false ->
        check_prefix "live but not ready mid-drain"
          "ok health live=yes ready=no draining=yes" health;
        Alcotest.(check bool) "reason named" true
          (T.contains health "reason=draining")
      | _, true -> Alcotest.fail "HEALTH quit mid-drain");
      (* the connected client is severed cleanly — EOF, not a torn line *)
      (match input_line ic with
      | line -> Alcotest.failf "unexpected line after drain: %S" line
      | exception End_of_file -> ());
      Unix.close fd;
      Thread.join th;
      Alcotest.(check bool) "listener unlinked" false (Sys.file_exists sock_path);
      (* the process is still live after the front end is gone: HEALTH
         answers (a late readiness probe must see live, not a crash) *)
      match Server.handle_line server "HEALTH" with
      | health, false ->
        check_prefix "still live after serve_socket returned"
          "ok health live=yes ready=no draining=yes" health
      | _, true -> Alcotest.fail "HEALTH quit after drain")

(* ------------------------------------------------------------------ *)
(* STAT on quarantined entries                                         *)
(* ------------------------------------------------------------------ *)

(* a name that was NEVER resident (corrupt from the first scan) is
   still STATable: resident=no plus the quarantine reason *)
let test_stat_never_resident_quarantined () =
  with_temp_dir (fun dir ->
      write_file (Filename.concat dir "broken.ts") "treesketch 2\nroot 0\nnode 0 1 zz\n";
      let server = quiet_server dir in
      match session server [ "STAT broken"; "STAT ghost" ] with
      | [ broken; ghost ] ->
        check_prefix "quarantined stat"
          "ok stat name=broken resident=no quarantined=yes reason=corrupt" broken;
        check_prefix "unknown name still errors" "error not-found" ghost
      | lines -> Alcotest.failf "%d responses" (List.length lines))

(* ------------------------------------------------------------------ *)
(* Background builds                                                   *)
(* ------------------------------------------------------------------ *)

module Jobs = Serve.Jobs

let build_doc_xml dir =
  let doc = Datagen.Datasets.generate ~seed:11 ~scale:0.3 Datagen.Datasets.Xmark in
  let path = Filename.concat dir "doc.xml" in
  Xmldoc.Printer.to_file path doc;
  path

(* fast supervision knobs so crash/backoff cycles complete within the
   test's patience; checkpoints stay frequent enough that a killed
   worker resumes mid-compression rather than restarting from scratch *)
let jobs_config =
  {
    Jobs.default_config with
    max_jobs = 4;
    max_restarts = 2;
    backoff_base = 0.01;
    backoff_cap = 0.05;
    checkpoint_every = 16;
  }

let jobs_server dir =
  quiet_server ~config:{ Server.default_config with jobs = jobs_config } dir

(* drive the supervisor until every job settles (no running/backoff
   left), bounded by a wall-clock patience *)
let settle ?(patience = 30.) server =
  let deadline = Unix.gettimeofday () +. patience in
  let unsettled () =
    List.exists
      (fun (j : Jobs.job) ->
        match j.state with Running _ | Backoff _ -> true | Done _ | Failed _ | Cancelled -> false)
      (Jobs.list (Server.jobs server))
  in
  while unsettled () && Unix.gettimeofday () < deadline do
    (* PING advances the supervisor (every request line polls it)
       without triggering a catalog rescan per iteration *)
    ignore (Server.handle_line server "PING");
    Thread.delay 0.005
  done;
  if unsettled () then Alcotest.fail "jobs did not settle in time"

let test_build_job_end_to_end () =
  with_temp_dir (fun dir ->
      let xml = build_doc_xml dir in
      let server = jobs_server dir in
      (match Server.handle_line server (Printf.sprintf "BUILD db %s 2KB" xml) with
      | response, false -> check_prefix "build accepted" "ok build name=db state=running" response
      | _, true -> Alcotest.fail "BUILD quit");
      settle server;
      (* the finished snapshot is published into the catalog and servable *)
      (match session server [ "JOBS"; "STAT db"; "QUERY db //item" ] with
      | [ jobs; stat; query ] ->
        check_prefix "job done" "ok jobs n=1 db=done" jobs;
        check_prefix "snapshot resident" "ok stat name=db classes=" stat;
        check_prefix "servable" "ok query" query
      | lines -> Alcotest.failf "%d responses" (List.length lines));
      (* its checkpoint journal was cleaned up and never entered the catalog *)
      Alcotest.(check bool) "journal removed" false
        (Sys.file_exists (Jobs.checkpoint_path (Server.jobs server) "db"));
      (* a nonexistent document fails fast with the io fault code, no retries *)
      (match Server.handle_line server "BUILD bad /nonexistent.xml 2KB" with
      | response, _ -> check_prefix "accepted" "ok build" response);
      settle server;
      (match Jobs.find (Server.jobs server) "bad" with
      | Some { state = Jobs.Failed _; _ } -> ()
      | Some j -> Alcotest.failf "bad job state %s" (Jobs.state_token j.state)
      | None -> Alcotest.fail "bad job vanished");
      (* CANCEL on an unknown name errors; on a finished job it is a no-op *)
      (match Server.handle_line server "CANCEL ghost" with
      | response, _ -> check_prefix "unknown job" "error not-found" response);
      match Server.handle_line server "CANCEL db" with
      | response, _ -> check_prefix "finished job unchanged" "ok cancel name=db state=done" response)

(* a worker SIGKILLed mid-build is restarted from its last checkpoint
   and still completes; the builds that exhaust their restarts fail
   without taking the server down *)
let test_build_job_survives_kills () =
  with_temp_dir (fun dir ->
      let xml = build_doc_xml dir in
      let server = jobs_server dir in
      (match Server.handle_line server (Printf.sprintf "BUILD db %s 2KB" xml) with
      | response, _ -> check_prefix "accepted" "ok build" response);
      (* kill the first worker as soon as we can see its pid *)
      (match Jobs.find (Server.jobs server) "db" with
      | Some { state = Jobs.Running { pid; _ }; _ } ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | Some _ | None -> () (* already finished: nothing to kill *));
      settle server;
      match Jobs.find (Server.jobs server) "db" with
      | Some { state = Jobs.Done _; _ } -> (
        match Serialize.load_res (Filename.concat dir "db.ts") with
        | Ok _ -> ()
        | Error f ->
          Alcotest.failf "published snapshot unloadable: %s" (Xmldoc.Fault.to_string f))
      | Some { state = Jobs.Failed { reason }; _ } ->
        Alcotest.failf "job failed instead of restarting: %s" reason
      | Some j -> Alcotest.failf "unexpected state %s" (Jobs.state_token j.state)
      | None -> Alcotest.fail "job vanished")

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let error_classes =
  [ "bad-request"; "not-found"; "overloaded"; "internal";
    "parse"; "corrupt"; "limit"; "deadline"; "io"; "busy";
    "worker-crash"; "poisoned" ]

(* >= 500 seeded requests interleaving malformed lines, corrupt and
   vanishing snapshots, expired deadlines and over-cap answers.  The
   server must answer every single one with a well-formed line — a
   full answer, a degraded partial answer, or a structured error with a
   known class — and never exit or raise.  *)
let test_chaos () =
  with_temp_dir (fun dir ->
      let rng = Random.State.make [| seed |] in
      let s = Lazy.force synopsis_a in
      let snap = Serialize.to_snapshot_string s in
      let path = Filename.concat dir "db.ts" in
      save path s;
      let server = quiet_server dir in
      let queries =
        [| "//movie"; "//movie[//actor]"; "//movie{//title?}"; "//short";
           "//nothing"; "/db/movie" |]
      in
      let random_garbage () =
        String.init (Random.State.int rng 30) (fun _ ->
            Char.chr (1 + Random.State.int rng 255))
      in
      let request () =
        match Random.State.int rng 12 with
        | 0 -> "PING"
        | 1 -> "LIST"
        | 2 -> "RELOAD" ^ (if Random.State.bool rng then " -force" else "")
        | 3 -> "STAT " ^ (if Random.State.bool rng then "db" else "ghost")
        | 4 -> random_garbage ()
        | 5 -> "QUERY db " ^ random_garbage ()
        | 6 ->
          Printf.sprintf "QUERY -deadline=%g db %s"
            (Random.State.float rng 0.001 -. 0.0005)
            queries.(Random.State.int rng (Array.length queries))
        | 7 ->
          Printf.sprintf "ANSWER -max-nodes=%d db %s"
            (1 + Random.State.int rng 4)
            queries.(Random.State.int rng (Array.length queries))
        | 8 -> "QUERY ghost //a"
        | _ ->
          Printf.sprintf "%s db %s"
            (if Random.State.bool rng then "QUERY" else "ANSWER")
            queries.(Random.State.int rng (Array.length queries))
      in
      let corrupt_store () =
        match Random.State.int rng 4 with
        | 0 -> write_file path (String.sub snap 0 (Random.State.int rng (String.length snap)))
        | 1 -> write_file path (random_garbage ())
        | 2 -> ( try Sys.remove path with Sys_error _ -> ())
        | _ -> write_file path snap (* repair *)
      in
      let n = 600 in
      let oks = ref 0 and errors = ref 0 and degraded = ref 0 in
      for i = 1 to n do
        if i mod 17 = 0 then corrupt_store ();
        let line = request () in
        let response, quit =
          match Server.handle_line server line with
          | r -> r
          | exception e ->
            Alcotest.failf "request %d %S killed the server: %s" i
              (String.escaped line) (Printexc.to_string e)
        in
        if quit then Alcotest.failf "request %d unexpectedly quit" i;
        if String.contains response '\n' then
          Alcotest.failf "request %d: multi-line response" i;
        if starts_with "ok " response || response = "pong" then begin
          incr oks;
          if T.contains response "degraded=deadline"
             || T.contains response "degraded=nodes"
             || T.contains response "degraded=work"
             || T.contains response "truncated=yes"
          then incr degraded
        end
        else if starts_with "error " response then begin
          incr errors;
          let cls =
            match String.split_on_char ' ' response with
            | "error" :: cls :: _ -> cls
            | _ -> "?"
          in
          if not (List.mem cls error_classes) then
            Alcotest.failf "request %d: unknown error class %S in %S" i cls response;
          if cls = "internal" then
            Alcotest.failf "request %d: internal error leaked: %S" i response
        end
        else Alcotest.failf "request %d: malformed response %S" i response
      done;
      Alcotest.(check int) "every request answered" n ((Server.stats server).served);
      Alcotest.(check int) "tallies add up" n (!oks + !errors);
      Alcotest.(check bool) "saw successes" true (!oks > 0);
      Alcotest.(check bool) "saw structured errors" true (!errors > 0);
      Alcotest.(check bool) "saw degraded answers" true (!degraded > 0))

(* 200 supervised build jobs under hostile conditions: workers
   SIGKILLed mid-build, checkpoint journals corrupted behind their
   backs, jobs cancelled at random.  The server must answer every
   request, never exit, and every snapshot that survives in the
   catalog directory must load completely. *)
let test_job_chaos () =
  with_temp_dir (fun dir ->
      let rng = Random.State.make [| seed + 1 |] in
      let xml = build_doc_xml dir in
      let server = jobs_server dir in
      let jobs = Server.jobs server in
      let well_formed what (response, quit) =
        if quit then Alcotest.failf "%s: unexpected quit" what;
        if String.contains response '\n' then
          Alcotest.failf "%s: multi-line response" what;
        if not (starts_with "ok " response || starts_with "error " response) then
          Alcotest.failf "%s: malformed response %S" what response;
        (match String.split_on_char ' ' response with
        | "error" :: cls :: _ when not (List.mem cls error_classes) ->
          Alcotest.failf "%s: unknown error class %S" what cls
        | _ -> ());
        response
      in
      let drive line = well_formed line (Server.handle_line server line) in
      let kill_running name =
        match Jobs.find jobs name with
        | Some { state = Jobs.Running { pid; _ }; _ } ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        | Some _ | None -> ()
      in
      let corrupt_checkpoint name =
        let path = Jobs.checkpoint_path jobs name in
        if Sys.file_exists path then
          write_file path
            (String.init (Random.State.int rng 60) (fun _ ->
                 Char.chr (1 + Random.State.int rng 255)))
      in
      let n = 200 in
      for i = 0 to n - 1 do
        let name = Printf.sprintf "job%d" i in
        (* at capacity the submission is shed with [error overloaded]:
           drain a slot and retry until accepted *)
        let rec submit attempts =
          if attempts > 2_000 then Alcotest.failf "%s never admitted" name;
          let response = drive (Printf.sprintf "BUILD %s %s 2KB" name xml) in
          if not (starts_with "ok build" response) then begin
            Thread.delay 0.002;
            submit (attempts + 1)
          end
        in
        submit 0;
        (* hostile interleaving against this job and a random earlier one *)
        let victim = Printf.sprintf "job%d" (Random.State.int rng (i + 1)) in
        (match Random.State.int rng 5 with
        | 0 -> kill_running victim
        | 1 -> corrupt_checkpoint victim
        | 2 -> ignore (drive ("CANCEL " ^ victim))
        | 3 -> ignore (drive "JOBS")
        | _ -> ());
        if Random.State.int rng 3 = 0 then Thread.delay 0.001
      done;
      settle ~patience:60. server;
      (* zero server exits: every job reached a terminal state and the
         supervisor answered everything above without raising *)
      let states = Hashtbl.create 8 in
      List.iter
        (fun (j : Jobs.job) ->
          let token = Jobs.state_token j.state in
          Hashtbl.replace states token (1 + Option.value ~default:0 (Hashtbl.find_opt states token));
          match j.state with
          | Jobs.Running _ | Jobs.Backoff _ ->
            Alcotest.failf "job %s still unsettled" j.name
          | Jobs.Done _ | Jobs.Failed _ | Jobs.Cancelled -> ())
        (Jobs.list jobs);
      Alcotest.(check int) "all 200 jobs tracked" n (List.length (Jobs.list jobs));
      Alcotest.(check bool) "some jobs completed" true
        (Hashtbl.mem states "done" || Hashtbl.mem states "done-degraded");
      (* every surviving snapshot in the catalog directory loads
         completely — kills and corrupt journals never publish a torn
         or partial synopsis *)
      let survivors =
        List.filter
          (fun f -> Filename.check_suffix f Catalog.snapshot_extension)
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check bool) "some snapshots survived" true (survivors <> []);
      List.iter
        (fun f ->
          match Serialize.load_res (Filename.concat dir f) with
          | Ok _ -> ()
          | Error fault ->
            Alcotest.failf "surviving snapshot %s unloadable: %s" f
              (Xmldoc.Fault.to_string fault))
        survivors;
      (* and the server still serves *)
      match Server.handle_line server "PING" with
      | "pong", false -> ()
      | response, _ -> Alcotest.failf "server unhealthy after chaos: %S" response)

let () =
  Alcotest.run "serve"
    [
      ( "catalog",
        [
          Alcotest.test_case "loads a directory" `Quick test_catalog_loads;
          Alcotest.test_case "quarantine keeps previous version" `Quick
            test_catalog_quarantines_and_keeps_previous;
          Alcotest.test_case "quarantine retry gated by fingerprint" `Quick
            test_catalog_quarantine_retry_gated_by_fingerprint;
          Alcotest.test_case "torn writes never load partially" `Quick
            test_catalog_torn_writes_never_partial;
          Alcotest.test_case "same-second same-size rewrite observed" `Quick
            test_catalog_same_second_same_size_rewrite;
          Alcotest.test_case "removal" `Quick test_catalog_removal;
        ] );
      ( "protocol",
        [ Alcotest.test_case "parse" `Quick test_protocol_parse ] );
      ( "end-to-end",
        [
          Alcotest.test_case "catalog, corruption, hot reload" `Quick
            test_serve_end_to_end;
          Alcotest.test_case "health readiness and drain" `Quick
            test_health_readiness;
          Alcotest.test_case "degradation over the wire" `Quick
            test_serve_degradation_over_channel;
        ] );
      ( "socket",
        [
          Alcotest.test_case "survives a client disconnecting mid-response"
            `Quick test_socket_survives_rude_client;
          Alcotest.test_case "HEALTH answers during an active drain" `Quick
            test_health_during_active_drain;
        ] );
      ( "stat",
        [
          Alcotest.test_case "quarantined names are reportable" `Quick
            test_stat_never_resident_quarantined;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "build job end to end" `Quick test_build_job_end_to_end;
          Alcotest.test_case "survives worker kills" `Quick
            test_build_job_survives_kills;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "600 mixed requests" `Quick test_chaos;
          Alcotest.test_case "200 build jobs under fire" `Slow test_job_chaos;
        ] );
    ]
