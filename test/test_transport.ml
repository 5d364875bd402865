(* The shared transport.  Outbound: the line reader driven step by step
   over socketpairs (every split of a short stream, pipelined lines, a
   deadline mid-line, both kinds of EOF), and end to end through the
   client and the coordinator against scripted servers: multi-MB
   ANSWER lines, EOF mapping, a send that must keep its deadline past
   the socket buffer, FETCH refused without desynchronizing the
   connection, a full listen backlog failing the dial, and a coordinator
   that sleeps, not spins, while its sole replica is slow.  Inbound:
   bounded admission, the shed line a full server and a full
   coordinator answer, a client that relays a shed its write lost to,
   and a drain that cuts off a straggler. *)

module Transport = Serve.Transport
module Client = Serve.Client
module Coordinator = Serve.Coordinator
module Server = Serve.Server

let with_temp_dir f =
  let dir = Filename.temp_file "tstransport" "" in
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

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s) : int)

let describe = function
  | `Deadline op -> "deadline " ^ op
  | `Closed -> "closed"
  | `Closed_mid_line -> "closed mid-line"
  | `Failed msg -> "failed " ^ msg

let read_line reader ~deadline =
  match Transport.read_line reader ~deadline with
  | Ok line -> Printf.sprintf "Ok %S" line
  | Error e -> describe e

(* ------------------------------------------------------------------ *)
(* The reader, step by step                                            *)
(* ------------------------------------------------------------------ *)

(* A socketpair whose reading end is non-blocking: [read_step] then
   answers [Ok None] instead of blocking once the written bytes are
   consumed, so every step is deterministic. *)
let with_pair f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock r;
  Fun.protect
    ~finally:(fun () ->
      Transport.close_quietly w;
      Transport.close_quietly r)
    (fun () -> f w (Transport.reader r))

(* every complete line the bytes written so far hold *)
let drain reader =
  let rec go acc steps =
    if steps = 0 then List.rev acc
    else
      match Transport.read_step reader with
      | Ok (Some line) -> go (line :: acc) (steps - 1)
      | Ok None -> go acc (steps - 1)
      | Error e -> Alcotest.failf "drain: %s" (describe e)
  in
  go [] 8

let stream = "ok one\r\n\nmid\rcr\n"

let test_every_split () =
  for k = 0 to String.length stream do
    with_pair (fun w reader ->
        write_all w (String.sub stream 0 k);
        let first = drain reader in
        write_all w (String.sub stream k (String.length stream - k));
        let rest = drain reader in
        Alcotest.(check (list string))
          (Printf.sprintf "lines, split at %d" k)
          [ "ok one"; ""; "mid\rcr" ] (first @ rest);
        Unix.shutdown w Unix.SHUTDOWN_SEND;
        match Transport.read_step reader with
        | Error `Closed -> ()
        | Error e -> Alcotest.failf "split at %d: %s at the end" k (describe e)
        | Ok _ -> Alcotest.failf "split at %d: no EOF after the last line" k)
  done

let test_two_lines_one_write () =
  with_pair (fun w reader ->
      write_all w "first\nsecond\n";
      let deadline = Unix.gettimeofday () +. 1.0 in
      let next () = read_line reader ~deadline in
      Alcotest.(check string) "first" {|Ok "first"|} (next ());
      Alcotest.(check string) "then the carried-over second" {|Ok "second"|} (next ()))

let test_deadline_mid_line () =
  with_pair (fun w reader ->
      write_all w "partial";
      let soon () = Unix.gettimeofday () +. 0.02 in
      Alcotest.(check string) "no newline yet" "deadline receive"
        (read_line reader ~deadline:(soon ()));
      write_all w " line\nnext";
      Alcotest.(check string) "the partial bytes were kept" {|Ok "partial line"|}
        (read_line reader ~deadline:(soon ()));
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      Alcotest.(check string) "EOF mid-line" "closed mid-line"
        (read_line reader ~deadline:(soon ())))

(* ------------------------------------------------------------------ *)
(* Scripted servers                                                    *)
(* ------------------------------------------------------------------ *)

(* A server at a fresh socket path that accepts one connection and hands
   [respond] the connection with its first request line.  It gives up
   after 5 s without a connection, so a failing test never leaves it
   blocked. *)
let with_scripted_server respond f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "scripted.sock" in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let serve () =
        match Unix.select [ sock ] [] [] 5.0 with
        | [], _, _ -> ()
        | _ ->
          let fd, _ = Unix.accept sock in
          (match input_line (Unix.in_channel_of_descr fd) with
          | line -> ( try respond fd line with Unix.Unix_error _ -> ())
          | exception End_of_file -> ());
          Unix.close fd
      in
      let th = Thread.create serve () in
      Fun.protect
        ~finally:(fun () ->
          Thread.join th;
          Unix.close sock)
        (fun () -> f path))

let one_attempt = { Client.default_config with attempts = 1 }

let ok what = function
  | Ok line -> line
  | Error e -> Alcotest.failf "%s: %s" what (Client.error_to_string e)

let test_client_eof_mapping () =
  let ask respond =
    with_scripted_server respond (fun path ->
        let c = Client.create ~config:one_attempt [ path ] in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            Client.request c "PING"))
  in
  (match ask (fun _ _ -> ()) with
  | Error (Client.Io "connection closed (attempt 1/1)") -> ()
  | Error e -> Alcotest.failf "EOF at a boundary: %s" (Client.error_to_string e)
  | Ok r -> Alcotest.failf "EOF at a boundary answered %S" r);
  match ask (fun fd _ -> write_all fd "pon") with
  | Error (Client.Bad_response "connection closed mid-line (attempt 1/1)") -> ()
  | Error e -> Alcotest.failf "EOF mid-line: %s" (Client.error_to_string e)
  | Ok r -> Alcotest.failf "EOF mid-line answered %S" r

(* ------------------------------------------------------------------ *)
(* Multi-MB ANSWER lines end to end                                    *)
(* ------------------------------------------------------------------ *)

let big_answer =
  lazy
    ("ok answer degraded=no truncated=no nodes=1 tree=<a>"
    ^ String.make (4 lsl 20) 'x'
    ^ "</a>")

(* the answer in uneven pieces, so lines straddle reads at odd offsets *)
let respond_big fd _line =
  let s = Lazy.force big_answer ^ "\r\n" in
  let rec go off =
    if off < String.length s then begin
      let n = min 100_003 (String.length s - off) in
      write_all fd (String.sub s off n);
      go (off + n)
    end
  in
  go 0

(* Reading must be linear: a reader that rescans its whole buffer after
   every read needs seconds for a 4 MiB line. *)
let check_big what elapsed response =
  Alcotest.(check bool)
    (what ^ " delivers the line byte for byte") true
    (response = Lazy.force big_answer);
  if elapsed > 2.0 then Alcotest.failf "%s took %.2fs for 4 MiB" what elapsed

let test_big_answer_client () =
  with_scripted_server respond_big (fun path ->
      let c = Client.create ~config:one_attempt [ path ] in
      let t0 = Unix.gettimeofday () in
      let response = ok "request" (Client.request c "ANSWER db //a") in
      let elapsed = Unix.gettimeofday () -. t0 in
      Client.close c;
      check_big "Client.request" elapsed response)

(* A sole replica that answers after 1 s: no hedge can ever launch, so
   the coordinator must sleep in [select] until the answer arrives
   rather than poll with a zero timeout. *)
let test_coordinator_waits_idle () =
  let answer = "ok query degraded=no est=1 classes=1 empty=no" in
  with_scripted_server
    (fun fd _ ->
      Thread.delay 1.0;
      write_all fd (answer ^ "\n"))
    (fun path ->
      let coord = Coordinator.create ~log:ignore [ path ] in
      let cpu () =
        let t = Unix.times () in
        t.Unix.tms_utime +. t.Unix.tms_stime
      in
      let before = cpu () in
      let response, _ = Coordinator.handle_line coord "QUERY db //a" in
      let spent = cpu () -. before in
      Alcotest.(check string) "the slow answer wins" answer response;
      if spent > 0.2 then
        Alcotest.failf "waiting 1 s for one replica cost %.2fs of CPU" spent)

let test_big_answer_coordinator () =
  with_scripted_server respond_big (fun path ->
      let coord = Coordinator.create ~log:ignore [ path ] in
      let t0 = Unix.gettimeofday () in
      let response, quit = Coordinator.handle_line coord "ANSWER db //a" in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "does not quit" false quit;
      check_big "Coordinator.handle_line" elapsed response)

(* ------------------------------------------------------------------ *)
(* A send keeps its deadline past the socket buffer                    *)
(* ------------------------------------------------------------------ *)

(* A 4 MB INGEST line to a listener that never accepts: the socket
   buffer fills and the rest of the send must give up at the deadline.
   The client runs in a forked child killed after 5 s, so a send that
   blocks fails this test instead of hanging the suite. *)
let test_send_deadline () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "deaf.sock" in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let line = "INGEST db <a>" ^ String.make 4_000_000 'x' ^ "</a>" in
      match Unix.fork () with
      | 0 ->
        let c =
          Client.create
            ~config:{ one_attempt with request_timeout = 0.3 }
            [ path ]
        in
        let t0 = Unix.gettimeofday () in
        let code =
          match Client.request c line with
          | Error (Client.Deadline _) ->
            if Unix.gettimeofday () -. t0 < 2.0 then 0 else 2
          | Error _ -> 3
          | Ok _ -> 4
        in
        Unix._exit code
      | pid ->
        let give_up = Unix.gettimeofday () +. 5.0 in
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when Unix.gettimeofday () < give_up ->
            Thread.delay 0.02;
            reap ()
          | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid : int * Unix.process_status);
            Alcotest.fail "the send was still blocked after 5 s"
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED 2 -> Alcotest.fail "Deadline came after 2 s"
          | _, Unix.WEXITED n -> Alcotest.failf "wanted a Deadline error (exit %d)" n
          | _, _ -> Alcotest.fail "the client child died on a signal"
        in
        Fun.protect ~finally:(fun () -> Unix.close sock) reap)

(* ------------------------------------------------------------------ *)
(* A full backlog is a failed dial                                     *)
(* ------------------------------------------------------------------ *)

(* A [listen 1] socket that never accepts queues two connects; a third
   finds the backlog full (EAGAIN).  Nothing was queued, so the dial
   must fail there — not hand back an unconnected descriptor whose
   first send fails with "Transport endpoint is not connected". *)
let test_full_backlog () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "full.sock" in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1;
      let dials = List.init 4 (fun _ -> Transport.connect ~timeout:0.2 path) in
      Fun.protect
        ~finally:(fun () ->
          List.iter (Result.iter Transport.close_quietly) dials;
          Unix.close sock)
        (fun () ->
          Alcotest.(check bool) "the first dial is queued" true
            (Result.is_ok (List.hd dials));
          List.iteri
            (fun i d ->
              if i >= 2 && Result.is_ok d then
                Alcotest.failf "dial %d past the backlog returned Ok" (i + 1))
            dials;
          let c = Client.create ~config:one_attempt [ path ] in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              match Client.request c "PING" with
              | Error (Client.Io msg) when String.starts_with ~prefix:"connect: " msg
                -> ()
              | Error e ->
                Alcotest.failf "wanted a connect failure, got %s"
                  (Client.error_to_string e)
              | Ok r -> Alcotest.failf "a full backlog answered %S" r)))

(* ------------------------------------------------------------------ *)
(* FETCH never desynchronizes a client connection                      *)
(* ------------------------------------------------------------------ *)

let test_fetch_refused () =
  with_temp_dir (fun dir ->
      let synopsis =
        Sketch.Stable.build (Xmldoc.Parser.of_string "<db><a/><b><a/></b></db>")
      in
      (match Sketch.Serialize.save_atomic (Filename.concat dir "db.ts") synopsis with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save: %s" (Xmldoc.Fault.to_string f));
      let sock = Filename.concat dir "fetch.sock" in
      let server = Serve.Server.create ~log:ignore dir in
      let th =
        Thread.create (fun () -> Serve.Server.serve_socket server ~path:sock) ()
      in
      let c =
        Client.create ~config:{ Client.default_config with attempts = 10 } [ sock ]
      in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          Serve.Server.request_drain server;
          Thread.join th)
        (fun () ->
          (* the first request also waits out the server's startup *)
          Alcotest.(check string) "server up" "pong"
            (ok "PING" (Client.request c "PING"));
          let r = ok "FETCH" (Client.request c "FETCH db") in
          Alcotest.(check bool)
            (Printf.sprintf "FETCH refused locally (%S)" r)
            true
            (String.length r > 17 && String.sub r 0 17 = "error bad-request");
          Alcotest.(check string) "the next request is in sync" "pong"
            (ok "PING" (Client.request c "PING"))))

(* ------------------------------------------------------------------ *)
(* The inbound half: admission, shedding, drain                        *)
(* ------------------------------------------------------------------ *)

let test_admission () =
  let a = Transport.Admission.create 2 in
  Alcotest.(check int) "capacity" 2 (Transport.Admission.capacity a);
  Alcotest.(check bool) "first" true (Transport.Admission.try_acquire a);
  Alcotest.(check bool) "second" true (Transport.Admission.try_acquire a);
  Alcotest.(check bool) "third shed" false (Transport.Admission.try_acquire a);
  Alcotest.(check int) "in flight" 2 (Transport.Admission.in_flight a);
  Transport.Admission.release a;
  Alcotest.(check bool) "slot freed" true (Transport.Admission.try_acquire a);
  Transport.Admission.release a;
  Transport.Admission.release a;
  Alcotest.(check int) "drained" 0 (Transport.Admission.in_flight a)

(* A blocking connection to a listener that may still be starting, as
   channels; a read that waits 5 s fails instead of hanging the suite. *)
let dial path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.02;
      go (tries - 1)
  in
  go 100

let ask (_, ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  input_line ic

let expect_eof what (_, ic, _) =
  match input_line ic with
  | exception End_of_file -> ()
  | line -> Alcotest.failf "%s: wanted EOF, read %S" what line
  | exception Sys_error e -> Alcotest.failf "%s: wanted EOF, got %s" what e

let hang_up (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

(* [f] runs while a served connection holds the listener's one slot. *)
let with_slot_held path f =
  let held = dial path in
  Fun.protect
    ~finally:(fun () -> hang_up held)
    (fun () ->
      Alcotest.(check string) "the held connection is served" "pong"
        (ask held "PING");
      f ())

let shed_line = "error overloaded 1 connections already in flight"

(* the next connection reads the shed line, then EOF *)
let check_shed what path =
  let shed = dial path in
  Fun.protect
    ~finally:(fun () -> hang_up shed)
    (fun () ->
      let _, ic, _ = shed in
      Alcotest.(check string) (what ^ ": the shed line") shed_line (input_line ic);
      expect_eof (what ^ " after the shed line") shed)

let test_shed_server () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "shed.sock" in
      let server =
        Server.create ~log:ignore
          ~config:{ Server.default_config with max_inflight = 1 }
          dir
      in
      let th = Thread.create (fun () -> Server.serve_socket server ~path) () in
      Fun.protect
        ~finally:(fun () ->
          Server.request_drain server;
          Thread.join th)
        (fun () ->
          with_slot_held path (fun () ->
              let errors () = (Server.stats server).errors in
              let before = errors () in
              check_shed "server" path;
              Alcotest.(check int) "the shed counts as an error" (before + 1)
                (errors ()))))

let test_shed_coordinator () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "coord.sock" in
      let coord =
        Coordinator.create ~log:ignore
          ~config:{ Coordinator.default_config with max_inflight = 1 }
          [ Filename.concat dir "absent.sock" ]
      in
      let th = Thread.create (fun () -> Coordinator.serve_socket coord ~path) () in
      Fun.protect
        ~finally:(fun () ->
          Coordinator.request_drain coord;
          Thread.join th)
        (fun () ->
          with_slot_held path (fun () -> check_shed "coordinator" path)))

(* A full listener in another process writes the shed line and closes
   before the client's request lands (in one process the client thread
   holds the runtime and writes first): the client must answer with the
   shed line rather than report its failed write. *)
let test_client_relays_shed () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "full.sock" in
      match Unix.fork () with
      | 0 ->
        (try
           let drain = Transport.drain_switch ~log:ignore in
           Transport.install_drain_signals drain;
           ignore
             (Transport.serve_connections (Transport.listen path) drain
                ~admission:(Transport.Admission.create 1) ~drain_deadline:0.5
                (fun _ -> ("pong", false))
               : int);
           Unix._exit 0
         with _ -> Unix._exit 99)
      | pid ->
        Fun.protect
          ~finally:(fun () ->
            Unix.kill pid Sys.sigterm;
            ignore (Unix.waitpid [] pid : int * Unix.process_status))
          (fun () ->
            with_slot_held path (fun () ->
                for i = 1 to 5 do
                  let c = Client.create ~config:one_attempt [ path ] in
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () ->
                      Alcotest.(check string)
                        (Printf.sprintf "request %d relays the shed" i)
                        shed_line
                        (ok "PING" (Client.request c "PING")))
                done)))

(* The listener on its own: an idle connection and one whose request
   outlives a 0.2 s drain deadline.  The drain must hand the idle one
   EOF, cut the straggler off and count it, and return promptly. *)
let test_drain_straggler () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "drain.sock" in
      let drain = Transport.drain_switch ~log:ignore in
      let slow_started = Atomic.make false in
      let handle line =
        if line = "SLOW" then begin
          Atomic.set slow_started true;
          Thread.delay 1.5
        end;
        (line, false)
      in
      let severed = Atomic.make (-1) in
      let listener = Transport.listen path in
      let th =
        Thread.create
          (fun () ->
            Atomic.set severed
              (Transport.serve_connections listener drain
                 ~admission:(Transport.Admission.create 4) ~drain_deadline:0.2
                 handle))
          ()
      in
      let idle = dial path and slow = dial path in
      Fun.protect
        ~finally:(fun () ->
          Transport.request_drain drain;
          Thread.join th;
          hang_up idle;
          hang_up slow)
        (fun () ->
          Alcotest.(check string) "the idle connection is served" "hello"
            (ask idle "hello");
          let _, _, oc = slow in
          output_string oc "SLOW\n";
          flush oc;
          let give_up = Unix.gettimeofday () +. 5.0 in
          while (not (Atomic.get slow_started)) && Unix.gettimeofday () < give_up do
            Thread.delay 0.01
          done;
          let t0 = Unix.gettimeofday () in
          Transport.request_drain drain;
          Thread.join th;
          let elapsed = Unix.gettimeofday () -. t0 in
          if elapsed > 0.7 then
            Alcotest.failf "the drain took %.2fs with a 0.2s deadline" elapsed;
          Alcotest.(check int) "one straggler severed" 1 (Atomic.get severed);
          Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path);
          expect_eof "the idle connection" idle;
          expect_eof "the straggler" slow))

(* ------------------------------------------------------------------ *)
(* Forked children and inherited connections                           *)
(* ------------------------------------------------------------------ *)

(* A socket server in this process over [dir], drained when [f]
   returns. *)
let with_socket_server ?config dir f =
  let path = Filename.concat dir "fork.sock" in
  let server = Server.create ~log:ignore ?config dir in
  let th = Thread.create (fun () -> Server.serve_socket server ~path) () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join th)
    (fun () -> f path)

(* Client connections without channels: this thread, blocked in
   [input_line] on a channel of its own while the server forks, would
   leave that channel locked in the child just like a server
   connection's. *)
let connect_raw path =
  let rec go tries =
    match Transport.connect ~timeout:5.0 path with
    | Ok fd -> (fd, Transport.reader fd)
    | Error _ when tries > 0 ->
      Thread.delay 0.02;
      go (tries - 1)
    | Error e -> Alcotest.failf "connect %s: %s" path e
  in
  go 100

let ask_raw (fd, r) line =
  let deadline = Unix.gettimeofday () +. 5.0 in
  match
    Result.bind (Transport.send fd (line ^ "\n") ~deadline) (fun () ->
        Transport.read_line r ~deadline)
  with
  | Ok response -> response
  | Error e -> Alcotest.failf "%s: %s" line (Transport.error_message e)

(* While one connection's thread sits in [input_line] holding its
   channel's lock, another connection's BUILD forks the job worker.
   The channel is garbage in the child; a child that finalized it
   would free a held lock and abort, every attempt. *)
let test_build_beside_idle_connection () =
  with_temp_dir (fun dir ->
      let xml = Filename.concat dir "imdb.xml" in
      Xmldoc.Printer.to_file xml
        (Datagen.Datasets.generate ~seed:7 ~scale:1.0 Datagen.Datasets.Imdb);
      with_socket_server dir (fun path ->
          let idle = connect_raw path and builder = connect_raw path in
          Fun.protect
            ~finally:(fun () ->
              Transport.close_quietly (fst idle);
              Transport.close_quietly (fst builder))
            (fun () ->
              Alcotest.(check string) "the idle connection is served" "pong"
                (ask_raw idle "PING");
              Alcotest.(check string) "build accepted"
                "ok build name=imdb state=running"
                (ask_raw builder (Printf.sprintf "BUILD imdb %s 32KB" xml));
              let give_up = Unix.gettimeofday () +. 60.0 in
              let rec poll () =
                let jobs = ask_raw builder "JOBS" in
                if
                  Unix.gettimeofday () < give_up
                  && not
                       (List.exists
                          (fun w -> List.mem w [ "imdb=done"; "imdb=failed" ])
                          (String.split_on_char ' ' jobs))
                then begin
                  Thread.delay 0.05;
                  poll ()
                end
                else jobs
              in
              Alcotest.(check string) "the build ends done" "ok jobs n=1 imdb=done"
                (poll ()))))

(* A pool worker respawned from one connection's thread must not keep
   another connection open: after QUIT, that client sees EOF at once. *)
let test_quit_eof_after_respawn () =
  with_temp_dir (fun dir ->
      (match
         Sketch.Serialize.save_atomic (Filename.concat dir "db.ts")
           (Sketch.Stable.build (Xmldoc.Parser.of_string "<db><a/><b><a/></b></db>"))
       with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save: %s" (Xmldoc.Fault.to_string f));
      let config =
        {
          Server.default_config with
          pool =
            {
              Serve.Pool.default_config with
              workers = 1;
              backoff_base = 0.01;
              chaos_marker = Some "CHAOS";
            };
        }
      in
      with_socket_server ~config dir (fun path ->
          let first = connect_raw path and second = connect_raw path in
          Fun.protect
            ~finally:(fun () ->
              Transport.close_quietly (fst first);
              Transport.close_quietly (fst second))
            (fun () ->
              Alcotest.(check string) "first served" "pong" (ask_raw first "PING");
              let crashed = ask_raw second "QUERY db //CHAOS:exit" in
              Alcotest.(check (option string)) "the worker dies"
                (Some "worker-crash") (Serve.Protocol.error_class crashed);
              (* the next query respawns the worker from this thread *)
              let answered = ask_raw second "QUERY db //a" in
              Alcotest.(check bool)
                (Printf.sprintf "respawned worker answers (%S)" answered)
                true
                (String.starts_with ~prefix:"ok query" answered);
              Alcotest.(check string) "bye" "bye" (ask_raw first "QUIT");
              match
                Transport.read_line (snd first) ~deadline:(Unix.gettimeofday () +. 1.0)
              with
              | Error `Closed -> ()
              | Error e ->
                Alcotest.failf "wanted EOF within 1s of bye, got %s"
                  (Transport.error_message e)
              | Ok line -> Alcotest.failf "wanted EOF, read %S" line)))

let () =
  Alcotest.run "transport"
    [
      ( "reader",
        [
          Alcotest.test_case "every split of a CRLF stream" `Quick test_every_split;
          Alcotest.test_case "two lines in one write" `Quick test_two_lines_one_write;
          Alcotest.test_case "deadline mid-line keeps the bytes" `Quick
            test_deadline_mid_line;
        ] );
      ( "client",
        [
          Alcotest.test_case "EOF at a boundary vs mid-line" `Quick
            test_client_eof_mapping;
          Alcotest.test_case "4 MiB answer" `Quick test_big_answer_client;
          Alcotest.test_case "send keeps its deadline" `Quick test_send_deadline;
          Alcotest.test_case "FETCH refused, connection in sync" `Quick
            test_fetch_refused;
          Alcotest.test_case "full backlog is a connect failure" `Quick
            test_full_backlog;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "4 MiB answer" `Quick test_big_answer_coordinator;
          Alcotest.test_case "slow sole replica costs no CPU" `Quick
            test_coordinator_waits_idle;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounded in-flight" `Quick test_admission ] );
      ( "listener",
        [
          Alcotest.test_case "a full server sheds" `Quick test_shed_server;
          Alcotest.test_case "a full coordinator sheds" `Quick
            test_shed_coordinator;
          Alcotest.test_case "the client relays a shed" `Quick
            test_client_relays_shed;
          Alcotest.test_case "drain cuts off a straggler" `Quick
            test_drain_straggler;
        ] );
      ( "fork",
        [
          Alcotest.test_case "a BUILD beside an idle connection" `Quick
            test_build_beside_idle_connection;
          Alcotest.test_case "QUIT sees EOF after a pool respawn" `Quick
            test_quit_eof_after_respawn;
        ] );
    ]
