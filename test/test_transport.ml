(* The shared outbound transport: the line reader driven step by step
   over socketpairs (every split of a short stream, pipelined lines, a
   deadline mid-line, both kinds of EOF), and end to end through the
   client and the coordinator against scripted servers: multi-MB
   ANSWER lines, EOF mapping, a send that must keep its deadline past
   the socket buffer, FETCH refused without desynchronizing the
   connection, a full listen backlog failing the dial, and a coordinator
   that sleeps, not spins, while its sole replica is slow. *)

module Transport = Serve.Transport
module Client = Serve.Client
module Coordinator = Serve.Coordinator

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
    ]
