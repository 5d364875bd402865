(* Both halves of the line protocol.  Outbound: one dialer, one sender
   and one line reader for the client, the coordinator, peer repair and
   the query pool; callers keep their own error wording.  The Connect
   tap fires on every dial; Read/Write taps fire only where a caller
   passes [~tap] (peer repair), because plans aimed at a server's own
   reads of a socket path must not also stall the readers dialing that
   path.  Inbound: one line loop, one listener and one drain switch for
   the server, the coordinator and the pool workers. *)

type error =
  [ `Deadline of string
  | `Closed
  | `Closed_mid_line
  | `Failed of string ]

let error_message = function
  | `Deadline op -> op ^ " deadline"
  | `Closed | `Closed_mid_line -> "connection closed"
  | `Failed msg -> msg

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect ~timeout path =
  match Xmldoc.Io_fault.tap Xmldoc.Io_fault.Connect ~path with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    Unix.set_nonblock fd;
    let fail msg =
      close_quietly fd;
      Error msg
    in
    (* EAGAIN is not "in progress": on AF_UNIX it means the listener's
       backlog is full and nothing was queued — a failed dial, so the
       caller treats it like any connect failure (nothing was sent) *)
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (EINPROGRESS, _, _) -> (
      (* wait for the connect to resolve, but never past the timeout *)
      match Unix.select [] [ fd ] [] timeout with
      | [], [], [] -> fail "connect timed out"
      | _ -> (
        match Unix.getsockopt_error fd with
        | None -> Ok fd
        | Some e -> fail (Unix.error_message e))
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))

(* Wait until one of [rd] is readable or [wr] writable; [op] names the
   step a passed deadline interrupts. *)
let rec wait op ~deadline rd wr =
  let budget = deadline -. Unix.gettimeofday () in
  if budget <= 0.0 then Error (`Deadline op)
  else
    match Unix.select rd wr [] budget with
    | [], [], _ -> Error (`Deadline op)
    | _ -> Ok ()
    | exception Unix.Unix_error (EINTR, _, _) -> wait op ~deadline rd wr
    | exception Unix.Unix_error (e, _, _) ->
      Error (`Failed ("select: " ^ Unix.error_message e))

(* [fault site] at [path], when a caller named one *)
let tap fault site = function Some path -> fault site ~path | None -> ()

let send ?tap:path fd data ~deadline =
  (* a blocking write would wait for the peer to take every byte *)
  Unix.set_nonblock fd;
  let len = String.length data in
  let rec go off =
    if off >= len then Ok ()
    else
      match wait "send" ~deadline [] [ fd ] with
      | Error e -> Error e
      | Ok () -> (
        match
          tap Xmldoc.Io_fault.tap Xmldoc.Io_fault.Write path;
          Unix.single_write_substring fd data off (len - off)
        with
        | n -> go (off + n)
        | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
          go off
        | exception Unix.Unix_error (e, _, _) ->
          Error (`Failed ("write: " ^ Unix.error_message e)))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The line reader                                                     *)
(* ------------------------------------------------------------------ *)

(* bytes asked of each read ([Unix.read] moves at most this many) *)
let chunk = 65536

type reader = {
  fd : Unix.file_descr;
  path : string option;  (* where the Read tap fires, if anywhere *)
  mutable buf : Bytes.t;
  mutable start : int;  (* first byte not yet handed back *)
  mutable stop : int;  (* end of the bytes read so far *)
  mutable scanned : int;  (* [start, scanned) holds no newline *)
}

let reader ?tap:path fd =
  { fd; path; buf = Bytes.empty; start = 0; stop = 0; scanned = 0 }

(* Move the unread bytes to the front of [buf]: a fresh buffer, or
   [r.buf] itself. *)
let move_to r buf =
  let live = r.stop - r.start in
  Bytes.blit r.buf r.start buf 0 live;
  r.buf <- buf;
  r.scanned <- r.scanned - r.start;
  r.start <- 0;
  r.stop <- live

(* The next buffered line, searching only bytes no earlier call has. *)
let take r =
  let rec scan i =
    if i >= r.stop then begin
      r.scanned <- i;
      None
    end
    else if Bytes.unsafe_get r.buf i <> '\n' then scan (i + 1)
    else begin
      let stop = if i > r.start && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string r.buf r.start (stop - r.start) in
      r.start <- i + 1;
      r.scanned <- i + 1;
      (* a buffer grown for a long line is not kept past it *)
      if Bytes.length r.buf > 4 * chunk then
        move_to r (Bytes.create (r.stop - r.start));
      Some line
    end
  in
  scan r.scanned

(* One read into room for a full [chunk]: slide the unread bytes to the
   front when that frees enough, else double the buffer. *)
let fill r =
  let cap = Bytes.length r.buf and live = r.stop - r.start in
  if cap - r.stop < chunk then
    move_to r
      (if cap - live >= chunk then r.buf
       else Bytes.create (max (live + chunk) (2 * cap)));
  match
    tap Xmldoc.Io_fault.tap Xmldoc.Io_fault.Read r.path;
    Unix.read r.fd r.buf r.stop chunk
  with
  | 0 -> Error (if r.stop > r.start then `Closed_mid_line else `Closed)
  | n ->
    r.stop <- r.stop + n;
    Ok ()
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (`Failed ("read: " ^ Unix.error_message e))

let read_line r ~deadline =
  let rec go () =
    match take r with
    | Some line -> Ok line
    | None ->
      Result.bind (wait "receive" ~deadline [ r.fd ] []) (fun () ->
          Result.bind (fill r) go)
  in
  go ()

let read_step r =
  match take r with
  | Some _ as line -> Ok line
  | None -> Result.map (fun () -> take r) (fill r)

(* ------------------------------------------------------------------ *)
(* The inbound half: drain switch, line loop, listener                 *)
(* ------------------------------------------------------------------ *)

(* Flipped by {!request_drain} (usually from a SIGTERM/SIGINT handler)
   and only ever false -> true; the accept loop, the line loops and
   HEALTH read it.  A plain mutable bool is enough: flag stores are
   atomic in OCaml, and every reader tolerates seeing the flip one
   iteration late. *)
type drain = { log : string -> unit; mutable draining : bool }

let drain_switch ~log = { log; draining = false }

let draining d = d.draining

let request_drain d =
  if not d.draining then begin
    d.draining <- true;
    d.log "event=drain-requested"
  end

(* Signal-handler-safe: [request_drain] only stores a flag and calls
   the log callback; the default stderr logger allocates, which OCaml
   handlers permit (they run between bytecode/native safepoints, not
   in async-signal context). *)
let install_drain_signals d =
  let handle = Sys.Signal_handle (fun _ -> request_drain d) in
  (try Sys.set_signal Sys.sigterm handle
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint handle
  with Invalid_argument _ | Sys_error _ -> ()

let serve_lines ?tap:path d handle ic oc =
  let rec loop () =
    if not d.draining then
      match
        tap Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Read path;
        input_line ic
      with
      (* EOF, a broken channel, or an injected I/O fault: drop the
         connection *)
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
      | line -> (
        let response, quit = handle line in
        (* a line that was read is always answered, drain or not *)
        match
          tap Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write path;
          output_string oc response;
          output_char oc '\n';
          flush oc
        with
        | () -> if not quit then loop ()
        | exception (Sys_error _ | Unix.Unix_error _) -> ())
  in
  loop ()

(* Lock-free: the read path samples [in_flight] as its queue depth on
   every QUERY and ANSWER. *)
module Admission = struct
  type t = { capacity : int; in_flight : int Atomic.t }

  let create capacity = { capacity; in_flight = Atomic.make 0 }

  let rec try_acquire a =
    let n = Atomic.get a.in_flight in
    n < a.capacity && (Atomic.compare_and_set a.in_flight n (n + 1) || try_acquire a)

  let rec release a =
    let n = Atomic.get a.in_flight in
    if n > 0 && not (Atomic.compare_and_set a.in_flight n (n - 1)) then release a

  let in_flight a = Atomic.get a.in_flight

  let capacity a = a.capacity
end

(* The process-wide registry of every listener's socket and live
   connections, each connection with its channels.  A child forked
   without exec inherits all of them: {!close_inherited} closes the
   descriptors, and the channels stay reachable from here, so the
   child's GC never finalizes a channel whose lock a connection thread
   held at the fork (that thread does not exist in the child, and
   freeing a held lock aborts the process).  The list is immutable and
   replaced whole under the lock, so the child reads it without the
   lock.  An entry leaves before its descriptor is closed: a child must
   never close a recycled descriptor number. *)
type registered = {
  fd : Unix.file_descr;
  owner : int;  (* the listener it belongs to *)
  channels : (in_channel * out_channel) option;  (* None: a listening socket *)
}

let registry_lock = Mutex.create ()
let registry : registered list ref = ref []

let register e = Mutex.protect registry_lock (fun () -> registry := e :: !registry)

let unregister fd =
  Mutex.protect registry_lock (fun () ->
      registry := List.filter (fun e -> e.fd <> fd) !registry)

let close_inherited () = List.iter (fun e -> close_quietly e.fd) !registry

type listener = { sock : Unix.file_descr; path : string; id : int }

let listener_ids = Atomic.make 0

let listen path =
  (* A client that disconnects mid-response must surface as a
     [Sys_error] (EPIPE) on the write — which the line loop catches —
     not as SIGPIPE, whose default action kills the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let id = Atomic.fetch_and_add listener_ids 1 in
  register { fd = sock; owner = id; channels = None };
  { sock; path; id }

let serve_connections { sock; path; id } d ~admission ~drain_deadline
    ?(on_shed = ignore) handle =
  let log fmt = Printf.ksprintf d.log fmt in
  (* this listener's live connections: drain shuts their receive sides
     down so threads blocked in [input_line] see EOF and exit, while
     responses still in flight go out on the untouched send sides *)
  let live_conns () =
    List.filter_map
      (fun e -> if e.owner = id && Option.is_some e.channels then Some e.fd else None)
      !registry
  in
  let connection (fd, ic, oc) =
    Fun.protect
      ~finally:(fun () ->
        Admission.release admission;
        unregister fd;
        close_quietly fd)
      (fun () -> serve_lines ~tap:path d handle ic oc)
  in
  let shed fd =
    (* shed load immediately rather than tying up a thread; a plain
       write, so there is no channel for a forked child to inherit *)
    let line =
      Protocol.error_line ~cls:"overloaded"
        (Printf.sprintf "%d connections already in flight"
           (Admission.capacity admission))
      ^ "\n"
    in
    (try ignore (Unix.write_substring fd line 0 (String.length line) : int)
     with Unix.Unix_error _ -> ());
    on_shed ();
    close_quietly fd
  in
  (* [select] with a short timeout rather than a bare blocking [accept]:
     the loop must notice the drain promptly even when no connection
     ever arrives and no signal happens to land on this thread. *)
  let rec accept_loop () =
    if not d.draining then begin
      (match
         Xmldoc.Io_fault.tap Xmldoc.Io_fault.Accept ~path;
         match Unix.select [ sock ] [] [] 0.2 with
         | [], _, _ -> None
         | _ :: _, _, _ -> Some (Unix.accept sock)
       with
      | None -> ()
      | Some (fd, _) ->
        if Admission.try_acquire admission then begin
          let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
          register { fd; owner = id; channels = Some (ic, oc) };
          ignore (Thread.create connection (fd, ic, oc) : Thread.t)
        end
        else shed fd
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) ->
        (* a signal landed, or the connection died before we got it:
           nothing to serve, keep listening *)
        ()
      | exception Unix.Unix_error (e, _, _) ->
        (* injected faults, fd or memory exhaustion, exotic errnos: log,
           back off briefly so in-flight connections can release
           descriptors, keep listening *)
        log "event=accept-error errno=%s" (Unix.error_message e);
        Thread.delay 0.05);
      accept_loop ()
    end
  in
  accept_loop ();
  (* 1. Stop accepting: close and unlink the listening socket so new
     connects fail fast (clients fail over to the next server). *)
  unregister sock;
  close_quietly sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  log "event=draining inflight=%d deadline=%.1fs"
    (Admission.in_flight admission) drain_deadline;
  (* 2. Let in-flight work finish: shut down the receive side of every
     live connection — threads parked in [input_line] wake with EOF,
     already-read requests still get their responses on the send side —
     then wait for them to close, bounded by the drain deadline. *)
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (live_conns ());
  let give_up = Unix.gettimeofday () +. drain_deadline in
  while Admission.in_flight admission > 0 && Unix.gettimeofday () < give_up do
    Thread.delay 0.02
  done;
  (* 3. Past the deadline, sever what remains rather than hang. *)
  let stragglers = live_conns () in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  if stragglers <> [] then Thread.delay 0.1;
  List.length stragglers
