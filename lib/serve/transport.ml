(* The outbound half of the line protocol: one dialer, one sender and
   one line reader for the client, the coordinator, peer repair and the
   query pool.  Callers keep their own error wording.  The Connect tap
   fires on every dial; Read/Write taps fire only where a caller passes
   [~tap] (peer repair), because plans aimed at a server's own reads of
   a socket path must not also stall the readers dialing that path. *)

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
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) -> (
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

let tap site path =
  Option.iter (fun path -> Xmldoc.Io_fault.tap site ~path) path

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
          tap Xmldoc.Io_fault.Write path;
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
    tap Xmldoc.Io_fault.Read r.path;
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
