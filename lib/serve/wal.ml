(* Per-synopsis write-ahead log: the durability floor of INGEST.

   One hidden file per synopsis ([.<name>.wal] — dot-prefixed and not
   [.ts]-suffixed, so the catalog scan and the scrubber's snapshot walk
   never mistake it for a snapshot).  Records are CRC-framed.  Inserts
   keep the original (v1) frame, so an insert-only log is byte-identical
   to what earlier servers wrote and old logs replay unchanged:

     rec <seq> <ts> <len> <8-hex crc>\n
     <len payload bytes>\n

   Deletions and updates (v2) use a sibling header carrying the
   operation kind; a v1 replayer would treat the first [mut] frame as a
   tear, which is exactly the safe failure mode (truncate, lose nothing
   acked by a v1 server):

     mut <seq> <ts> <del|upd> <len> <8-hex crc>\n
     <len payload bytes>\n

   An append is not acknowledged until the frame is written AND fsynced
   through the {!Xmldoc.Io_fault} taps, so an acknowledged record
   survives any kill.  A crash mid-append leaves a torn tail — a
   malformed header, a payload cut short, a checksum mismatch — which
   replay truncates back to the last intact frame; everything before
   the tear is intact by construction (frames are only ever appended).

   Sequence numbers are assigned by the caller (the ingest engine) and
   must be strictly increasing; replay treats a regression the same as
   a tear, so a corrupted middle can never smuggle stale records past
   the exactly-once filter. *)

type op = Insert | Delete | Update

type record = {
  seq : int;
  ts : float;  (* arrival wall-clock, for staleness bounds *)
  op : op;
  payload : string;
}

let file_suffix = ".wal"

let path ~dir ~name = Filename.concat dir ("." ^ name ^ file_suffix)

(* [Some name] iff [file] is a WAL file name. *)
let wal_name file =
  if
    String.length file > 1 + String.length file_suffix
    && file.[0] = '.'
    && Filename.check_suffix file file_suffix
  then Some (String.sub file 1 (String.length file - 1 - String.length file_suffix))
  else None

let op_token = function Insert -> "ins" | Delete -> "del" | Update -> "upd"

let op_of_token = function
  | "ins" -> Some Insert
  | "del" -> Some Delete
  | "upd" -> Some Update
  | _ -> None

let frame r =
  let crc = Sketch.Crc32.to_hex (Sketch.Crc32.string r.payload) in
  match r.op with
  | Insert ->
    Printf.sprintf "rec %d %.6f %d %s\n%s\n" r.seq r.ts
      (String.length r.payload) crc r.payload
  | Delete | Update ->
    Printf.sprintf "mut %d %.6f %s %d %s\n%s\n" r.seq r.ts (op_token r.op)
      (String.length r.payload) crc r.payload

let render records = String.concat "" (List.map frame records)

(* Parse [text] into (intact records, byte length of the intact prefix,
   torn).  Total: any malformed or out-of-order frame ends the parse at
   the frame's start offset — the truncation point replay repairs to. *)
let parse text =
  let len = String.length text in
  let records = ref [] in
  let good = ref 0 in
  let torn = ref false in
  let pos = ref 0 in
  let prev_seq = ref min_int in
  (try
     while !pos < len do
       let start = !pos in
       let tear () =
         torn := true;
         raise Exit
       in
       match String.index_from_opt text start '\n' with
       | None -> tear ()
       | Some nl -> (
         let header = String.sub text start (nl - start) in
         (* both header forms share a tail of (len, crc) preceded by a
            seq/ts prefix; [mut] carries the op token in between *)
         let fields =
           match String.split_on_char ' ' header with
           | [ "rec"; seq; ts; plen; crc ] -> Some (seq, ts, Insert, plen, crc)
           | [ "mut"; seq; ts; op; plen; crc ] -> (
             match op_of_token op with
             | Some ((Delete | Update) as op) -> Some (seq, ts, op, plen, crc)
             | Some Insert | None -> None)
           | _ -> None
         in
         match fields with
         | None -> tear ()
         | Some (seq, ts, op, plen, crc) -> (
           match
             ( int_of_string_opt seq,
               float_of_string_opt ts,
               int_of_string_opt plen,
               Sketch.Crc32.of_hex crc )
           with
           | Some seq, Some ts, Some plen, Some declared
             when plen >= 0 && seq > !prev_seq ->
             (* payload + its trailing newline must be fully present *)
             if nl + 1 + plen + 1 > len then tear ()
             else begin
               let payload = String.sub text (nl + 1) plen in
               if text.[nl + 1 + plen] <> '\n' then tear ()
               else if not (Int32.equal declared (Sketch.Crc32.string payload))
               then tear ()
               else begin
                 prev_seq := seq;
                 records := { seq; ts; op; payload } :: !records;
                 pos := nl + 1 + plen + 1;
                 good := !pos
               end
             end
           | _ -> tear ()))
     done
   with Exit -> ());
  (List.rev !records, !good, !torn)

type t = {
  wal_path : string;
  mutable fd : Unix.file_descr option;
  mutable bytes : int;
      (* bytes of intact log on disk — the write-pressure controller's
         "WAL outstanding" signal, maintained without stat calls *)
}

(* Read-only verification (the scrubber, [treesketch verify]): parse
   without repairing.  A torn tail is data, not failure — replay will
   truncate it; only an unreadable (or missing) file is an error.  A
   short read observes a prefix: indistinguishable from a torn tail,
   and handled identically by the parser. *)
let scan ?limits path =
  Result.map
    (fun text ->
      let records, _, torn = parse text in
      (records, torn))
    (Xmldoc.Io_fault.read_file ?limits path)

let open_ ?limits ~dir ~name () =
  let wal_path = path ~dir ~name in
  let replayed =
    if Sys.file_exists wal_path then
      match Xmldoc.Io_fault.read_file ?limits wal_path with
      | Error f -> Error f
      | Ok text ->
        let records, good, torn = parse text in
        if torn then begin
          (* truncate the tear away so appends never land after garbage *)
          match Unix.openfile wal_path [ Unix.O_WRONLY ] 0o666 with
          | fd ->
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () -> Unix.ftruncate fd good);
            Ok (records, good, true)
          | exception Unix.Unix_error (e, fn, _) ->
            Error
              (Xmldoc.Fault.Io_error
                 {
                   path = wal_path;
                   message = fn ^ ": " ^ Unix.error_message e;
                 })
        end
        else Ok (records, good, false)
    else Ok ([], 0, false)
  in
  match replayed with
  | Error f -> Error f
  | Ok (records, good, torn) -> (
    match
      Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path:wal_path;
      Unix.openfile wal_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o666
    with
    | fd -> Ok ({ wal_path; fd = Some fd; bytes = good }, records, torn)
    | exception Unix.Unix_error (e, fn, _) ->
      Error
        (Xmldoc.Fault.Io_error
           { path = wal_path; message = fn ^ ": " ^ Unix.error_message e }))

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.fd <- None

let wal_path t = t.wal_path

let bytes t = t.bytes

(* Append one frame and make it durable.  A short write (disk full
   caught mid-frame) or an explicit ENOSPC rolls the file back to the
   pre-append length and reports [`No_space] — the caller defers the
   ingest, and the log never contains the tear we just created.  Any
   other failure also rolls back, as a structured fault.

   The pre-append length must be known before anything is written: if
   it cannot be established the append fails fast WITHOUT writing,
   because a rollback to a guessed base could truncate acknowledged
   records (a base of 0 would wipe the whole log). *)
let append t record =
  match t.fd with
  | None ->
    Error (`Fault (Xmldoc.Fault.Io_error { path = t.wal_path; message = "wal closed" }))
  | Some fd -> (
    let text = frame record in
    let len = String.length text in
    match Unix.lseek fd 0 Unix.SEEK_END with
    | exception Unix.Unix_error (e, fn, _) ->
      Error
        (`Fault
          (Xmldoc.Fault.Io_error
             { path = t.wal_path; message = fn ^ ": " ^ Unix.error_message e }))
    | base -> (
      let rollback () = try Unix.ftruncate fd base with Unix.Unix_error _ -> () in
      match
        Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write ~path:t.wal_path;
        let n = Xmldoc.Io_fault.cap Xmldoc.Io_fault.Write ~path:t.wal_path len in
        let bytes = Bytes.of_string text in
        let rec write off =
          if off < n then write (off + Unix.write fd bytes off (n - off))
        in
        write 0;
        if n < len then raise (Unix.Unix_error (Unix.ENOSPC, "write", t.wal_path));
        (* the acknowledgement contract: durable before acked *)
        Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Fsync ~path:t.wal_path;
        Unix.fsync fd
      with
      | () ->
        t.bytes <- base + len;
        Ok ()
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) ->
        rollback ();
        Error `No_space
      | exception Unix.Unix_error (e, fn, _) ->
        rollback ();
        Error
          (`Fault
            (Xmldoc.Fault.Io_error
               { path = t.wal_path; message = fn ^ ": " ^ Unix.error_message e }))
      | exception Sys_error message ->
        rollback ();
        Error (`Fault (Xmldoc.Fault.Io_error { path = t.wal_path; message }))))

(* Replace the log's contents with exactly [records] — how the engine
   discards flushed records after the manifest swap committed them.
   Atomic (write-temp-rename through {!Sketch.Serialize.write_atomic}),
   so a crash mid-trim leaves either the old log (replay skips the
   already-flushed records via the manifest's flushed sequence) or the
   new one; never a tear. *)
let rewrite t records =
  let text = render records in
  match Sketch.Serialize.write_atomic t.wal_path text with
  | Error f -> Error f
  | Ok () -> (
    close t;
    match
      Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path:t.wal_path;
      Unix.openfile t.wal_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o666
    with
    | fd ->
      t.fd <- Some fd;
      t.bytes <- String.length text;
      Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
      Error
        (Xmldoc.Fault.Io_error
           { path = t.wal_path; message = fn ^ ": " ^ Unix.error_message e }))
