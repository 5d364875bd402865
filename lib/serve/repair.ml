(* Peer snapshot repair: the pull side of anti-entropy.

   A member whose snapshot rotted in place (scrub quarantine) or
   diverged from the group (content-hash disagreement) pulls a clean
   copy from a peer over the ordinary line protocol: FETCH streams the
   raw file bytes in length-prefixed, CRC'd, hex-armoured chunks; the
   puller re-verifies every chunk, the whole-file checksum, AND a full
   parse-and-validate of the assembled bytes before installing them
   byte-identically via the atomic-rename writer — so content hashes
   converge exactly, and no failure mode (torn stream, lying peer,
   injected I/O fault, disk full) can ever publish a partial file.

   Wire format (the only multi-line response in the protocol):

     FETCH <name>
     ok fetch name=<n> bytes=<N> chunks=<k> crc=<8-hex>
     chunk <i> <rawlen> <8-hex crc of raw> <hex data>
     ...                                     (k chunk lines)
     end fetch

   Chunks are hex-armoured so the stream stays line-oriented (no byte
   of a snapshot can fake a newline), and individually checksummed so
   a tear is localised to the first bad line instead of surfacing as a
   whole-file mismatch after megabytes of transfer. *)

let chunk_bytes = 32768

(* ------------------------------------------------------------------ *)
(* Hex armour                                                          *)
(* ------------------------------------------------------------------ *)

let hex_encode s =
  let out = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents out

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Some (Bytes.to_string out)
      else
        match (digit s.[i], digit s.[i + 1]) with
        | Some hi, Some lo ->
          Bytes.set out (i / 2) (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        | _ -> None
    in
    go 0

let crc_hex s = Sketch.Crc32.to_hex (Sketch.Crc32.string s)

(* ------------------------------------------------------------------ *)
(* Framing (serving side)                                              *)
(* ------------------------------------------------------------------ *)

(* The whole FETCH response as one string (the server's writer appends
   the final newline).  The per-chunk Write taps make a torn stream
   injectable exactly where a real one would tear — mid-chunk — and the
   cap cuts a chunk's armour short, which the puller's per-chunk CRC
   rejects.

   The source file must stay in place for the whole stream: a snapshot
   deleted or replaced (new inode, via the atomic-rename publishers)
   while the chunks render means the bytes in hand no longer match what
   the catalog advertises — a puller installing them would immediately
   diverge again on the next hash census.  Re-stat before each chunk
   and abort with one clean [error fetch-gone] line instead of framing
   a stale stream. *)
let render_fetch ~path ~name text =
  let identity () =
    match
      Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Stat ~path;
      Unix.stat path
    with
    | st -> Some (st.Unix.st_ino, st.Unix.st_size)
    | exception (Unix.Unix_error _ | Sys_error _) -> None
  in
  let gone () =
    Protocol.error_line ~cls:"fetch-gone"
      (Printf.sprintf "snapshot %S was removed or replaced mid-stream" name)
  in
  match identity () with
  | None -> gone ()
  | Some initial ->
    let total = String.length text in
    let chunks = max 1 ((total + chunk_bytes - 1) / chunk_bytes) in
    let lines = Buffer.create (total * 2 + 256) in
    Buffer.add_string lines
      (Printf.sprintf "ok fetch name=%s bytes=%d chunks=%d crc=%s" name total
         chunks (crc_hex text));
    let rec chunk i =
      if i >= chunks then begin
        Buffer.add_string lines "\nend fetch";
        Buffer.contents lines
      end
      else if identity () <> Some initial then gone ()
      else begin
        let off = i * chunk_bytes in
        let len = min chunk_bytes (total - off) in
        let raw = String.sub text off len in
        Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write ~path;
        let armour = hex_encode raw in
        let armour =
          let keep =
            Xmldoc.Io_fault.cap Xmldoc.Io_fault.Write ~path (String.length armour)
          in
          if keep >= String.length armour then armour
          else String.sub armour 0 keep
        in
        Buffer.add_string lines
          (Printf.sprintf "\nchunk %d %d %s %s" i len (crc_hex raw) armour);
        chunk (i + 1)
      end
    in
    chunk 0

(* ------------------------------------------------------------------ *)
(* Transport (pull side)                                               *)
(* ------------------------------------------------------------------ *)

(* Dial [peer], send [line] and hand [k] a reader of the response's
   lines; the connection closes when [k] returns, and every error comes
   back prefixed with the peer.  The pull is the one outbound path with
   Read/Write fault taps (at the peer's path): chaos plans tear FETCH
   streams here. *)
let exchange ~timeout peer line k =
  match Transport.connect ~timeout peer with
  | Error e -> Error (peer ^ ": " ^ e)
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> Transport.close_quietly fd)
      (fun () ->
        let deadline = Unix.gettimeofday () +. timeout in
        let r = Transport.reader ~tap:peer fd in
        let next () =
          Result.map_error Transport.error_message (Transport.read_line r ~deadline)
        in
        Result.map_error
          (fun e -> peer ^ ": " ^ e)
          (match Transport.send ~tap:peer fd (line ^ "\n") ~deadline with
          | Error e -> Error (Transport.error_message e)
          | Ok () -> k next))

(* One request, one single-line response (HEALTH, LIST probing). *)
let request_line ~timeout peer line =
  exchange ~timeout peer line (fun next -> next ())

(* ------------------------------------------------------------------ *)
(* Header / chunk parsing (pull side)                                  *)
(* ------------------------------------------------------------------ *)

let kv prefix tok =
  if
    String.length tok > String.length prefix
    && String.sub tok 0 (String.length prefix) = prefix
  then Some (String.sub tok (String.length prefix) (String.length tok - String.length prefix))
  else None

let parse_fetch_header line =
  match String.split_on_char ' ' line with
  | [ "ok"; "fetch"; name; bytes; chunks; crc ] -> (
    match
      ( kv "name=" name,
        Option.bind (kv "bytes=" bytes) int_of_string_opt,
        Option.bind (kv "chunks=" chunks) int_of_string_opt,
        kv "crc=" crc )
    with
    | Some name, Some bytes, Some chunks, Some crc
      when bytes >= 0 && chunks >= 1 ->
      Ok (name, bytes, chunks, crc)
    | _ -> Error ("malformed fetch header: " ^ line)
  )
  | "error" :: _ -> Error line
  | _ -> Error ("malformed fetch header: " ^ line)

let parse_chunk ~index line =
  match String.split_on_char ' ' line with
  | [ "chunk"; i; rawlen; crc; armour ] -> (
    match (int_of_string_opt i, int_of_string_opt rawlen) with
    | Some i, Some rawlen when i = index && rawlen >= 0 -> (
      match hex_decode armour with
      | None -> Error (Printf.sprintf "chunk %d: bad hex armour" index)
      | Some raw ->
        if String.length raw <> rawlen then
          Error
            (Printf.sprintf "chunk %d: torn (%d of %d bytes)" index
               (String.length raw) rawlen)
        else if crc_hex raw <> crc then
          Error (Printf.sprintf "chunk %d: checksum mismatch" index)
        else Ok raw)
    | _ -> Error (Printf.sprintf "chunk %d: malformed chunk line" index))
  | _ -> Error (Printf.sprintf "chunk %d: expected a chunk line, got %S" index line)

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

(* Pull [name]'s raw snapshot bytes from [peer].  Every layer of the
   armour is checked — per-chunk length and CRC, chunk count, total
   length, whole-file CRC — then the assembled bytes must parse and
   validate as a snapshot ({!Scrub.verify_string}).  Only bytes that
   survive all of it are returned. *)
let fetch ?limits ~timeout peer name =
  exchange ~timeout peer ("FETCH " ^ name) (fun next ->
      match Result.bind (next ()) parse_fetch_header with
      | Error e -> Error e
      | Ok (fetched_name, bytes, chunks, crc) ->
        if fetched_name <> name then
          Error (Printf.sprintf "peer answered for %S" fetched_name)
        else begin
          let out = Buffer.create bytes in
          let rec pull i =
            if i >= chunks then
              match next () with
              | Ok "end fetch" -> Ok ()
              | Ok line -> Error (Printf.sprintf "expected end fetch, got %S" line)
              | Error e -> Error e
            else
              match Result.bind (next ()) (parse_chunk ~index:i) with
              | Error e -> Error e
              | Ok raw ->
                Buffer.add_string out raw;
                pull (i + 1)
          in
          match pull 0 with
          | Error e -> Error e
          | Ok () ->
            let text = Buffer.contents out in
            if String.length text <> bytes then
              Error
                (Printf.sprintf "torn fetch (%d of %d bytes)" (String.length text)
                   bytes)
            else if crc_hex text <> crc then Error "whole-file checksum mismatch"
            else (
              match Scrub.verify_string ?limits text with
              | Error f -> Error ("fetched bytes invalid: " ^ Xmldoc.Fault.to_string f)
              | Ok _ -> Ok text)
        end)

(* ------------------------------------------------------------------ *)
(* ENOSPC preflight + install                                          *)
(* ------------------------------------------------------------------ *)

(* Can the catalog directory hold [bytes] more?  Probed empirically —
   preallocate a staging file of that size and remove it — because the
   answer must come from the same filesystem, quota and fault-injection
   regime the real install will face.  [Error `No_space] is the repair
   deferral signal; anything else fails the attempt.

   [free]/[min_free] teach the preflight the server's hard disk
   watermark (see {!Write_pressure}): an install that would SUCCEED but
   push free space under the watermark is deferred too — repair must
   not consume the headroom the watermark exists to protect.  A probe
   returning [None] fails open, same as the watermark itself. *)
let preflight ?free ?(min_free = 0) dir ~bytes =
  match
    if min_free <= 0 then None
    else Option.bind free (fun probe -> probe ())
  with
  | Some avail when avail - bytes < min_free -> Error `No_space
  | Some _ | None -> (
  match Filename.temp_file ~temp_dir:dir ".treesketch-preflight" ".tmp" with
  | exception Sys_error m -> Error (`Io m)
  | tmp ->
    let block = Bytes.make 65536 '\000' in
    let result =
      match
        Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path:tmp;
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      with
      | exception Unix.Unix_error (e, _, _) -> Error (`Io (Unix.error_message e))
      | fd ->
        Fun.protect
          ~finally:(fun () -> Transport.close_quietly fd)
          (fun () ->
            let rec fill remaining =
              if remaining <= 0 then Ok ()
              else
                let want = min remaining (Bytes.length block) in
                match
                  Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write ~path:tmp;
                  let want' = Xmldoc.Io_fault.cap Xmldoc.Io_fault.Write ~path:tmp want in
                  if want' < want then raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp));
                  Unix.write fd block 0 want
                with
                | n when n < want ->
                  (* a short write outside injection is the kernel
                     saying the disk is full *)
                  Error `No_space
                | n -> fill (remaining - n)
                | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> Error `No_space
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill remaining
                | exception Unix.Unix_error (e, _, _) ->
                  Error (`Io (Unix.error_message e))
            in
            fill bytes)
    in
    (try
       Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Close ~path:tmp;
       Sys.remove tmp
     with Sys_error _ | Unix.Unix_error _ -> ());
    result)

let install ~dir ~name text =
  Sketch.Serialize.write_atomic
    (Filename.concat dir (name ^ Scrub.snapshot_extension))
    text

(* ------------------------------------------------------------------ *)
(* Peer census                                                         *)
(* ------------------------------------------------------------------ *)

(* A peer's per-synopsis identities, from its LIST line's
   [hashes=name:crc:fp,...] token. *)
let parse_hashes_token line =
  match Protocol.field "hashes" line with
  | None -> []
  | Some csv ->
    List.filter_map
      (fun item ->
        match String.split_on_char ':' item with
        | [ name; crc; fp ] -> Some (name, (crc, fp))
        | _ -> None)
      (String.split_on_char ',' csv)

let peer_hashes ~timeout peer =
  match request_line ~timeout peer "LIST" with
  | Error e -> Error e
  | Ok line ->
    if String.starts_with ~prefix:"ok " line then Ok (parse_hashes_token line)
    else Error (peer ^ ": " ^ line)

(* ------------------------------------------------------------------ *)
(* The repair pass                                                     *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Repaired of { name : string; peer : string; crc : string }
  | Deferred of { name : string; reason : string }
      (** ENOSPC preflight failed — try again when space frees up *)
  | Failed of { name : string; reason : string }

let outcome_name = function
  | Repaired { name; _ } | Deferred { name; _ } | Failed { name; _ } -> name

(* What a repair pass should pull, given the local view and each
   peer's census:

   - every locally quarantined name any peer still lists (our copy is
     known-bad; the fetch-side verification, not a vote, is the guard
     against a peer serving equal rot);
   - every name where at least two peers agree on a content identity
     the local catalog lacks or contradicts (a single peer's word
     cannot overrule a locally-clean copy — with one peer there is no
     quorum, so divergence repair simply stays off).

   Deletions are never propagated: a name only we hold is left alone.
   Returns [(name, candidate peers)] with agreeing peers first,
   name-sorted. *)
let plan ~local_hashes ~quarantined ~peer_census =
  let module M = Map.Make (String) in
  let local = List.fold_left (fun m (n, crc, _) -> M.add n crc m) M.empty local_hashes in
  let holders name =
    List.filter_map
      (fun (peer, listing) ->
        match List.assoc_opt name listing with
        | Some (crc, _) -> Some (peer, crc)
        | None -> None)
      peer_census
  in
  let quarantine_targets =
    List.filter_map
      (fun name ->
        match holders name with
        | [] -> None
        | hs ->
          (* prefer the majority identity among peers, if any *)
          let counts =
            List.fold_left
              (fun m (_, crc) -> M.add crc (1 + Option.value ~default:0 (M.find_opt crc m)) m)
              M.empty hs
          in
          let best_crc, _ =
            M.fold (fun crc n (bc, bn) -> if n > bn then (crc, n) else (bc, bn)) counts ("", 0)
          in
          let agreeing, others = List.partition (fun (_, crc) -> crc = best_crc) hs in
          Some (name, List.map fst (agreeing @ others)))
      quarantined
  in
  let divergence_targets =
    let all_names =
      List.sort_uniq String.compare
        (List.concat_map (fun (_, listing) -> List.map fst listing) peer_census)
    in
    List.filter_map
      (fun name ->
        if List.mem name quarantined then None
        else
          match holders name with
          | [] | [ _ ] -> None (* no quorum possible *)
          | hs ->
            let counts =
              List.fold_left
                (fun m (_, crc) ->
                  M.add crc (1 + Option.value ~default:0 (M.find_opt crc m)) m)
                M.empty hs
            in
            let best_crc, support =
              M.fold (fun crc n (bc, bn) -> if n > bn then (crc, n) else (bc, bn)) counts ("", 0)
            in
            if support < 2 then None
            else if M.find_opt name local = Some best_crc then None
            else
              Some (name, List.filter_map (fun (p, crc) -> if crc = best_crc then Some p else None) hs))
      all_names
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (quarantine_targets @ divergence_targets)

(* Pull one name from the first candidate peer that yields bytes
   surviving full verification, then preflight and install.  ENOSPC
   defers (the copy we could not write is still on the peers; nothing
   is lost by waiting), any other exhaustion fails. *)
let repair_one ?limits ?free ?min_free ~timeout ~dir name candidates =
  let rec try_peers last = function
    | [] -> Failed { name; reason = last }
    | peer :: rest -> (
      match fetch ?limits ~timeout peer name with
      | Error e -> try_peers e rest
      | Ok text -> (
        match preflight ?free ?min_free dir ~bytes:(String.length text) with
        | Error `No_space ->
          Deferred { name; reason = Printf.sprintf "no space for %d bytes" (String.length text) }
        | Error (`Io m) -> Failed { name; reason = "preflight: " ^ m }
        | Ok () -> (
          match install ~dir ~name text with
          | Error (Xmldoc.Fault.Io_error { message; _ })
            when (let lower = String.lowercase_ascii message in
                  let rec has i =
                    i + 8 <= String.length lower
                    && (String.sub lower i 8 = "no space" || has (i + 1))
                  in
                  has 0) ->
            Deferred { name; reason = message }
          | Error f -> Failed { name; reason = Xmldoc.Fault.to_string f }
          | Ok () -> Repaired { name; peer; crc = crc_hex text })))
  in
  try_peers "no peer holds it" candidates

(* One full anti-entropy pull: census the peers, plan, repair each
   target.  Peers that fail to answer LIST are simply absent from the
   census (and logged by the caller); a total census failure yields an
   empty plan, not an error — repair is opportunistic by design. *)
let sync ?limits ?free ?min_free ~timeout ~dir ~peers ~local_hashes ~quarantined
    () =
  let peer_census =
    List.filter_map
      (fun peer ->
        match peer_hashes ~timeout peer with
        | Ok listing -> Some (peer, listing)
        | Error _ -> None)
      peers
  in
  let targets = plan ~local_hashes ~quarantined ~peer_census in
  List.map
    (fun (name, candidates) ->
      repair_one ?limits ?free ?min_free ~timeout ~dir name candidates)
    targets
