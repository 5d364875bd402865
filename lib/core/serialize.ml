let render ~version ?(meta = []) (s : Synopsis.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "treesketch %d\n" version);
  List.iter
    (fun (key, value) ->
      if String.contains key ' ' || String.contains value '\n' then
        invalid_arg "Serialize: metadata keys/values must be line-safe";
      Buffer.add_string buf (Printf.sprintf "meta %s %s\n" key value))
    meta;
  Buffer.add_string buf (Printf.sprintf "root %d\n" s.root);
  Array.iteri
    (fun i n ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %.17g %s\n" i n.Synopsis.count
           (Xmldoc.Label.to_string n.Synopsis.label)))
    s.nodes;
  Array.iteri
    (fun i n ->
      Array.iter
        (fun (t, k) -> Buffer.add_string buf (Printf.sprintf "edge %d %d %.17g\n" i t k))
        n.Synopsis.edges)
    s.nodes;
  Buffer.contents buf

let to_string s = render ~version:1 s

let with_crc body = body ^ "crc " ^ Crc32.to_hex (Crc32.string body) ^ "\n"

let to_snapshot_string s = with_crc (render ~version:2 s)

(* Version 3 = version 2 plus [meta] records between the header and the
   root — the carrier of build-checkpoint metadata (source fingerprint,
   target budget, params hash, merges applied). *)
let to_checkpoint_string ~meta s = with_crc (render ~version:3 ~meta s)

(* Structured parse failure carrier, converted to [Fault.t] at the
   entry-point boundary. *)
exception Corrupt of { line : int; content : string; message : string }

let corrupt ~line ~content fmt =
  Printf.ksprintf (fun message -> raise (Corrupt { line; content; message })) fmt

let of_string_exn (limits : Xmldoc.Limits.t) text =
  let start = Xmldoc.Limits.now () in
  let lines = String.split_on_char '\n' text in
  let root = ref (-1) in
  let version = ref 0 in
  let root_seen = ref false in
  (* Some (declared checksum, byte offset of the crc line): set once
     the trailer is seen, after which only blank lines may follow. *)
  let crc_at = ref None in
  let meta = ref [] in
  let nodes : (int, Xmldoc.Label.t * float) Hashtbl.t = Hashtbl.create 256 in
  let edges : (int, (int * float) list ref) Hashtbl.t = Hashtbl.create 256 in
  let parse_line lineno offset line =
    let fail fmt = corrupt ~line:lineno ~content:line fmt in
    let int_field what s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail "%s %S is not an integer" what s
    in
    let float_field what s =
      match float_of_string_opt s with
      | Some v -> v
      | None -> fail "%s %S is not a number" what s
    in
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] | [] -> ()
    | _ when !crc_at <> None ->
      (* A snapshot ends at its crc trailer; any record after it is a
         torn or concatenated write. *)
      fail "trailing garbage after the crc trailer"
    | [ "treesketch"; ("1" | "2" | "3") ] when !version <> 0 ->
      fail "duplicate header (concatenated snapshots?)"
    | [ "treesketch"; "1" ] -> version := 1
    | [ "treesketch"; "2" ] -> version := 2
    | [ "treesketch"; "3" ] -> version := 3
    | "treesketch" :: v -> fail "unsupported format version %S" (String.concat " " v)
    | "meta" :: key :: value_words ->
      if !version <> 3 then fail "meta record outside a version-3 checkpoint";
      if List.mem_assoc key !meta then fail "duplicate meta key %S" key;
      meta := (key, String.concat " " value_words) :: !meta
    | [ "meta" ] -> fail "meta record without a key"
    | [ "root"; id ] ->
      if !root_seen then fail "duplicate root record";
      root_seen := true;
      root := int_field "root id" id
    | [ "crc"; hex ] ->
      if !version < 2 then fail "crc trailer outside a snapshot (version >= 2)";
      (match Crc32.of_hex hex with
      | None -> fail "checksum %S is not 8 hex digits" hex
      | Some declared -> crc_at := Some (declared, offset))
    | "node" :: id :: count :: label_words ->
      let id = int_field "node id" id in
      if id < 0 then fail "negative node id %d" id;
      if Hashtbl.mem nodes id then fail "duplicate node id %d" id;
      if Hashtbl.length nodes >= limits.max_elements then
        raise
          (Xmldoc.Fault.Fault
             (Limit_exceeded
                {
                  what = "nodes";
                  actual = Hashtbl.length nodes + 1;
                  limit = limits.max_elements;
                }));
      let label = String.concat " " label_words in
      if label = "" then fail "node %d: empty label" id;
      Hashtbl.add nodes id (Xmldoc.Label.of_string label, float_field "node count" count)
    | [ "edge"; from; into; avg ] ->
      let from = int_field "edge source" from in
      let entry = (int_field "edge target" into, float_field "edge average" avg) in
      (match Hashtbl.find_opt edges from with
      | Some l -> l := entry :: !l
      | None -> Hashtbl.add edges from (ref [ entry ]))
    | word :: _ -> fail "unknown record %S" word
  in
  let offset = ref 0 in
  List.iteri
    (fun i line ->
      if i land 4095 = 0 && Xmldoc.Limits.expired limits then
        raise
          (Xmldoc.Fault.Fault
             (Deadline
                {
                  stage = "synopsis load";
                  elapsed = Xmldoc.Limits.now () -. start;
                }));
      parse_line (i + 1) !offset line;
      offset := !offset + String.length line + 1)
    lines;
  let whole fmt = corrupt ~line:0 ~content:"" fmt in
  (* Version-2/3 snapshots carry a mandatory checksum trailer; a missing
     trailer is the signature of a write cut short, a mismatch that of
     in-place corruption.  Either way: reject, never a partial load. *)
  if !version >= 2 then begin
    match !crc_at with
    | None -> whole "missing crc trailer (snapshot truncated mid-write?)"
    | Some (declared, at) ->
      let actual = Crc32.update 0l text 0 at in
      if not (Int32.equal declared actual) then
        whole "checksum mismatch: trailer says %s, content hashes to %s"
          (Crc32.to_hex declared) (Crc32.to_hex actual)
  end;
  let n = Hashtbl.length nodes in
  if n = 0 then whole "no node records";
  if !root < 0 || !root >= n then whole "missing or bad root %d (have %d nodes)" !root n;
  let node_arr =
    Array.init n (fun i ->
        match Hashtbl.find_opt nodes i with
        | None -> whole "missing node %d (ids must be dense 0..%d)" i (n - 1)
        | Some (label, count) ->
          let edges =
            match Hashtbl.find_opt edges i with
            | Some l -> Array.of_list !l
            | None -> [||]
          in
          { Synopsis.label; count; edges })
  in
  Hashtbl.iter
    (fun from _ ->
      if from < 0 || from >= n then whole "edge source %d out of range [0,%d)" from n)
    edges;
  let s =
    try Synopsis.make ~root:!root node_arr
    with Invalid_argument msg -> whole "%s" msg
  in
  (match Synopsis.validate s with
  | Ok () -> ()
  | Error msg -> whole "%s" msg);
  (s, List.rev !meta)

let of_string_meta_res ?(limits = Xmldoc.Limits.default) text =
  if String.length text > limits.max_bytes then
    Error
      (Xmldoc.Fault.Limit_exceeded
         { what = "bytes"; actual = String.length text; limit = limits.max_bytes })
  else
    match of_string_exn limits text with
    | s_meta -> Ok s_meta
    | exception Corrupt { line; content; message } ->
      Error (Xmldoc.Fault.Corrupt_synopsis { line; content; message })
    | exception Xmldoc.Fault.Fault f -> Error f

let of_string_res ?limits text =
  Result.map fst (of_string_meta_res ?limits text)

let of_string ?limits text =
  match of_string_res ?limits text with
  | Ok s -> s
  | Error f -> failwith (Xmldoc.Fault.to_string f)

let save path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string s))

let write_atomic path text =
  match
    let dir = Filename.dirname path in
    Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path;
    let tmp = Filename.temp_file ~temp_dir:dir ".treesketch" ".tmp" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write ~path:tmp;
            (* An injected short write is a full disk caught mid-line:
               the prefix lands in the temp file, the error aborts the
               save before the rename, and the [finally] above removes
               the tear — readers never see it. *)
            let len = String.length text in
            let n = Xmldoc.Io_fault.cap Xmldoc.Io_fault.Write ~path:tmp len in
            output_substring oc text 0 n;
            flush oc;
            if n < len then raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp));
            (* Data must be durable before the rename publishes it:
               otherwise a crash could leave the *renamed* file empty,
               which is exactly the torn state the format exists to
               prevent. *)
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Fsync ~path:tmp;
            Unix.fsync (Unix.descr_of_out_channel oc);
            (* Closing a written file is the last syscall that can still
               lose the data (NFS, quota accounting): fail here and the
               [finally] above removes the temp before anything was
               published. *)
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Close ~path:tmp);
        (* [Filename.temp_file] creates 0600 files; publishing one as
           the snapshot would tighten its mode relative to [save],
           whose files get the usual umask-derived 0666.  Re-apply the
           umask-derived mode before the rename. *)
        let mask = Unix.umask 0 in
        ignore (Unix.umask mask : int);
        Unix.chmod tmp (0o666 land lnot mask);
        (* Atomic publish: readers see the old snapshot or the new one,
           never a prefix. *)
        Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Rename ~path;
        Sys.rename tmp path;
        (* Persist the directory entry too (best-effort: some systems
           refuse fsync on directories). *)
        match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
        | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
  with
  | () -> Ok ()
  | exception Sys_error message -> Error (Xmldoc.Fault.Io_error { path; message })
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Xmldoc.Fault.Io_error { path; message = fn ^ ": " ^ Unix.error_message e })

let save_atomic ?meta path s =
  let text =
    match meta with
    | None -> to_snapshot_string s
    | Some meta -> to_checkpoint_string ~meta s
  in
  write_atomic path text

(* ------------------------------------------------------------------ *)
(* Version 4: ladder snapshots                                          *)
(* ------------------------------------------------------------------ *)

(* A ladder snapshot holds several budget tiers of the same synopsis in
   one file: a checksummed manifest (header + one [tier] record per
   member + [crc] trailer) followed by the concatenated version-2
   snapshot payloads, each a complete snapshot with its own trailer and
   additionally pinned by the [crc=] declared in the manifest.  The
   framing parser never touches versions 1-3: those go through
   [of_string_exn] unchanged. *)

let ladder_header = "treesketch 4"

let is_ladder_text text =
  String.length text >= String.length ladder_header
  && String.sub text 0 (String.length ladder_header) = ladder_header
  && (String.length text = String.length ladder_header
     || text.[String.length ladder_header] = '\n')

let to_ladder_string tiers =
  (match tiers with
  | [] -> invalid_arg "Serialize.to_ladder_string: empty ladder"
  | _ -> ());
  let prev = ref max_int in
  List.iter
    (fun (budget, _) ->
      if budget <= 0 then
        invalid_arg "Serialize.to_ladder_string: tier budgets must be positive";
      if budget >= !prev then
        invalid_arg
          "Serialize.to_ladder_string: tier budgets must strictly decrease \
           (finest first)";
      prev := budget)
    tiers;
  let payloads = List.map (fun (_, s) -> to_snapshot_string s) tiers in
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest (ladder_header ^ "\n");
  List.iteri
    (fun i ((budget, _), payload) ->
      Buffer.add_string manifest
        (Printf.sprintf "tier %d budget=%d bytes=%d crc=%s\n" i budget
           (String.length payload)
           (Crc32.to_hex (Crc32.string payload))))
    (List.combine tiers payloads);
  with_crc (Buffer.contents manifest) ^ String.concat "" payloads

let save_ladder_atomic path tiers = write_atomic path (to_ladder_string tiers)

(* Manifest grammar: [tier <i> budget=<b> bytes=<n> crc=<hex>] records
   with dense indexes, strictly decreasing budgets, then a [crc] line
   over the manifest prefix; payload bytes follow immediately after. *)
let of_ladder_string_exn (limits : Xmldoc.Limits.t) text =
  let len = String.length text in
  let pos = ref 0 in
  let lineno = ref 0 in
  let line_start = ref 0 in
  let next_line () =
    if !pos >= len then None
    else begin
      incr lineno;
      line_start := !pos;
      let nl =
        match String.index_from_opt text !pos '\n' with
        | Some nl -> nl
        | None -> len
      in
      let line = String.sub text !pos (nl - !pos) in
      pos := if nl = len then len else nl + 1;
      Some line
    end
  in
  (match next_line () with
  | Some l when l = ladder_header -> ()
  | Some l -> corrupt ~line:1 ~content:l "ladder header expected, got %S" l
  | None -> corrupt ~line:0 ~content:"" "empty ladder snapshot");
  (* (budget, bytes, crc) per tier, reverse order while scanning *)
  let tiers = ref [] in
  let ntiers = ref 0 in
  let rec manifest () =
    match next_line () with
    | None ->
      corrupt ~line:0 ~content:""
        "missing crc trailer in ladder manifest (snapshot truncated \
         mid-write?)"
    | Some line -> (
      let fail fmt = corrupt ~line:!lineno ~content:line fmt in
      let kv what prefix s =
        if
          String.length s > String.length prefix
          && String.sub s 0 (String.length prefix) = prefix
        then String.sub s (String.length prefix)
               (String.length s - String.length prefix)
        else fail "%s field expected, got %S" what s
      in
      let int_kv what prefix s =
        match int_of_string_opt (kv what prefix s) with
        | Some v -> v
        | None -> fail "%s %S is not an integer" what s
      in
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] | [] -> manifest ()
      | [ "crc"; hex ] -> (
        match Crc32.of_hex hex with
        | None -> fail "checksum %S is not 8 hex digits" hex
        | Some declared ->
          let actual = Crc32.update 0l text 0 !line_start in
          if not (Int32.equal declared actual) then
            fail "ladder manifest checksum mismatch: trailer says %s, \
                  content hashes to %s"
              (Crc32.to_hex declared) (Crc32.to_hex actual))
      | [ "tier"; idx; budget; bytes; crc ] ->
        let idx = match int_of_string_opt idx with
          | Some v -> v
          | None -> fail "tier index %S is not an integer" idx
        in
        if idx <> !ntiers then
          fail "tier index %d out of order (expected %d)" idx !ntiers;
        let budget = int_kv "tier budget" "budget=" budget in
        if budget <= 0 then fail "tier %d: non-positive budget %d" idx budget;
        (match !tiers with
        | (prev, _, _) :: _ when budget >= prev ->
          fail "tier %d: budget %d does not decrease (previous %d)" idx budget
            prev
        | _ -> ());
        let bytes = int_kv "tier bytes" "bytes=" bytes in
        if bytes <= 0 then fail "tier %d: non-positive length %d" idx bytes;
        let crc =
          match Crc32.of_hex (kv "tier crc" "crc=" crc) with
          | Some v -> v
          | None -> fail "tier %d: checksum is not 8 hex digits" idx
        in
        incr ntiers;
        tiers := (budget, bytes, crc) :: !tiers;
        manifest ()
      | word :: _ -> fail "unknown ladder manifest record %S" word)
  in
  manifest ();
  let whole fmt = corrupt ~line:0 ~content:"" fmt in
  let tiers = Array.of_list (List.rev !tiers) in
  if Array.length tiers = 0 then whole "ladder manifest declares no tiers";
  let declared_total =
    Array.fold_left (fun acc (_, bytes, _) -> acc + bytes) 0 tiers
  in
  if !pos + declared_total > len then
    whole "ladder payloads truncated: manifest declares %d bytes, %d present"
      declared_total (len - !pos);
  if !pos + declared_total < len then
    whole "trailing garbage after the ladder payloads";
  let off = ref !pos in
  Array.map
    (fun (budget, bytes, declared) ->
      let payload = String.sub text !off bytes in
      off := !off + bytes;
      let actual = Crc32.string payload in
      if not (Int32.equal declared actual) then
        whole "tier (budget %d) checksum mismatch: manifest says %s, payload \
               hashes to %s"
          budget (Crc32.to_hex declared) (Crc32.to_hex actual);
      let s, _meta = of_string_exn limits payload in
      (budget, s))
    tiers

let of_ladder_string_res ?(limits = Xmldoc.Limits.default) text =
  if String.length text > limits.max_bytes then
    Error
      (Xmldoc.Fault.Limit_exceeded
         { what = "bytes"; actual = String.length text; limit = limits.max_bytes })
  else
    match of_ladder_string_exn limits text with
    | tiers -> Ok tiers
    | exception Corrupt { line; content; message } ->
      Error (Xmldoc.Fault.Corrupt_synopsis { line; content; message })
    | exception Xmldoc.Fault.Fault f -> Error f

type loaded =
  | Single of Synopsis.t
  | Ladder of (int * Synopsis.t) array

let of_any_string_res ?limits text =
  if is_ladder_text text then
    Result.map (fun tiers -> Ladder tiers) (of_ladder_string_res ?limits text)
  else Result.map (fun s -> Single s) (of_string_res ?limits text)

(* The raw bytes of a snapshot file through the shared bounded read —
   what [load_gen] parses and what the scrubber and the peer-repair
   FETCH path hash and stream.  A short (torn) read returns a prefix;
   the caller's checksum verification rejects it. *)
let load_raw_res ?limits path =
  Result.map_error (Xmldoc.Fault.with_path path)
    (Xmldoc.Io_fault.read_file ?limits path)

let load_gen of_string ?limits path =
  Result.bind (load_raw_res ?limits path) (fun text ->
      Result.map_error (Xmldoc.Fault.with_path path) (of_string ?limits text))

let load_res ?limits path = load_gen of_string_res ?limits path
let load_meta_res ?limits path = load_gen of_string_meta_res ?limits path
let load_ladder_res ?limits path = load_gen of_ladder_string_res ?limits path
let load_any_res ?limits path = load_gen of_any_string_res ?limits path

let load ?limits path =
  match load_res ?limits path with
  | Ok s -> s
  | Error (Xmldoc.Fault.Io_error { message; _ }) -> raise (Sys_error message)
  | Error f -> failwith (Xmldoc.Fault.to_string f)
