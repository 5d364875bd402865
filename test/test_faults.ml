(* Fault-injection harness for the ingestion layer.

   A seeded byte-level corruptor (truncate, bit-flip, splice,
   duplicate-line, drop-line, deep-nest generators) feeds hundreds of
   mutated XML documents and synopsis files through every loader and
   asserts the only outcomes are [Ok] or a structured [Error] — never
   an uncaught exception, stack overflow, or hang.  Everything is
   deterministic: one fixed seed, no wall-clock dependence in the
   mutations themselves. *)

open Xmldoc
module Synopsis = Sketch.Synopsis
module Serialize = Sketch.Serialize
module Stable = Sketch.Stable
module Build = Sketch.Build

let seed = 0x7ee5

(* Per-loader hang guard: a mutation that sent a loader into a loop
   would otherwise stall the suite, not fail it. *)
let guarded_limits () = Limits.with_timeout 10. Limits.default

let truncate_excerpt s =
  if String.length s <= 60 then s else String.sub s 0 60 ^ "..."

(* ------------------------------------------------------------------ *)
(* Corruptors                                                          *)
(* ------------------------------------------------------------------ *)

let truncate rng s =
  if s = "" then s else String.sub s 0 (Random.State.int rng (String.length s))

let bit_flip rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Random.State.int rng (Bytes.length b) in
    let bit = 1 lsl Random.State.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  end

(* Insert a random slice of the input (or raw bytes) at a random spot. *)
let splice rng s =
  let n = String.length s in
  let at = if n = 0 then 0 else Random.State.int rng n in
  let graft =
    if n > 0 && Random.State.bool rng then begin
      let from = Random.State.int rng n in
      String.sub s from (Random.State.int rng (n - from))
    end
    else
      String.init
        (Random.State.int rng 24)
        (fun _ -> Char.chr (Random.State.int rng 256))
  in
  String.sub s 0 at ^ graft ^ String.sub s at (n - at)

let on_lines f rng s =
  let lines = String.split_on_char '\n' s in
  String.concat "\n" (f rng lines)

let duplicate_line =
  on_lines (fun rng lines ->
      match lines with
      | [] -> []
      | _ ->
        let i = Random.State.int rng (List.length lines) in
        List.concat_map
          (fun (j, l) -> if i = j then [ l; l ] else [ l ])
          (List.mapi (fun j l -> (j, l)) lines))

let drop_line =
  on_lines (fun rng lines ->
      match lines with
      | [] -> []
      | _ ->
        let i = Random.State.int rng (List.length lines) in
        List.filteri (fun j _ -> j <> i) lines)

let corruptors =
  [| truncate; bit_flip; splice; duplicate_line; drop_line |]

let mutate rng s =
  (* compose one to three corruptions *)
  let rounds = 1 + Random.State.int rng 3 in
  let m = ref s in
  for _ = 1 to rounds do
    m := corruptors.(Random.State.int rng (Array.length corruptors)) rng !m
  done;
  !m

(* Deeply nested documents, balanced or truncated mid-nest. *)
let deep_nest rng =
  let depth = 1 + Random.State.int rng 50_000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<d>"
  done;
  let close = Random.State.int rng 3 in
  if close > 0 then
    for _ = 1 to if close = 1 then depth else Random.State.int rng depth do
      Buffer.add_string buf "</d>"
    done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Corpora                                                             *)
(* ------------------------------------------------------------------ *)

let sample_doc ds = Datagen.Datasets.generate ~seed:1 ~scale:0.05 ds

let xml_corpus =
  [
    Printer.to_string (sample_doc Datagen.Datasets.Xmark);
    Printer.to_string ~indent:1 (sample_doc Datagen.Datasets.Imdb);
    Printer.to_string ~indent:2 (sample_doc Datagen.Datasets.Treebank);
    {|<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r (a)>]><r>
        <!-- comment --> <![CDATA[<fake/>]]> <a href="x" quoted='y z'/> text </r>|};
    "<a><b/><c><d/></c></a>";
  ]

let synopsis_corpus =
  List.map
    (fun ds -> Serialize.to_string (Stable.build (sample_doc ds)))
    [ Datagen.Datasets.Xmark; Datagen.Datasets.Dblp ]
  @ [ "treesketch 1\nroot 0\nnode 0 1 a\nnode 1 3 b\nedge 0 1 3\n" ]

(* ------------------------------------------------------------------ *)
(* The harness proper                                                  *)
(* ------------------------------------------------------------------ *)

(* Feed one mutant through both the result-returning and the raising
   XML entry points; anything but a structured outcome fails. *)
let drive_xml mutant =
  (match Parser.of_string_res ~limits:(guarded_limits ()) mutant with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.failf "of_string_res leaked %s on %S" (Printexc.to_string e)
      (truncate_excerpt mutant));
  match Parser.of_string ~limits:(guarded_limits ()) mutant with
  | (_ : Tree.t) -> ()
  | exception Parser.Error _ -> ()
  | exception Fault.Fault _ -> ()
  | exception e ->
    Alcotest.failf "of_string leaked %s on %S" (Printexc.to_string e)
      (truncate_excerpt mutant)

let drive_synopsis mutant =
  (match Serialize.of_string_res ~limits:(guarded_limits ()) mutant with
  | Ok s -> (
    (* whatever decodes successfully must satisfy the invariants *)
    match Synopsis.validate s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "loader accepted an invalid synopsis: %s" msg)
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "Serialize.of_string_res leaked %s on %S" (Printexc.to_string e)
      (truncate_excerpt mutant));
  match Serialize.of_string ~limits:(guarded_limits ()) mutant with
  | (_ : Synopsis.t) -> ()
  | exception Failure _ -> ()
  | exception e ->
    Alcotest.failf "Serialize.of_string leaked %s on %S" (Printexc.to_string e)
      (truncate_excerpt mutant)

let mutants_per_base = 80

let test_xml_mutations () =
  let rng = Random.State.make [| seed |] in
  let driven = ref 0 in
  List.iter
    (fun base ->
      for _ = 1 to mutants_per_base do
        drive_xml (mutate rng base);
        incr driven
      done)
    xml_corpus;
  for _ = 1 to 25 do
    drive_xml (deep_nest rng);
    incr driven
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough XML mutants (%d)" !driven)
    true (!driven >= 400)

let test_synopsis_mutations () =
  let rng = Random.State.make [| seed + 1 |] in
  let driven = ref 0 in
  List.iter
    (fun base ->
      for _ = 1 to mutants_per_base do
        drive_synopsis (mutate rng base);
        incr driven
      done)
    synopsis_corpus;
  Alcotest.(check bool)
    (Printf.sprintf "enough synopsis mutants (%d)" !driven)
    true (!driven >= 200)

(* ------------------------------------------------------------------ *)
(* Resource guards                                                     *)
(* ------------------------------------------------------------------ *)

let deep_doc depth =
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<d>"
  done;
  for _ = 1 to depth do
    Buffer.add_string buf "</d>"
  done;
  Buffer.contents buf

(* Regression for the explicit-stack parser: 100k nesting levels used
   to overflow the OCaml stack under recursive descent. *)
let test_100k_deep () =
  let depth = 100_000 in
  match Parser.of_string_res (deep_doc depth) with
  | Ok t -> Alcotest.(check int) "size" depth (Tree.size t)
  | Error f -> Alcotest.failf "expected Ok, got %s" (Fault.to_string f)

let check_limit what = function
  | Error (Fault.Limit_exceeded l) ->
    Alcotest.(check string) "which limit" what l.what
  | Ok _ -> Alcotest.failf "expected %s limit error, got Ok" what
  | Error f -> Alcotest.failf "expected %s limit error, got %s" what (Fault.to_string f)

let test_parser_limits () =
  let doc = deep_doc 1_000 in
  check_limit "depth"
    (Parser.of_string_res ~limits:{ Limits.default with max_depth = 100 } doc);
  check_limit "bytes"
    (Parser.of_string_res ~limits:{ Limits.default with max_bytes = 64 } doc);
  check_limit "elements"
    (Parser.of_string_res ~limits:{ Limits.default with max_elements = 100 } doc);
  match
    Parser.of_string_res
      ~limits:(Limits.with_timeout (-1.) Limits.default)
      (deep_doc 10_000)
  with
  | Error (Fault.Deadline _) -> ()
  | Ok _ -> Alcotest.fail "expected deadline error, got Ok"
  | Error f -> Alcotest.failf "expected deadline error, got %s" (Fault.to_string f)

let test_serialize_limits () =
  let text = List.nth synopsis_corpus 0 in
  check_limit "bytes"
    (Serialize.of_string_res ~limits:{ Limits.default with max_bytes = 16 } text);
  check_limit "nodes"
    (Serialize.of_string_res ~limits:{ Limits.default with max_elements = 2 } text)

(* Structured synopsis corruption: the error names the offending line. *)
let test_corrupt_synopsis_context () =
  let text = "treesketch 1\nroot 0\nnode 0 1 a\nnode x 2 b\n" in
  (match Serialize.of_string_res text with
  | Error (Fault.Corrupt_synopsis { line; content; _ }) ->
    Alcotest.(check int) "line number" 4 line;
    Alcotest.(check string) "content" "node x 2 b" content
  | Ok _ -> Alcotest.fail "expected corrupt-synopsis error"
  | Error f -> Alcotest.failf "wrong fault %s" (Fault.to_string f));
  match Serialize.of_string text with
  | (_ : Synopsis.t) -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message %S names the line" msg)
      true (contains msg "line 4")

let test_corrupt_synopsis_cases () =
  let corrupt text =
    match Serialize.of_string_res text with
    | Error (Fault.Corrupt_synopsis _) -> ()
    | Ok _ -> Alcotest.failf "expected corrupt-synopsis error on %S" text
    | Error f -> Alcotest.failf "wrong fault %s on %S" (Fault.to_string f) text
  in
  corrupt "";
  corrupt "root 0";
  corrupt "treesketch 2\nroot 0\nnode 0 1 a\n";
  corrupt "treesketch 1\nroot 5\nnode 0 1 a\n";
  corrupt "treesketch 1\nroot 0\nnode 0 1 a\nnode 0 2 b\n" (* duplicate id *);
  corrupt "treesketch 1\nroot 0\nnode 0 1 a\nedge 0 7 2\n" (* target range *);
  corrupt "treesketch 1\nroot 0\nnode 0 nan a\n" (* non-finite count *);
  corrupt "treesketch 1\nroot 0\nnode 0 1 a\nedge 9 0 2\n" (* source range *)

(* ------------------------------------------------------------------ *)
(* Store crashes                                                       *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "tsstore" "" in
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

let store_synopsis =
  lazy (Stable.build (Parser.of_string "<r><a><b/><c/></a><a><b/></a><d/></r>"))

let canonical s = Serialize.to_string s

(* A write torn at ANY byte offset must load as the complete synopsis
   or fail as [Corrupt_synopsis] — never as a partial synopsis. *)
let test_truncation_every_offset () =
  let s = Lazy.force store_synopsis in
  let snap = Serialize.to_snapshot_string s in
  let full = canonical s in
  let complete = ref 0 in
  for cut = 0 to String.length snap - 1 do
    match Serialize.of_string_res (String.sub snap 0 cut) with
    | Error (Fault.Corrupt_synopsis _) -> ()
    | Ok loaded ->
      Alcotest.(check string)
        (Printf.sprintf "cut at byte %d loads complete" cut)
        full (canonical loaded);
      incr complete
    | Error f ->
      Alcotest.failf "cut at byte %d: unexpected fault %s" cut (Fault.to_string f)
  done;
  (* only losing the final newline leaves a verifiable snapshot *)
  Alcotest.(check bool) "at most one complete prefix" true (!complete <= 1)

(* Anything after a well-formed snapshot (a torn second write, a
   concatenation) is rejected, in both format versions. *)
let test_trailing_garbage_rejected () =
  let s = Lazy.force store_synopsis in
  let reject text =
    match Serialize.of_string_res text with
    | Error (Fault.Corrupt_synopsis _) -> ()
    | Ok _ -> Alcotest.failf "accepted %S" (truncate_excerpt text)
    | Error f ->
      Alcotest.failf "wrong fault %s on %S" (Fault.to_string f) (truncate_excerpt text)
  in
  let snap = Serialize.to_snapshot_string s in
  reject (snap ^ "node 0 1 zz\n");
  reject (snap ^ "x");
  reject (snap ^ snap);
  let v1 = canonical s in
  reject (v1 ^ "garbage\n");
  reject (v1 ^ v1)

(* Every loader fault names the offending file. *)
let test_fault_names_path () =
  with_temp_dir (fun dir ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
        nn = 0 || scan 0
      in
      let expect_path path = function
        | Ok (_ : Synopsis.t) -> Alcotest.failf "expected a fault for %s" path
        | Error f ->
          Alcotest.(check bool)
            (Printf.sprintf "fault %S names %s" (Fault.to_string f) path)
            true
            (contains (Fault.to_string f) path)
      in
      let bad = Filename.concat dir "bad.ts" in
      write_file bad "treesketch 1\nroot 0\nnode x 1 a\n";
      expect_path bad (Serialize.load_res bad);
      let torn = Filename.concat dir "torn.ts" in
      let snap = Serialize.to_snapshot_string (Lazy.force store_synopsis) in
      write_file torn (String.sub snap 0 (String.length snap / 2));
      expect_path torn (Serialize.load_res torn);
      let absent = Filename.concat dir "absent.ts" in
      expect_path absent (Serialize.load_res absent))

(* save_atomic: the snapshot round-trips, leaves no staging litter, and
   atomically replaces an existing file. *)
let test_save_atomic_roundtrip () =
  with_temp_dir (fun dir ->
      let s = Lazy.force store_synopsis in
      let path = Filename.concat dir "snap.ts" in
      (match Serialize.save_atomic path s with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save failed: %s" (Fault.to_string f));
      (match Serialize.load_res path with
      | Ok loaded -> Alcotest.(check string) "round trip" (canonical s) (canonical loaded)
      | Error f -> Alcotest.failf "load failed: %s" (Fault.to_string f));
      (* overwrite in place: still exactly one file, still loadable *)
      (match Serialize.save_atomic path s with
      | Ok () -> ()
      | Error f -> Alcotest.failf "re-save failed: %s" (Fault.to_string f));
      let files = Sys.readdir dir in
      Array.sort String.compare files;
      Alcotest.(check (array string)) "no staging litter" [| "snap.ts" |] files)

(* A build checkpoint torn at ANY byte offset must either load (and
   resume) completely or be rejected as [Corrupt_synopsis] — a resume
   never continues from a partial clustering.  The tear is an injected
   short read ({!Xmldoc.Io_fault.Short_at}) of the intact journal: the
   same truncation coverage, through the real I/O path. *)
let test_checkpoint_truncation_every_offset () =
  with_temp_dir (fun dir ->
      let module F = Xmldoc.Io_fault in
      let stable = Lazy.force store_synopsis in
      let budget = Synopsis.size_bytes stable / 2 in
      let ckpt = Filename.concat dir "build.ckpt" in
      (match
         Build.build_checkpointed_res ~checkpoint_every:1 ~checkpoint:ckpt stable
           ~budget
       with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "checkpointed build failed: %s" (Fault.to_string f));
      let full =
        let ic = open_in_bin ckpt in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        text
      in
      let torn = Filename.concat dir "torn.ckpt" in
      (* the budget may sit below the label-split floor; the straight
         build's size is then the best any resume can do *)
      let floor_bytes = Synopsis.size_bytes (Build.build stable ~budget) in
      let complete = ref 0 in
      Fun.protect ~finally:F.disarm @@ fun () ->
      for cut = 0 to String.length full - 1 do
        (* a successful resume rewrites its journal: restore the intact
           copy, then tear every *read* of it at [cut] *)
        write_file torn full;
        F.arm [ F.rule ~prob:1.0 ~path:"torn.ckpt" F.Read (F.Short_at cut) ];
        (match Build.Checkpoint.load_res torn with
        | Error (Fault.Corrupt_synopsis _) -> ()
        | Ok loaded -> (
          incr complete;
          match Synopsis.validate loaded.synopsis with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "cut at %d loaded invalid: %s" cut msg)
        | Error f ->
          Alcotest.failf "cut at byte %d: unexpected fault %s" cut (Fault.to_string f));
        match Build.resume_res torn with
        | Error (Fault.Corrupt_synopsis _) -> ()
        | Ok { synopsis; _ } -> (
          Alcotest.(check bool)
            (Printf.sprintf "cut at %d resumes within budget (or the floor)" cut)
            true
            (Synopsis.size_bytes synopsis <= max budget floor_bytes);
          match Synopsis.validate synopsis with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "cut at %d resumed invalid: %s" cut msg)
        | Error f ->
          Alcotest.failf "cut at byte %d: resume fault %s" cut (Fault.to_string f)
      done;
      (* only losing the final newline leaves a verifiable checkpoint *)
      Alcotest.(check bool) "at most one complete prefix" true (!complete <= 1))

(* Every reader over the shared bounded read (XML parse, snapshot
   load, level manifest, WAL replay) must keep the fault class and
   message it has always returned — for a file over [max_bytes] and for
   an injected short read.  Snapshot and manifest faults name the file;
   XML and WAL faults never did.  A torn WAL read is not a fault at
   all: replay keeps the intact prefix and reports a torn tail. *)
let test_shared_read_faults_pinned () =
  with_temp_dir (fun dir ->
      let module F = Xmldoc.Io_fault in
      let xml = Filename.concat dir "doc.xml" in
      write_file xml "<doc><a/><b/></doc>\n";
      let snap = Filename.concat dir "snap.ts" in
      (match Serialize.save_atomic snap (Lazy.force store_synopsis) with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save: %s" (Fault.to_string f));
      let manifest = Serve.Ingest.manifest_path ~dir ~name:"db" in
      write_file manifest (Serve.Ingest.render_manifest Serve.Ingest.empty_manifest);
      let wal = Serve.Wal.path ~dir ~name:"db" in
      (match Serve.Wal.open_ ~dir ~name:"db" () with
      | Error f -> Alcotest.failf "wal open: %s" (Fault.to_string f)
      | Ok (w, _, _) ->
        List.iter
          (fun seq ->
            match
              Serve.Wal.append w
                { seq; ts = 1.0; op = Serve.Wal.Insert; payload = "<a/>" }
            with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "wal append")
          [ 1; 2 ];
        Serve.Wal.close w);
      let wal_text = In_channel.with_open_bin wal In_channel.input_all in
      (* the crc is 8 hex digits whatever its value *)
      let frame1 = String.length "rec 1 1.000000 4 00000000\n<a/>\n" in
      let outcome = function
        | Ok summary -> "ok " ^ summary
        | Error f -> Fault.class_name f ^ ": " ^ Fault.to_string f
      in
      let over_limit ?tag path =
        Printf.sprintf "limit: resource limit exceeded: %sbytes = %d (limit 8)"
          (match tag with Some p -> p ^ ": " | None -> "")
          (Unix.stat path).Unix.st_size
      in
      (* caller, its file, one read through it, the fault over
         [max_bytes], and a short-read cut with its outcome *)
      let callers =
        [
          ( "xml parse",
            xml,
            (fun limits ->
              outcome (Result.map (fun _ -> "tree") (Parser.of_file_res ?limits xml))),
            over_limit xml,
            9,
            "parse: XML parse error at line 1, column 10: missing </doc>" );
          ( "snapshot load",
            snap,
            (fun limits ->
              outcome
                (Result.map (fun _ -> "synopsis") (Serialize.load_res ?limits snap))),
            over_limit ~tag:snap snap,
            20,
            Printf.sprintf
              "corrupt: corrupt synopsis: %s: missing crc trailer (snapshot \
               truncated mid-write?)"
              snap );
          ( "level manifest",
            manifest,
            (fun limits ->
              outcome
                (Result.map
                   (fun _ -> "manifest")
                   (Serve.Ingest.read_manifest ?limits ~dir ~name:"db" ()))),
            over_limit ~tag:manifest manifest,
            20,
            Printf.sprintf
              "corrupt: corrupt synopsis at line 2 (\"flushed 0\"): %s: missing \
               crc trailer"
              manifest );
          ( "wal replay",
            wal,
            (fun limits ->
              outcome
                (Result.map
                   (fun (w, records, torn) ->
                     Serve.Wal.close w;
                     (* replay truncated the tear away: restore it *)
                     write_file wal wal_text;
                     Printf.sprintf "records=%d torn=%b" (List.length records) torn)
                   (Serve.Wal.open_ ?limits ~dir ~name:"db" ()))),
            over_limit wal,
            frame1 + 5,
            "ok records=1 torn=true" );
        ]
      in
      let tiny = Some { Limits.default with max_bytes = 8 } in
      List.iter
        (fun (label, path, run, oversized, cut, torn) ->
          Alcotest.(check string) (label ^ ": over max_bytes") oversized (run tiny);
          Fun.protect ~finally:F.disarm (fun () ->
              F.arm [ F.rule ~prob:1.0 ~path F.Read (F.Short_at cut) ];
              Alcotest.(check string) (label ^ ": short read") torn (run None)))
        callers)

(* ------------------------------------------------------------------ *)
(* Deadline degradation in TSBUILD                                     *)
(* ------------------------------------------------------------------ *)

let test_build_degrades () =
  let stable = Stable.build (sample_doc Datagen.Datasets.Xmark) in
  let budget = Synopsis.size_bytes stable / 8 in
  (* already-expired deadline: zero merges happen, yet we still get a
     valid best-so-far synopsis flagged as degraded *)
  (match
     Build.build_res ~limits:(Limits.with_timeout (-1.) Limits.unlimited) stable ~budget
   with
  | Ok { synopsis; degraded } ->
    Alcotest.(check bool) "degraded" true degraded;
    Alcotest.(check bool) "over budget" true (Synopsis.size_bytes synopsis > budget);
    (match Synopsis.validate synopsis with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "degraded synopsis invalid: %s" msg)
  | Error f -> Alcotest.failf "expected degraded Ok, got %s" (Fault.to_string f));
  (* no deadline: compression runs to its natural end, not flagged *)
  match Build.build_res stable ~budget with
  | Ok { synopsis; degraded } ->
    Alcotest.(check bool) "not degraded" false degraded;
    (match Synopsis.validate synopsis with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "built synopsis invalid: %s" msg)
  | Error f -> Alcotest.failf "expected Ok, got %s" (Fault.to_string f)

(* The documented exit-code table ([Fault.exit_code_table] — what the
   CLI man page renders) must agree with what the code actually exits
   with: one representative fault per class maps through [exit_code]
   to the table's row for that class. *)
let test_exit_code_table_consistent () =
  let representatives =
    [
      Fault.Parse_error { line = 1; column = 1; message = "x" };
      Fault.Corrupt_synopsis { line = 1; content = ""; message = "x" };
      Fault.Limit_exceeded { what = "depth"; actual = 1; limit = 0 };
      Fault.Deadline { stage = "parse"; elapsed = 1. };
      Fault.Io_error { path = "p"; message = "x" };
      Fault.Worker_crash { reason = "x" };
    ]
  in
  List.iter
    (fun f ->
      let cls = Fault.class_name f in
      match
        List.find_opt (fun (_, c, _) -> c = cls) Fault.exit_code_table
      with
      | Some (code, _, _) ->
        Alcotest.(check int)
          (Printf.sprintf "table code for %s" cls)
          (Fault.exit_code f) code
      | None -> Alcotest.failf "class %s missing from exit_code_table" cls)
    representatives;
  (match
     List.find_opt (fun (code, _, _) -> code = 0) Fault.exit_code_table
   with
  | Some (_, "ok", _) -> ()
  | _ -> Alcotest.fail "exit code 0 missing or misclassed");
  (match
     List.find_opt
       (fun (code, _, _) -> code = Fault.degraded_exit_code)
       Fault.exit_code_table
   with
  | Some (_, "degraded", _) -> ()
  | _ -> Alcotest.fail "degraded exit code missing from the table");
  (* every documented code is distinct — no two rows can collide *)
  let codes = List.map (fun (code, _, _) -> code) Fault.exit_code_table in
  Alcotest.(check int) "codes distinct"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_build_rejects_invalid () =
  let bad =
    {
      Synopsis.nodes =
        [|
          { Synopsis.label = Label.of_string "a"; count = Float.nan; edges = [||] };
        |];
      root = 0;
    }
  in
  match Build.build_res bad ~budget:64 with
  | Error (Fault.Corrupt_synopsis _) -> ()
  | Ok _ -> Alcotest.fail "expected rejection of a NaN-count synopsis"
  | Error f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let () =
  Alcotest.run "faults"
    [
      ( "fault injection",
        [
          Alcotest.test_case "xml mutations" `Quick test_xml_mutations;
          Alcotest.test_case "synopsis mutations" `Quick test_synopsis_mutations;
        ] );
      ( "resource guards",
        [
          Alcotest.test_case "100k-deep document" `Quick test_100k_deep;
          Alcotest.test_case "parser limits" `Quick test_parser_limits;
          Alcotest.test_case "serialize limits" `Quick test_serialize_limits;
        ] );
      ( "corrupt synopsis",
        [
          Alcotest.test_case "line context" `Quick test_corrupt_synopsis_context;
          Alcotest.test_case "corruption cases" `Quick test_corrupt_synopsis_cases;
        ] );
      ( "store crashes",
        [
          Alcotest.test_case "truncation at every offset" `Quick
            test_truncation_every_offset;
          Alcotest.test_case "trailing garbage rejected" `Quick
            test_trailing_garbage_rejected;
          Alcotest.test_case "faults name the path" `Quick test_fault_names_path;
          Alcotest.test_case "save_atomic round trip" `Quick
            test_save_atomic_roundtrip;
          Alcotest.test_case "checkpoint truncation at every offset" `Quick
            test_checkpoint_truncation_every_offset;
          Alcotest.test_case "shared read: faults pinned per caller" `Quick
            test_shared_read_faults_pinned;
        ] );
      ( "deadline degradation",
        [
          Alcotest.test_case "build degrades" `Quick test_build_degrades;
          Alcotest.test_case "build rejects invalid input" `Quick
            test_build_rejects_invalid;
        ] );
      ( "exit codes",
        [
          Alcotest.test_case "documented table matches the code" `Quick
            test_exit_code_table_consistent;
        ] );
    ]
