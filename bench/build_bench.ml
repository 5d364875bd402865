(* Synopsis construction bench: build throughput and snapshot load.

   The fixture is XMark-TX (scale 9.0, about 105K elements) at a
   32 KB budget, where TSBUILD does hundreds of merges and the timed
   work outweighs timer and scheduler noise:

   - stable:   BUILD_STABLE over the generated document (stable_build_s,
               and nodes_per_sec = document elements / build seconds);
   - compress: the bottom-up TREESKETCH compression of that summary to
               the byte budget (compress_s, and merges_per_sec = merges
               applied / compression seconds);
   - save/load: atomic snapshot serialization and the cold load a
               serving process pays per catalog entry (save_s, load_s,
               snapshot_bytes).

   The stable build and the compression are each timed over [repeats]
   runs and reported as medians.  Results go to BENCH_build.json;
   --assert additionally fails the run unless the compression met its
   budget un-degraded and the loaded snapshot round-trips.  Absolute
   times are machine-bound, so the regression gate compares
   nodes_per_sec and merges_per_sec against a committed baseline as
   FLOORS: a fresh rate must not fall below
   [baseline / (1 + tolerance)] (default tolerance 1.0, i.e. half the
   baseline — CI boxes are noisy).

   Usage: build_bench [--out PATH] [--scale S] [--budget BYTES]
                      [--assert] [--baseline FILE [--tolerance R]]
   Seeded via CHAOS_SEED (default pinned). *)

module Datasets = Datagen.Datasets

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | None -> 0x1A6E
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "CHAOS_SEED=%S is not an integer" s))

let usage () =
  prerr_endline
    "usage: build_bench [--out PATH] [--scale S] [--budget BYTES]\n\
    \                   [--assert] [--baseline FILE [--tolerance R]]";
  exit 2

let out_path = ref "BENCH_build.json"
let scale = ref 9.0
let budget = ref 32768
let repeats = 5
let assert_mode = ref false
let baseline_path = ref None
let tolerance = ref 1.0

let () =
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
      out_path := path;
      parse rest
    | "--scale" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 ->
        scale := s;
        parse rest
      | _ -> usage ())
    | "--budget" :: b :: rest -> (
      match int_of_string_opt b with
      | Some b when b > 0 ->
        budget := b;
        parse rest
      | _ -> usage ())
    | "--assert" :: rest ->
      assert_mode := true;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline_path := Some path;
      parse rest
    | "--tolerance" :: r :: rest -> (
      match float_of_string_opt r with
      | Some r when r >= 0.0 ->
        tolerance := r;
        parse rest
      | _ -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Baseline comparison (same scraping idiom as repair_bench)           *)
(* ------------------------------------------------------------------ *)

let scrape_floats text key =
  let needle = Printf.sprintf "\"%s\": " key in
  let out = ref [] in
  let len = String.length text and nlen = String.length needle in
  for i = 0 to len - nlen - 1 do
    if String.sub text i nlen = needle then begin
      let j = ref (i + nlen) in
      while
        !j < len
        && (match text.[!j] with
           | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr j
      done;
      match
        float_of_string_opt (String.sub text (i + nlen) (!j - i - nlen))
      with
      | Some f -> out := f :: !out
      | None -> ()
    end
  done;
  List.rev !out

let rate text what key =
  match scrape_floats text key with
  | r :: _ -> r
  | [] -> failwith (Printf.sprintf "%s: cannot scrape %s" what key)

let check_baseline ~current path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let baseline = really_input_string ic n in
  close_in ic;
  let failed =
    List.filter
      (fun (key, unit) ->
        let base = rate baseline ("baseline " ^ path) key in
        let cur = rate current "current run" key in
        let floor = base /. (1.0 +. !tolerance) in
        Printf.printf
          "build bench baseline: %s %.0f vs baseline %.0f (floor %.0f, \
           tolerance %.0f%%)\n"
          key cur base floor (!tolerance *. 100.0);
        if cur < floor then begin
          Printf.eprintf
            "FAIL: %s %.0f %s fell below baseline %.0f / (1 + %.0f%%) (%s)\n" key
            cur unit base (!tolerance *. 100.0) path;
          true
        end
        else false)
      [ ("nodes_per_sec", "nodes/s"); ("merges_per_sec", "merges/s") ]
  in
  if failed <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "tsbuildb" "" in
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

let unwrap what = function
  | Ok v -> v
  | Error f -> failwith (what ^ ": " ^ Xmldoc.Fault.to_string f)

(* median of [repeats] timed runs of [f], with the last run's result *)
let timed_median f =
  let runs =
    List.init repeats (fun _ ->
        let t = Unix.gettimeofday () in
        let r = f () in
        (Unix.gettimeofday () -. t, r))
  in
  let times = List.sort Float.compare (List.map fst runs) in
  (List.nth times (repeats / 2), snd (List.nth runs (repeats - 1)))

let () =
  with_temp_dir @@ fun dir ->
  let tree = Datasets.generate ~seed ~scale:!scale Datasets.Xmark in
  let tree_nodes = Xmldoc.Tree.size tree in
  let stable_build_s, stable = timed_median (fun () -> Sketch.Stable.build tree) in
  let nodes_per_sec =
    if stable_build_s > 0.0 then float_of_int tree_nodes /. stable_build_s
    else 0.0
  in
  let stable_nodes = Sketch.Synopsis.num_nodes stable in
  (* compression to the byte budget; every merge retires one class *)
  let compress_s, outcome =
    timed_median (fun () ->
        unwrap "compress" (Sketch.Build.build_res stable ~budget:!budget))
  in
  let sketch_nodes = Sketch.Synopsis.num_nodes outcome.Sketch.Build.synopsis in
  let merges = stable_nodes - sketch_nodes in
  let merges_per_sec =
    if compress_s > 0.0 then float_of_int merges /. compress_s else 0.0
  in
  (* snapshot save + cold load *)
  let path = Filename.concat dir "bench.ts" in
  let t = Unix.gettimeofday () in
  unwrap "save"
    (Sketch.Serialize.save_atomic path outcome.Sketch.Build.synopsis);
  let save_s = Unix.gettimeofday () -. t in
  let snapshot_bytes = (Unix.stat path).Unix.st_size in
  let t = Unix.gettimeofday () in
  let loaded = unwrap "load" (Sketch.Serialize.load_res path) in
  let load_s = Unix.gettimeofday () -. t in
  let round_trips = Sketch.Synopsis.num_nodes loaded = sketch_nodes in
  let json =
    Printf.sprintf
      {|{
  "bench": "build",
  "seed": %d,
  "scale": %g,
  "budget_bytes": %d,
  "repeats": %d,
  "tree_nodes": %d,
  "stable_nodes": %d,
  "sketch_nodes": %d,
  "merges": %d,
  "stable_build_s": %.4f,
  "nodes_per_sec": %.1f,
  "compress_s": %.4f,
  "merges_per_sec": %.1f,
  "compress_degraded": %b,
  "save_s": %.5f,
  "load_s": %.5f,
  "snapshot_bytes": %d,
  "load_round_trips": %b
}
|}
      seed !scale !budget repeats tree_nodes stable_nodes sketch_nodes merges
      stable_build_s nodes_per_sec compress_s merges_per_sec
      outcome.Sketch.Build.degraded save_s load_s snapshot_bytes round_trips
  in
  let oc = open_out !out_path in
  output_string oc json;
  close_out oc;
  Printf.printf
    "build bench (medians of %d): %d elements -> stable %d nodes in %.3fs \
     (%.0f nodes/s), compress %.3fs to %d nodes (%d merges, %.0f merges/s), \
     save %.4fs load %.4fs (%d bytes) -> %s\n"
    repeats tree_nodes stable_nodes stable_build_s nodes_per_sec compress_s
    sketch_nodes merges merges_per_sec save_s load_s snapshot_bytes !out_path;
  if !assert_mode && (outcome.Sketch.Build.degraded || not round_trips)
  then begin
    Printf.eprintf "FAIL: degraded=%b round_trips=%b\n"
      outcome.Sketch.Build.degraded round_trips;
    exit 1
  end;
  match !baseline_path with
  | Some path -> check_baseline ~current:json path
  | None -> ()
