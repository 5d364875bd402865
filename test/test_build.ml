(* Tests for the clustering engine (sufficient statistics, merge
   bookkeeping) and TSBUILD. *)

open Sketch
module T = Testutil
module Tree = Xmldoc.Tree

let small_doc =
  Xmldoc.Parser.of_string
    "<d><a><n/><p><y/><t/><k/></p><p><y/><t/><k/><k/></p><b><t/></b></a>\
     <a><p><y/><t/><k/></p><n/><b><t/></b></a>\
     <a><n/><p><y/><t/><k/></p><b><t/></b></a></d>"

(* a slightly larger deterministic document for merge stress *)
let bigger_doc = Datagen.Datasets.generate ~seed:7 ~scale:0.1 Datagen.Datasets.Imdb

(* ---------------- cluster bookkeeping ---------------- *)

let test_cluster_initial () =
  let stable = Stable.build small_doc in
  let cl = Cluster.of_stable stable in
  Alcotest.(check int) "alive = classes" (Synopsis.num_nodes stable) (Cluster.num_alive cl);
  T.check_float "initial sq error" 0. (Cluster.sq_error cl);
  Alcotest.(check int) "initial size" (Synopsis.size_bytes stable) (Cluster.size_bytes cl)

let test_cluster_merge_p_classes () =
  let stable = Stable.build small_doc in
  let cl = Cluster.of_stable stable in
  (* find the two p classes *)
  let p = Xmldoc.Label.of_string "p" in
  let ps =
    List.filter (fun r -> Xmldoc.Label.equal (Cluster.label cl r) p) (Cluster.alive_ids cl)
  in
  match ps with
  | [ p1; p2 ] ->
    let d = Option.get (Cluster.delta cl p1 p2) in
    (* merging p(y,t,k) x3 with p(y,t,k,k) x1: only the k dimension has
       variance: counts 1,1,1,2 -> mean 1.25, sq = 3*(0.25)^2 + (0.75)^2 *)
    T.check_float "errd" ((3. *. 0.0625) +. 0.5625) d.errd;
    let before_sq = Cluster.sq_error cl in
    let before_size = Cluster.size_bytes cl in
    let rep = Cluster.merge cl p1 p2 in
    Alcotest.(check bool) "rep is one of the two" true (rep = p1 || rep = p2);
    T.check_float "sq after merge" (before_sq +. d.errd) (Cluster.sq_error cl);
    Alcotest.(check int) "size after merge" (before_size - d.sized) (Cluster.size_bytes cl);
    T.check_float "incremental = direct" (Cluster.sq_error_direct cl) (Cluster.sq_error cl)
  | _ -> Alcotest.fail "expected exactly two p classes"

let test_cluster_merge_rejects () =
  let stable = Stable.build small_doc in
  let cl = Cluster.of_stable stable in
  let ids = Cluster.alive_ids cl in
  let a = List.hd ids in
  Alcotest.(check bool) "self merge rejected" true (Cluster.delta cl a a = None);
  let diff_label =
    List.find
      (fun b -> not (Xmldoc.Label.equal (Cluster.label cl a) (Cluster.label cl b)))
      ids
  in
  Alcotest.(check bool) "label mismatch rejected" true (Cluster.delta cl a diff_label = None)

(* exhaustively merge random same-label pairs and verify the
   incremental statistics against recomputation from scratch *)
let merge_randomly ~seed ~steps stable =
  let cl = Cluster.of_stable stable in
  let rng = Random.State.make [| seed |] in
  let steps = ref steps in
  let continue_ = ref true in
  while !continue_ && !steps > 0 do
    let ids = Array.of_list (Cluster.alive_ids cl) in
    (* all same-label pairs *)
    let pairs = ref [] in
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if u < v && Xmldoc.Label.equal (Cluster.label cl u) (Cluster.label cl v)
            then pairs := (u, v) :: !pairs)
          ids)
      ids;
    match !pairs with
    | [] -> continue_ := false
    | pairs ->
      let arr = Array.of_list pairs in
      let u, v = arr.(Random.State.int rng (Array.length arr)) in
      ignore (Cluster.merge cl u v);
      decr steps
  done;
  cl

let test_random_merges_consistency () =
  List.iter
    (fun seed ->
      let stable = Stable.build bigger_doc in
      let cl = merge_randomly ~seed ~steps:60 stable in
      T.check_float ~eps:1e-6 "incremental sq = direct sq"
        (Cluster.sq_error_direct cl) (Cluster.sq_error cl);
      (* size bookkeeping equals the exported synopsis *)
      let syn = Cluster.to_synopsis cl in
      Alcotest.(check int) "size bookkeeping" (Synopsis.size_bytes syn)
        (Cluster.size_bytes cl);
      (* exported synopsis preserves total elements *)
      T.check_float "elements preserved"
        (float_of_int (Tree.size bigger_doc))
        (Synopsis.total_elements syn))
    [ 1; 2; 3; 4; 5 ]

let test_delta_matches_merge () =
  (* the delta promised before the merge equals the observed change *)
  let stable = Stable.build bigger_doc in
  let cl = Cluster.of_stable stable in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 40 do
    let ids = Array.of_list (Cluster.alive_ids cl) in
    let pairs = ref [] in
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            if u < v && Xmldoc.Label.equal (Cluster.label cl u) (Cluster.label cl v)
            then pairs := (u, v) :: !pairs)
          ids)
      ids;
    match !pairs with
    | [] -> ()
    | pairs ->
      let arr = Array.of_list pairs in
      let u, v = arr.(Random.State.int rng (Array.length arr)) in
      let d = Option.get (Cluster.delta cl u v) in
      let sq0 = Cluster.sq_error cl and sz0 = Cluster.size_bytes cl in
      ignore (Cluster.merge cl u v);
      T.check_float ~eps:1e-6 "errd applied" (sq0 +. d.errd) (Cluster.sq_error cl);
      Alcotest.(check int) "sized applied" (sz0 - d.sized) (Cluster.size_bytes cl)
  done

(* ---------------- TSBUILD ---------------- *)

let test_build_respects_budget () =
  let stable = Stable.build bigger_doc in
  let full = Synopsis.size_bytes stable in
  List.iter
    (fun budget ->
      let ts = Build.build stable ~budget in
      Alcotest.(check bool)
        (Printf.sprintf "fits %d" budget)
        true
        (Synopsis.size_bytes ts <= budget);
      T.check_float "elements preserved"
        (float_of_int (Tree.size bigger_doc))
        (Synopsis.total_elements ts))
    [ full / 2; full / 4; full / 10 ]

let test_build_label_split_floor () =
  let stable = Stable.build small_doc in
  let ts = Build.build stable ~budget:1 in
  (* cannot go below one node per label *)
  let labels = List.length (Tree.distinct_labels small_doc) in
  Alcotest.(check int) "label split floor" labels (Synopsis.num_nodes ts)

let test_build_zero_error_when_room () =
  (* a budget >= the stable size should not merge anything *)
  let stable = Stable.build small_doc in
  let ts = Build.build stable ~budget:(Synopsis.size_bytes stable) in
  Alcotest.(check int) "unchanged" (Synopsis.num_nodes stable) (Synopsis.num_nodes ts);
  Alcotest.(check bool) "still stable" true (Synopsis.is_count_stable ts)

let test_build_with_checkpoints () =
  let stable = Stable.build bigger_doc in
  let full = Synopsis.size_bytes stable in
  let budgets = [ full / 2; full / 4; full / 8 ] in
  let sweep = Build.build_with_checkpoints stable ~budgets in
  Alcotest.(check int) "all budgets served" (List.length budgets) (List.length sweep);
  List.iter2
    (fun budget (b, syn) ->
      Alcotest.(check int) "budget echoed" budget b;
      Alcotest.(check bool) "fits" true (Synopsis.size_bytes syn <= budget))
    budgets sweep;
  (* checkpoints must match independent builds in size class *)
  List.iter
    (fun (b, syn) ->
      let indep = Build.build stable ~budget:b in
      Alcotest.(check bool) "same ballpark as independent build" true
        (abs (Synopsis.size_bytes indep - Synopsis.size_bytes syn) <= b / 4))
    sweep

(* ---------------- budget-sweep edge cases ---------------- *)

let test_sweep_budget_lists () =
  let stable = Stable.build bigger_doc in
  let full = Synopsis.size_bytes stable in
  (* unsorted with a duplicate and an over-large budget: pairs come
     back in input order, duplicate budgets share one snapshot (each
     distinct budget is compressed exactly once), and a budget with
     room for the whole stable summary returns it unmerged *)
  let budgets = [ full / 4; 2 * full; full / 4; full / 2 ] in
  let sweep = Build.build_with_checkpoints stable ~budgets in
  Alcotest.(check (list int)) "input order preserved" budgets (List.map fst sweep);
  List.iter
    (fun (b, syn) ->
      Alcotest.(check bool) "fits its budget" true (Synopsis.size_bytes syn <= b))
    sweep;
  match sweep with
  | [ (_, s1); (_, s_big); (_, s2); (_, s_half) ] ->
    Alcotest.(check bool) "duplicates share one compression" true (s1 == s2);
    Alcotest.(check int) "over-large budget = stable summary"
      (Synopsis.num_nodes stable) (Synopsis.num_nodes s_big);
    Alcotest.(check bool) "over-large still count-stable" true
      (Synopsis.is_count_stable s_big);
    Alcotest.(check bool) "snapshots are monotone in budget" true
      (Synopsis.num_nodes s_half >= Synopsis.num_nodes s1)
  | _ -> Alcotest.fail "expected four pairs back"

(* ---------------- per-merge invariants ---------------- *)

(* A complete TSBUILD of [stable] under [budget] that checks after
   every merge that the incremental squared error agrees with its
   recomputation from the stable summary (1e-9 relative) and that the
   size bookkeeping agrees with the exported synopsis.  Returns the
   merge count and the first violation, if any. *)
let merge_violations stable ~budget =
  let cl = Cluster.of_stable stable in
  let merges = ref 0 and violation = ref None in
  let on_merge () =
    incr merges;
    if !violation = None then begin
      let direct = Cluster.sq_error_direct cl in
      if not (T.feq direct (Cluster.sq_error cl)) then
        violation :=
          Some
            (Printf.sprintf "merge %d: incremental sq %.12g, direct %.12g" !merges
               (Cluster.sq_error cl) direct)
      else
        let exported = Synopsis.size_bytes (Cluster.to_synopsis cl) in
        if exported <> Cluster.size_bytes cl then
          violation :=
            Some
              (Printf.sprintf "merge %d: size bookkeeping %d, exported %d" !merges
                 (Cluster.size_bytes cl) exported)
    end
  in
  ignore
    (Build.compress_ctl cl ~budget ~ctl:(Xmldoc.Budget.unlimited ()) ~on_merge : bool);
  (!merges, !violation)

let test_every_merge_consistent () =
  let stable = Stable.build bigger_doc in
  let merges, violation =
    merge_violations stable ~budget:(Synopsis.size_bytes stable / 4)
  in
  Alcotest.(check bool) "merges happened" true (merges > 50);
  Alcotest.(check (option string)) "every merge consistent" None violation

let prop_every_merge_consistent =
  T.qtest ~count:60 "every TSBUILD merge keeps sq error and size exact"
    (T.arb_tree ()) (fun t ->
      let stable = Stable.build t in
      match merge_violations stable ~budget:(max 64 (Synopsis.size_bytes stable / 3)) with
      | _, None -> true
      | _, Some v -> QCheck.Test.fail_report v)

(* ---------------- reproducibility ---------------- *)

(* [doc] with every label renamed [prefix ^ name]; the renamed labels
   are interned first, in ascending or descending name order. *)
let relabeled ~prefix ~descending doc =
  let names =
    List.sort_uniq String.compare
      (List.map Xmldoc.Label.to_string (Tree.distinct_labels doc))
  in
  List.iter
    (fun n -> ignore (Xmldoc.Label.of_string (prefix ^ n) : Xmldoc.Label.t))
    (if descending then List.rev names else names);
  let rec go t =
    Tree.make_arr
      (Xmldoc.Label.of_string (prefix ^ Xmldoc.Label.to_string (Tree.label t)))
      (Array.map go (Tree.children t))
  in
  go doc

(* The synopsis with [prefix] cut off every label. *)
let unprefixed prefix (s : Synopsis.t) =
  let cut l =
    let l = Xmldoc.Label.to_string l and n = String.length prefix in
    Xmldoc.Label.of_string (String.sub l n (String.length l - n))
  in
  Synopsis.make ~root:s.Synopsis.root
    (Array.map
       (fun (node : Synopsis.node) -> { node with label = cut node.label })
       s.Synopsis.nodes)

(* Labels are interned process-wide, so two fresh label sets (the same
   names under two prefixes of one length) stand for two processes
   that met the document's labels in opposite orders. *)
let test_interning_order_irrelevant () =
  List.iter
    (fun (name, doc, budget) ->
      let build prefix ~descending =
        Serialize.to_string
          (unprefixed prefix
             (Build.build_of_tree (relabeled ~prefix ~descending doc) ~budget))
      in
      Alcotest.(check string)
        (Printf.sprintf "%s at %d bytes" name budget)
        (build "up-" ~descending:false)
        (build "dn-" ~descending:true))
    [
      ("imdb", bigger_doc, 2048);
      ("xmark", Datagen.Datasets.generate ~seed:7 ~scale:1.0 Datagen.Datasets.Xmark, 8192);
      ("sprot", Datagen.Datasets.generate ~seed:7 ~scale:0.5 Datagen.Datasets.Sprot, 8192);
    ]

(* Pinned TSBUILD output: a change that moves one of these digests
   changes what every caller builds, and says so by updating them. *)
let test_golden_digests () =
  List.iter
    (fun (ds, scale, budget, expected) ->
      let doc = Datagen.Datasets.generate ~seed:7 ~scale ds in
      Alcotest.(check string)
        (Printf.sprintf "%s x%g at %d bytes" (Datagen.Datasets.name ds) scale budget)
        expected
        (Crc32.to_hex
           (Crc32.string (Serialize.to_string (Build.build_of_tree doc ~budget)))))
    [
      (Datagen.Datasets.Imdb, 0.2, 4096, "5a59beca");
      (Datagen.Datasets.Imdb, 0.2, 8192, "1692240f");
      (Datagen.Datasets.Xmark, 0.5, 4096, "a5c6d5a2");
      (Datagen.Datasets.Xmark, 0.5, 8192, "c3127b41");
      (Datagen.Datasets.Sprot, 0.2, 4096, "5a480470");
      (Datagen.Datasets.Sprot, 0.2, 8192, "7b23b80e");
    ]

(* ---------------- degradation latency ---------------- *)

(* The merge loop consults its control budget every [poll_period]
   candidate pops, so the number of merges applied after a limit trips
   is strictly smaller than one pool regeneration (which takes at
   least [heap_max - heap_min] pops from a full pool). *)
let test_poll_period_bounds () =
  List.iter
    (fun (heap_max, heap_min) ->
      let params = { Build.default_params with heap_max; heap_min } in
      let p = Build.poll_period params in
      Alcotest.(check bool) "positive" true (p >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "under one regeneration (heap_max=%d)" heap_max)
        true
        (p <= max 1 (heap_max - heap_min)))
    [ (10_000, 100); (200, 100); (101, 100); (2, 1); (1_000_000, 10) ]

let test_degrades_before_first_merge () =
  (* a control budget that is already expired must stop the loop before
     any merge is applied: zero degradation latency at the boundary *)
  let stable = Stable.build bigger_doc in
  let cl = Cluster.of_stable stable in
  let ctl = Xmldoc.Budget.create ~deadline:(Xmldoc.Limits.now () -. 1.) () in
  let merges = ref 0 in
  let fitted =
    Build.compress_ctl cl ~budget:64 ~ctl ~on_merge:(fun () -> incr merges)
  in
  Alcotest.(check int) "no merges under an expired deadline" 0 !merges;
  Alcotest.(check bool) "reported as not fitted" false fitted;
  Alcotest.(check bool) "stop is the deadline" true
    (Xmldoc.Budget.stopped ctl = Some Xmldoc.Budget.Deadline)

let test_heap_governor_degrades () =
  (* an absurdly low heap ceiling trips at the first poll: the build
     degrades to best-so-far instead of OOMing *)
  let stable = Stable.build bigger_doc in
  match Build.build_res ~max_heap_words:1 stable ~budget:64 with
  | Error f -> Alcotest.failf "heap-capped build failed: %s" (Xmldoc.Fault.to_string f)
  | Ok { synopsis; degraded } ->
    Alcotest.(check bool) "degraded" true degraded;
    (match Synopsis.validate synopsis with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "degraded synopsis invalid: %s" msg);
    Alcotest.(check int) "nothing merged under heap pressure"
      (Synopsis.num_nodes stable) (Synopsis.num_nodes synopsis)

(* ---------------- checkpointed construction and resume ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "tsbuild" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc text;
  close_out oc

let ok_or_fail what = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" what (Xmldoc.Fault.to_string f)

(* The crash-resume property: resuming from ANY checkpoint of an
   interrupted build yields a valid synopsis meeting the same budget,
   with approximation error in the same ballpark as the uninterrupted
   build's. *)
let test_resume_from_every_checkpoint () =
  with_temp_dir (fun dir ->
      let stable = Stable.build bigger_doc in
      let budget = Synopsis.size_bytes stable / 4 in
      let straight =
        (ok_or_fail "straight build" (Build.build_res stable ~budget)).synopsis
      in
      let esd_straight = Metric.Esd.between_synopses stable straight in
      let ckpt = Filename.concat dir "build.ckpt" in
      let archives = ref [] in
      let archive n =
        let dst = Filename.concat dir (Printf.sprintf "ckpt-%06d" n) in
        copy_file ckpt dst;
        archives := dst :: !archives
      in
      ignore
        (ok_or_fail "checkpointed build"
           (Build.build_checkpointed_res ~checkpoint_every:1 ~on_checkpoint:archive
              ~checkpoint:ckpt stable ~budget));
      let archives = List.rev !archives in
      Alcotest.(check bool) "journal written at every merge" true
        (List.length archives > 10);
      (* every checkpoint is a legal kill point; sample evenly to keep
         the quadratic resume cost in check *)
      let n = List.length archives in
      let sampled =
        List.filteri (fun i _ -> i mod max 1 (n / 20) = 0 || i = n - 1) archives
      in
      List.iter
        (fun path ->
          let { Build.synopsis; _ } =
            ok_or_fail ("resume from " ^ path) (Build.resume_res path)
          in
          (match Synopsis.validate synopsis with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "resumed synopsis invalid: %s" msg);
          Alcotest.(check bool) "meets the original budget" true
            (Synopsis.size_bytes synopsis <= budget);
          T.check_float "elements preserved"
            (float_of_int (Tree.size bigger_doc))
            (Synopsis.total_elements synopsis);
          (* ESD sanity bound: a resumed build may pick different merges
             but its approximation error stays in the same ballpark as
             the uninterrupted build's (both relative to the lossless
             stable summary) *)
          let esd_resumed = Metric.Esd.between_synopses stable synopsis in
          Alcotest.(check bool)
            (Printf.sprintf "ESD sane (resumed %g vs straight %g)" esd_resumed
               esd_straight)
            true
            (esd_resumed <= (3. *. esd_straight) +. 1e-6))
        sampled)

let test_checkpoint_meta_roundtrip () =
  with_temp_dir (fun dir ->
      let stable = Stable.build small_doc in
      let budget = Synopsis.size_bytes stable / 2 in
      let ckpt = Filename.concat dir "meta.ckpt" in
      ignore
        (ok_or_fail "build"
           (Build.build_checkpointed_res ~checkpoint_every:1 ~checkpoint:ckpt stable
              ~budget));
      let { Build.Checkpoint.meta; synopsis } =
        ok_or_fail "load" (Build.Checkpoint.load_res ckpt)
      in
      Alcotest.(check string) "source fingerprint" (Build.Checkpoint.fingerprint stable)
        meta.source;
      Alcotest.(check int) "budget" budget meta.budget;
      Alcotest.(check string) "params hash"
        (Build.Checkpoint.hash_params Build.default_params)
        meta.params_hash;
      Alcotest.(check bool) "merges counted" true (meta.merges > 0);
      match Synopsis.validate synopsis with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "checkpoint synopsis invalid: %s" msg)

let test_resume_rejects_params_mismatch () =
  with_temp_dir (fun dir ->
      let stable = Stable.build bigger_doc in
      let budget = Synopsis.size_bytes stable / 4 in
      let ckpt = Filename.concat dir "params.ckpt" in
      ignore
        (ok_or_fail "build"
           (Build.build_checkpointed_res ~checkpoint_every:1 ~checkpoint:ckpt stable
              ~budget));
      let other = { Build.default_params with heap_max = 777 } in
      match Build.resume_res ~params:other ckpt with
      | Error (Xmldoc.Fault.Corrupt_synopsis _) -> ()
      | Error f -> Alcotest.failf "wrong fault: %s" (Xmldoc.Fault.to_string f)
      | Ok _ -> Alcotest.fail "resume with mismatched params must be rejected")

let prop_build_always_fits =
  T.qtest ~count:40 "TSBUILD fits budget or hits the floor" (T.arb_tree ())
    (fun t ->
      let stable = Stable.build t in
      let budget = max 64 (Synopsis.size_bytes stable / 3) in
      let ts = Build.build stable ~budget in
      let floor_nodes = List.length (Tree.distinct_labels t) in
      Synopsis.size_bytes ts <= budget || Synopsis.num_nodes ts = floor_nodes)

let prop_build_preserves_elements =
  T.qtest ~count:40 "TSBUILD preserves element counts per label" (T.arb_tree ())
    (fun t ->
      let ts = Build.build (Stable.build t) ~budget:128 in
      List.for_all
        (fun l ->
          let total =
            Array.fold_left
              (fun acc (n : Synopsis.node) ->
                if Xmldoc.Label.equal n.label l then acc +. n.count else acc)
              0. ts.Synopsis.nodes
          in
          T.feq total (float_of_int (Tree.count_label l t)))
        (Tree.distinct_labels t))

let prop_sq_error_monotone_in_budget =
  T.qtest ~count:25 "smaller budgets give larger squared error" (T.arb_tree ())
    (fun t ->
      let stable = Stable.build t in
      let full = Synopsis.size_bytes stable in
      let cl1 = Cluster.of_stable stable in
      Build.compress cl1 ~budget:(full / 2);
      let cl2 = Cluster.of_stable stable in
      Build.compress cl2 ~budget:(full / 4);
      Cluster.sq_error cl2 >= Cluster.sq_error cl1 -. 1e-9)

(* ---------------- budget ladders (brownout tiers) ---------------- *)

let build_ladder ?(tiers = 4) doc =
  let stable = Stable.build doc in
  let budget = Synopsis.size_bytes stable / 2 in
  let outcome =
    match Build.build_ladder_res stable ~budget ~tiers with
    | Ok o -> o
    | Error f -> Alcotest.failf "ladder build: %s" (Xmldoc.Fault.to_string f)
  in
  (stable, budget, outcome.Build.ladder)

let test_ladder_milestones () =
  let ms = Build.ladder_milestones ~budget:4096 ~tiers:4 in
  Alcotest.(check (list int)) "halving milestones, finest first"
    [ 4096; 2048; 1024; 512 ] ms;
  Alcotest.(check (list int)) "one tier = the budget itself" [ 4096 ]
    (Build.ladder_milestones ~budget:4096 ~tiers:1)

let test_ladder_tiers_fit_and_validate () =
  let _, budget, ladder = build_ladder bigger_doc in
  Alcotest.(check int) "asked tiers delivered" 4 (List.length ladder);
  Alcotest.(check int) "finest tier carries the full budget" budget
    (fst (List.hd ladder));
  let rec strictly_decreasing = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "budgets strictly decreasing" true
    (strictly_decreasing ladder);
  List.iter
    (fun (b, syn) ->
      Alcotest.(check bool)
        (Printf.sprintf "tier %d fits" b)
        true
        (Synopsis.size_bytes syn <= b);
      match Synopsis.validate syn with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "tier %d invalid: %s" b msg)
    ladder

(* The ladder's whole value proposition: walking down the tiers trades
   accuracy for size monotonically — a coarser tier is never a better
   summary of the reference document than a finer one. *)
let test_ladder_esd_monotone () =
  let stable, _, ladder = build_ladder bigger_doc in
  let esds =
    List.map (fun (b, syn) -> (b, Metric.Esd.between_synopses stable syn)) ladder
  in
  let rec non_decreasing = function
    | (bf, ef) :: (((bc, ec) :: _) as rest) ->
      if ef > ec +. 1e-9 then
        Alcotest.failf
          "coarser tier beat a finer one: budget %d has ESD %g, budget %d \
           has ESD %g"
          bf ef bc ec;
      non_decreasing rest
    | _ -> ()
  in
  non_decreasing esds

let test_ladder_tiers_roundtrip_independently () =
  with_temp_dir (fun dir ->
      let _, _, ladder = build_ladder bigger_doc in
      let path = Filename.concat dir "ladder.ts" in
      (match Serialize.save_ladder_atomic path ladder with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save: %s" (Xmldoc.Fault.to_string f));
      let reloaded =
        match Serialize.load_ladder_res path with
        | Ok tiers -> tiers
        | Error f -> Alcotest.failf "load: %s" (Xmldoc.Fault.to_string f)
      in
      Alcotest.(check int) "tier count survives" (List.length ladder)
        (Array.length reloaded);
      List.iteri
        (fun i (b, syn) ->
          let b', syn' = reloaded.(i) in
          Alcotest.(check int) "budget survives" b b';
          Alcotest.(check int) "size survives" (Synopsis.size_bytes syn)
            (Synopsis.size_bytes syn');
          (* each tier is a complete snapshot in its own right: zero
             drift against its pre-serialization self *)
          T.check_float "tier identical after reload" 0.
            (Metric.Esd.between_synopses syn syn');
          match Synopsis.validate syn' with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "reloaded tier %d invalid: %s" b msg)
        ladder)

let test_ladder_rejects_bad_tier_lists () =
  let _, _, ladder = build_ladder small_doc in
  (match Serialize.to_ladder_string [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ladder accepted");
  let tier = List.hd ladder in
  match Serialize.to_ladder_string [ tier; tier ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-decreasing budgets accepted"

let expect_corrupt what = function
  | Error (Xmldoc.Fault.Corrupt_synopsis _) -> ()
  | Error f ->
    Alcotest.failf "%s: wrong fault %s" what (Xmldoc.Fault.to_string f)
  | Ok _ -> Alcotest.failf "%s: corruption went unnoticed" what

let test_ladder_corruption_detected () =
  let _, _, ladder = build_ladder bigger_doc in
  let text = Serialize.to_ladder_string ladder in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  (* manifest: flip a byte inside a tier line's crc=... hex *)
  let manifest_crc =
    match String.index_opt text 'c' with
    | Some _ ->
      let rec find from =
        let i = String.index_from text from 'c' in
        if String.length text - i > 4 && String.sub text i 4 = "crc=" then
          i + 4
        else find (i + 1)
      in
      find 0
    | None -> Alcotest.fail "no crc in ladder text"
  in
  expect_corrupt "manifest flip"
    (Serialize.of_ladder_string_res (flip text manifest_crc));
  (* payload: flip a byte well past the manifest *)
  expect_corrupt "payload flip"
    (Serialize.of_ladder_string_res (flip text (String.length text - 40)));
  (* tear: drop the tail of the last payload *)
  expect_corrupt "truncated payloads"
    (Serialize.of_ladder_string_res
       (String.sub text 0 (String.length text - 64)));
  (* trailing garbage after the declared payloads *)
  expect_corrupt "trailing garbage"
    (Serialize.of_ladder_string_res (text ^ "spurious bytes\n"));
  (* the single-snapshot loader must not half-read a ladder *)
  match Serialize.of_string_res text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v2 loader swallowed a v4 ladder"

let test_load_any_discriminates () =
  with_temp_dir (fun dir ->
      let stable, _, ladder = build_ladder bigger_doc in
      let single_path = Filename.concat dir "single.ts" in
      let ladder_path = Filename.concat dir "ladder.ts" in
      (match Serialize.save_atomic single_path stable with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save single: %s" (Xmldoc.Fault.to_string f));
      (match Serialize.save_ladder_atomic ladder_path ladder with
      | Ok () -> ()
      | Error f -> Alcotest.failf "save ladder: %s" (Xmldoc.Fault.to_string f));
      (match Serialize.load_any_res single_path with
      | Ok (Serialize.Single _) -> ()
      | Ok (Serialize.Ladder _) -> Alcotest.fail "snapshot read as ladder"
      | Error f -> Alcotest.failf "load single: %s" (Xmldoc.Fault.to_string f));
      match Serialize.load_any_res ladder_path with
      | Ok (Serialize.Ladder tiers) ->
        Alcotest.(check int) "all tiers via load_any" (List.length ladder)
          (Array.length tiers)
      | Ok (Serialize.Single _) -> Alcotest.fail "ladder read as snapshot"
      | Error f -> Alcotest.failf "load ladder: %s" (Xmldoc.Fault.to_string f))

let prop_ladder_tiers_fit_and_roundtrip =
  T.qtest ~count:20 "every ladder tier fits, validates, and round-trips"
    (T.arb_tree ()) (fun t ->
      let stable = Stable.build t in
      let budget = max 256 (Synopsis.size_bytes stable / 2) in
      match Build.build_ladder_res stable ~budget ~tiers:3 with
      | Error _ -> false
      | Ok { Build.ladder; _ } -> (
        match Serialize.of_ladder_string_res (Serialize.to_ladder_string ladder)
        with
        | Error _ -> false
        | Ok tiers ->
          Array.for_all
            (fun (b, syn) ->
              Synopsis.validate syn = Ok ()
              && (Synopsis.size_bytes syn <= b
                 || Synopsis.num_nodes syn
                    = List.length (Tree.distinct_labels t)))
            tiers))

(* ---------------- top-down construction ---------------- *)

let test_topdown_basics () =
  let stable = Stable.build bigger_doc in
  let budget = Synopsis.size_bytes stable / 4 in
  let td, sq = Topdown.build stable ~budget in
  Alcotest.(check bool) "near budget" true
    (Synopsis.size_bytes td <= budget + 512);
  Alcotest.(check bool) "positive error under compression" true (sq >= 0.);
  T.check_float "elements preserved"
    (float_of_int (Tree.size bigger_doc))
    (Synopsis.total_elements td)

let test_topdown_full_budget () =
  (* with room for the whole stable summary, splitting drives the
     squared error to (near) zero *)
  let stable = Stable.build small_doc in
  let _, sq = Topdown.build stable ~budget:(4 * Synopsis.size_bytes stable) in
  T.check_float "zero error at full budget" 0. sq

let test_topdown_label_floor () =
  let stable = Stable.build small_doc in
  let td, _ = Topdown.build stable ~budget:1 in
  Alcotest.(check int) "label-split floor"
    (List.length (Tree.distinct_labels small_doc))
    (Synopsis.num_nodes td)

let () =
  Alcotest.run "build"
    [
      ( "cluster",
        [
          Alcotest.test_case "initial state" `Quick test_cluster_initial;
          Alcotest.test_case "merge p classes" `Quick test_cluster_merge_p_classes;
          Alcotest.test_case "merge rejections" `Quick test_cluster_merge_rejects;
          Alcotest.test_case "random merges consistent" `Slow test_random_merges_consistency;
          Alcotest.test_case "delta matches merge" `Slow test_delta_matches_merge;
        ] );
      ( "tsbuild",
        [
          Alcotest.test_case "respects budget" `Quick test_build_respects_budget;
          Alcotest.test_case "label-split floor" `Quick test_build_label_split_floor;
          Alcotest.test_case "no merge when room" `Quick test_build_zero_error_when_room;
          Alcotest.test_case "checkpoints" `Slow test_build_with_checkpoints;
          Alcotest.test_case "sweep budget lists" `Quick test_sweep_budget_lists;
          prop_build_always_fits;
          prop_build_preserves_elements;
          prop_sq_error_monotone_in_budget;
          Alcotest.test_case "every merge consistent" `Quick test_every_merge_consistent;
          prop_every_merge_consistent;
          Alcotest.test_case "interning order irrelevant" `Quick
            test_interning_order_irrelevant;
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "poll period bounds" `Quick test_poll_period_bounds;
          Alcotest.test_case "expired deadline: zero merges" `Quick
            test_degrades_before_first_merge;
          Alcotest.test_case "heap governor" `Quick test_heap_governor_degrades;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume from every checkpoint" `Slow
            test_resume_from_every_checkpoint;
          Alcotest.test_case "meta roundtrip" `Quick test_checkpoint_meta_roundtrip;
          Alcotest.test_case "params mismatch rejected" `Quick
            test_resume_rejects_params_mismatch;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "milestones" `Quick test_ladder_milestones;
          Alcotest.test_case "tiers fit and validate" `Quick
            test_ladder_tiers_fit_and_validate;
          Alcotest.test_case "ESD monotone down the ladder" `Quick
            test_ladder_esd_monotone;
          Alcotest.test_case "tiers round-trip independently" `Quick
            test_ladder_tiers_roundtrip_independently;
          Alcotest.test_case "bad tier lists rejected" `Quick
            test_ladder_rejects_bad_tier_lists;
          Alcotest.test_case "corruption detected" `Quick
            test_ladder_corruption_detected;
          Alcotest.test_case "load_any discriminates" `Quick
            test_load_any_discriminates;
          prop_ladder_tiers_fit_and_roundtrip;
        ] );
      ( "topdown",
        [
          Alcotest.test_case "basics" `Quick test_topdown_basics;
          Alcotest.test_case "full budget" `Quick test_topdown_full_budget;
          Alcotest.test_case "label floor" `Quick test_topdown_label_floor;
        ] );
    ]
