type params = {
  heap_max : int;
  heap_min : int;
  max_pairs_per_group : int;
}

let default_params = { heap_max = 10_000; heap_min = 100; max_pairs_per_group = 200_000 }

type candidate = {
  u : int;
  v : int;
  ver_u : int;
  ver_v : int;
}

let push_candidate cl heap ~heap_max u v =
  match Cluster.delta cl u v with
  | None -> ()
  | Some { errd; sized } ->
    let ratio = errd /. float_of_int sized in
    Dheap.push heap ratio
      { u; v; ver_u = Cluster.version cl u; ver_v = Cluster.version cl v };
    if Dheap.length heap > heap_max then ignore (Dheap.pop_max heap)

(* CREATEPOOL (Figure 6): candidate same-label pairs at increasing
   depth, until all depths are done or the pool is full after a
   complete depth. *)
let create_pool params cl =
  let heap : candidate Dheap.t = Dheap.create () in
  (* group representatives by label, the groups in label-string order:
     interned label ids depend on the order a process first saw its
     labels, and one document must give one synopsis in any process *)
  let by_label : (Xmldoc.Label.t, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = Cluster.label cl r in
      match Hashtbl.find_opt by_label key with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add by_label key (ref [ r ]))
    (Cluster.alive_ids cl);
  let groups =
    Hashtbl.fold (fun key l acc -> (Xmldoc.Label.to_string key, l) :: acc) by_label []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
  in
  let max_height =
    List.fold_left (fun acc r -> max acc (Cluster.height cl r)) 0 (Cluster.alive_ids cl)
  in
  (* thin a list deterministically to at most [limit] elements *)
  let thin limit l =
    let n = List.length l in
    if n <= limit then l
    else begin
      let stride = (n + limit - 1) / limit in
      List.filteri (fun i _ -> i mod stride = 0) l
    end
  in
  let level = ref 0 in
  let continue_ = ref true in
  while !continue_ && !level <= max_height do
    List.iter
      (fun group ->
        let eq = List.filter (fun r -> Cluster.height cl r = !level) !group in
        let lower = List.filter (fun r -> Cluster.height cl r < !level) !group in
        (* pair budget per (label, depth) group *)
        let n_eq = List.length eq and n_lo = List.length lower in
        let pairs = (n_eq * (n_eq - 1) / 2) + (n_eq * n_lo) in
        let eq, lower =
          if pairs > params.max_pairs_per_group then begin
            let limit =
              max 2 (int_of_float (sqrt (float_of_int params.max_pairs_per_group)))
            in
            (thin limit eq, thin limit lower)
          end
          else (eq, lower)
        in
        let rec eq_pairs = function
          | [] -> ()
          | u :: rest ->
            List.iter (fun v -> push_candidate cl heap ~heap_max:params.heap_max u v) rest;
            List.iter
              (fun v -> push_candidate cl heap ~heap_max:params.heap_max u v)
              lower;
            eq_pairs rest
        in
        eq_pairs eq)
      groups;
    if Dheap.length heap >= params.heap_max then continue_ := false;
    incr level
  done;
  heap

(* Limit-poll cadence of the merge loop: consulting the clock (and the
   GC counters) costs a system call, so the control budget is polled
   only every [poll_period] candidate pops — the per-pop cost of
   cancellation support is one integer increment.  Tied to the pool
   capacity so that degradation latency is always bounded by a fraction
   of one pool drain, i.e. strictly under one pool regeneration. *)
let poll_period params = max 1 (min 512 (params.heap_max / 64))

(* TSBUILD (Figure 5) with a callback invoked after every applied
   merge, used to snapshot checkpoints, and a control budget [ctl]
   carrying the deadline and the heap-pressure ceiling.  Returns
   [false] iff the budget stopped the build before the space budget (or
   the label-split floor) was reached — the clustering is then left at
   the best state reached so far, which is always a valid synopsis. *)
let compress_gen params cl ~budget ~ctl ~on_merge =
  (* the very first poll catches an already-tripped budget before any
     merge is applied *)
  let stopped = ref (not (Xmldoc.Budget.poll ctl)) in
  let period = poll_period params in
  let since_poll = ref 0 in
  let keep_going () =
    incr since_poll;
    if !since_poll >= period then begin
      since_poll := 0;
      stopped := not (Xmldoc.Budget.poll ctl)
    end;
    not !stopped
  in
  let exhausted = ref false in
  while Cluster.size_bytes cl > budget && (not !exhausted) && not !stopped do
    let heap = create_pool params cl in
    stopped := not (Xmldoc.Budget.poll ctl);
    if Dheap.is_empty heap then exhausted := true
    else if not !stopped then begin
      (* When the whole pool fits under Lh, regenerating it would yield
         the same candidates: drain it completely instead. *)
      let low_mark = if Dheap.length heap <= params.heap_min then 0 else params.heap_min in
      let progressed = ref false in
      let continue_ = ref true in
      while
        !continue_
        && Cluster.size_bytes cl > budget
        && Dheap.length heap > low_mark
        && keep_going ()
      do
        match Dheap.pop_min heap with
        | None -> continue_ := false
        | Some (_, cand) ->
          let u = Cluster.find cl cand.u and v = Cluster.find cl cand.v in
          if u <> v then begin
            if
              u = cand.u && v = cand.v
              && Cluster.version cl u = cand.ver_u
              && Cluster.version cl v = cand.ver_v
            then begin
              ignore (Cluster.merge cl u v);
              progressed := true;
              on_merge ()
            end
            else
              (* stale: re-evaluate against the current clustering *)
              push_candidate cl heap ~heap_max:params.heap_max u v
          end
      done;
      (* A pool that produced no merge at all cannot make progress by
         regeneration either. *)
      if (not !progressed) && (not !stopped) && Dheap.length heap <= low_mark then
        exhausted := true
    end
  done;
  not (!stopped && Cluster.size_bytes cl > budget)

let compress_ctl ?(params = default_params) cl ~budget ~ctl ~on_merge =
  compress_gen params cl ~budget ~ctl ~on_merge

let compress ?(params = default_params) cl ~budget =
  ignore
    (compress_gen params cl ~budget ~ctl:(Xmldoc.Budget.unlimited ())
       ~on_merge:(fun () -> ()))

let build ?params stable ~budget =
  let cl = Cluster.of_stable stable in
  compress ?params cl ~budget;
  Cluster.to_synopsis cl

type outcome = {
  synopsis : Synopsis.t;
  degraded : bool;
}

let invalid_output message =
  (* TSBUILD broke its own invariants — an internal bug, but still
     reported as a structured error rather than an exception. *)
  Xmldoc.Fault.Corrupt_synopsis
    {
      line = 0;
      content = "";
      message = Printf.sprintf "TSBUILD produced an invalid synopsis: %s" message;
    }

let finish cl ~completed =
  let synopsis = Cluster.to_synopsis cl in
  match Synopsis.validate synopsis with
  | Error message -> Error (invalid_output message)
  | Ok () -> Ok { synopsis; degraded = not completed }

let ctl_of ?(limits = Xmldoc.Limits.unlimited) ?max_heap_words () =
  Xmldoc.Budget.of_limits ?max_heap_words limits

let build_res ?(params = default_params) ?limits ?max_heap_words stable ~budget =
  match Synopsis.validate stable with
  | Error message ->
    Error (Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message })
  | Ok () ->
    let cl = Cluster.of_stable stable in
    let ctl = ctl_of ?limits ?max_heap_words () in
    let completed = compress_gen params cl ~budget ~ctl ~on_merge:(fun () -> ()) in
    finish cl ~completed

let build_of_tree ?params tree ~budget = build ?params (Stable.build tree) ~budget

(* Disjoint union of synopses that summarize fragments under one shared
   document root: a single fresh root (count 1) adopts every input
   root's out-edges; all other nodes are copied with their ids offset.
   This is the pre-compression step of delta compaction — the union is
   exact (each input's extents are disjoint sub-forests of the same
   document), and a normal [build_res] pass afterwards compresses it
   back under budget. *)
let merge_disjoint synopses =
  match synopses with
  | [] -> Error "merge of zero synopses"
  | first :: rest ->
    let root_label = Synopsis.label first first.Synopsis.root in
    let mismatched =
      List.exists
        (fun s -> not (Xmldoc.Label.equal (Synopsis.label s s.Synopsis.root) root_label))
        rest
    in
    if mismatched then Error "merge of synopses with different root labels"
    else if
      List.exists
        (fun s ->
          Array.exists
            (fun node ->
              Array.exists (fun (v, _) -> v = s.Synopsis.root) node.Synopsis.edges)
            s.Synopsis.nodes)
        synopses
    then
      (* never produced by a tree summary — the root has no parents *)
      Error "merge of synopses with in-edges on the root"
    else begin
      let total =
        List.fold_left (fun acc s -> acc + Synopsis.num_nodes s - 1) 1 synopses
      in
      let nodes = Array.make total { Synopsis.label = root_label; count = 1.0; edges = [||] } in
      let root_edges = ref [] in
      let offset = ref 1 in
      List.iter
        (fun s ->
          let base = !offset in
          let remap u = base + if u < s.Synopsis.root then u else u - 1 in
          Array.iteri
            (fun u node ->
              let edges =
                Array.map (fun (v, avg) -> (remap v, avg)) node.Synopsis.edges
              in
              if u = s.Synopsis.root then root_edges := edges :: !root_edges
              else nodes.(remap u) <- { node with Synopsis.edges })
            s.Synopsis.nodes;
          offset := base + Synopsis.num_nodes s - 1)
        synopses;
      let edges = Array.concat (List.rev !root_edges) in
      nodes.(0) <- { Synopsis.label = root_label; count = 1.0; edges };
      let merged = Synopsis.make ~root:0 nodes in
      match Synopsis.validate merged with
      | Error message -> Error message
      | Ok () -> Ok merged
    end

(* Subtract the subtrees matched by slash-style label paths from a
   synopsis rooted at the shared document root.  A path [l1; ...; lk]
   is walked as a frontier from the root — step i keeps exactly the
   edge targets labeled [li] — and the edges reaching the final
   frontier are cut.  Nodes left unreachable from the root are dropped
   (ids remapped); a cut target still reachable through other paths
   keeps its node but loses the cut parents' contribution to its count
   (clamped at 0).  On the exact tree-shaped summaries delta levels are
   built from this removes the deleted subtrees precisely; on a
   compressed synopsis — where one class can stand for elements on
   several paths — the subtraction is approximate, like every other
   answer derived from it. *)
let prune_paths synopsis paths =
  let paths = List.filter (fun p -> p <> []) paths in
  if paths = [] then synopsis
  else begin
    let nodes = synopsis.Synopsis.nodes in
    let cut : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let removed = Array.make (Array.length nodes) 0.0 in
    List.iter
      (fun path ->
        let rec walk frontier = function
          | [] -> ()
          | [ last ] ->
            List.iter
              (fun u ->
                Array.iter
                  (fun (v, avg) ->
                    if Xmldoc.Label.equal (Synopsis.label synopsis v) last then begin
                      if not (Hashtbl.mem cut (u, v)) then begin
                        Hashtbl.add cut (u, v) ();
                        removed.(v) <-
                          removed.(v) +. (Synopsis.count synopsis u *. avg)
                      end
                    end)
                  nodes.(u).Synopsis.edges)
              frontier
          | l :: rest ->
            let next = ref [] in
            List.iter
              (fun u ->
                Array.iter
                  (fun (v, _) ->
                    if
                      Xmldoc.Label.equal (Synopsis.label synopsis v) l
                      && not (List.mem v !next)
                    then next := v :: !next)
                  nodes.(u).Synopsis.edges)
              frontier;
            walk !next rest
        in
        walk [ synopsis.Synopsis.root ] path)
      paths;
    if Hashtbl.length cut = 0 then synopsis
    else begin
      let kept_edges u =
        Array.of_seq
          (Seq.filter
             (fun (v, _) -> not (Hashtbl.mem cut (u, v)))
             (Array.to_seq nodes.(u).Synopsis.edges))
      in
      (* reachability from the root over the surviving edges *)
      let reachable = Array.make (Array.length nodes) false in
      let rec visit u =
        if not reachable.(u) then begin
          reachable.(u) <- true;
          Array.iter (fun (v, _) -> visit v) (kept_edges u)
        end
      in
      visit synopsis.Synopsis.root;
      let remap = Array.make (Array.length nodes) (-1) in
      let kept = ref 0 in
      Array.iteri
        (fun u alive ->
          if alive then begin
            remap.(u) <- !kept;
            incr kept
          end)
        reachable;
      let out = Array.make !kept nodes.(synopsis.Synopsis.root) in
      Array.iteri
        (fun u alive ->
          if alive then begin
            let node = nodes.(u) in
            let count = Float.max 0.0 (node.Synopsis.count -. removed.(u)) in
            let edges =
              Array.map (fun (v, avg) -> (remap.(v), avg)) (kept_edges u)
            in
            out.(remap.(u)) <- { node with Synopsis.count; edges }
          end)
        reachable;
      Synopsis.make ~root:remap.(synopsis.Synopsis.root) out
    end
  end

(* Tombstone-cancelling merge: fold delta levels oldest-first, applying
   each level's tombstones to the accumulated (strictly older) union
   before its own content joins — the merge-time counterpart of the
   query path's per-level subtraction.  The first level's tombstones
   address data older than anything given here and cancel to nothing,
   so a full-stack compaction emits a level that owes no tombstones at
   all: deletion becomes physical reclamation. *)
let merge_tombstoned levels =
  match levels with
  | [] -> Error "merge of zero synopses"
  | (first, _) :: rest ->
    List.fold_left
      (fun acc (s, tombs) ->
        Result.bind acc (fun a -> merge_disjoint [ prune_paths a tombs; s ]))
      (Ok first) rest

(* ------------------------------------------------------------------ *)
(* Crash-safe checkpointing and resume                                  *)
(* ------------------------------------------------------------------ *)

module Checkpoint = struct
  type meta = {
    source : string;
    budget : int;
    params_hash : string;
    merges : int;
  }

  let fingerprint s = Crc32.to_hex (Crc32.string (Serialize.to_string s))

  let hash_params (p : params) =
    Crc32.to_hex
      (Crc32.string
         (Printf.sprintf "heap_max=%d heap_min=%d max_pairs=%d" p.heap_max
            p.heap_min p.max_pairs_per_group))

  type t = {
    synopsis : Synopsis.t;
    meta : meta;
  }

  let to_records m =
    [
      ("source", m.source);
      ("budget", string_of_int m.budget);
      ("params", m.params_hash);
      ("merges", string_of_int m.merges);
    ]

  let corrupt message =
    Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message }

  let of_records kvs =
    let ( let* ) = Result.bind in
    let get key =
      match List.assoc_opt key kvs with
      | Some v -> Ok v
      | None -> Error (corrupt (Printf.sprintf "checkpoint missing meta key %S" key))
    in
    let int_meta key =
      let* v = get key in
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ ->
        Error
          (corrupt (Printf.sprintf "checkpoint meta %s=%S is not a count" key v))
    in
    let* source = get "source" in
    let* params_hash = get "params" in
    let* budget = int_meta "budget" in
    let* merges = int_meta "merges" in
    if budget = 0 then Error (corrupt "checkpoint meta budget=0")
    else Ok { source; budget; params_hash; merges }

  let save path t = Serialize.save_atomic ~meta:(to_records t.meta) path t.synopsis

  let load_res ?limits path =
    match Serialize.load_meta_res ?limits path with
    | Error f -> Error f
    | Ok (synopsis, kvs) -> (
      match of_records kvs with
      | Ok meta -> Ok { synopsis; meta }
      | Error f -> Error (Xmldoc.Fault.with_path path f))
end

let default_checkpoint_every = 256

(* Shared tail of fresh-checkpointed and resumed builds: run the merge
   loop snapshotting the clustering into [checkpoint] every
   [every] merges, plus once on degradation so a successor resumes from
   exactly the best state reached.  Checkpoint writes are best-effort —
   an unwritable journal must not kill the build it exists to
   protect — but each write that does land is atomic and checksummed,
   so a crash at any moment leaves the previous complete checkpoint. *)
let compress_with_checkpoints params cl ~ctl ~checkpoint ~every ~on_checkpoint
    ~(meta : Checkpoint.meta) =
  let merges = ref meta.merges in
  let save_checkpoint () =
    let t =
      {
        Checkpoint.synopsis = Cluster.to_synopsis cl;
        meta = { meta with merges = !merges };
      }
    in
    match Checkpoint.save checkpoint t with
    | Ok () -> on_checkpoint !merges
    | Error _ -> ()
  in
  let on_merge () =
    incr merges;
    if !merges mod every = 0 then save_checkpoint ()
  in
  let completed = compress_gen params cl ~budget:meta.budget ~ctl ~on_merge in
  if not completed then save_checkpoint ();
  completed

let build_checkpointed_res ?(params = default_params) ?limits ?max_heap_words
    ?(checkpoint_every = default_checkpoint_every)
    ?(on_checkpoint = fun (_ : int) -> ()) ~checkpoint stable ~budget =
  if checkpoint_every < 1 then invalid_arg "Build: checkpoint_every must be >= 1";
  match Synopsis.validate stable with
  | Error message ->
    Error (Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message })
  | Ok () ->
    let cl = Cluster.of_stable stable in
    let ctl = ctl_of ?limits ?max_heap_words () in
    let meta =
      {
        Checkpoint.source = Checkpoint.fingerprint stable;
        budget;
        params_hash = Checkpoint.hash_params params;
        merges = 0;
      }
    in
    let completed =
      compress_with_checkpoints params cl ~ctl ~checkpoint
        ~every:checkpoint_every ~on_checkpoint ~meta
    in
    finish cl ~completed

let resume_res ?(params = default_params) ?limits ?max_heap_words
    ?(checkpoint_every = default_checkpoint_every)
    ?(on_checkpoint = fun (_ : int) -> ()) checkpoint =
  if checkpoint_every < 1 then invalid_arg "Build: checkpoint_every must be >= 1";
  match Checkpoint.load_res checkpoint with
  | Error f -> Error f
  | Ok { synopsis; meta } ->
    if meta.params_hash <> Checkpoint.hash_params params then
      Error
        (Xmldoc.Fault.with_path checkpoint
           (Checkpoint.corrupt
              "checkpoint was written under different TSBUILD parameters; \
               resume with the original params or rebuild from scratch"))
    else begin
      (* The checkpointed clustering becomes the new merge base: its
         nodes are exactly the live clusters at checkpoint time, so
         continuing the greedy loop from it extends the original merge
         sequence.  [meta.source] is carried along unchanged so
         repeated crash/resume cycles still identify their document. *)
      let cl = Cluster.of_stable synopsis in
      let ctl = ctl_of ?limits ?max_heap_words () in
      let completed =
        compress_with_checkpoints params cl ~ctl ~checkpoint
          ~every:checkpoint_every ~on_checkpoint ~meta
      in
      finish cl ~completed
    end

let build_with_checkpoints ?(params = default_params) stable ~budgets =
  let sorted = List.sort_uniq (fun a b -> Stdlib.compare b a) budgets in
  let cl = Cluster.of_stable stable in
  let results = Hashtbl.create 8 in
  let remaining = ref sorted in
  let snapshot_reached () =
    let rec loop () =
      match !remaining with
      | b :: rest when Cluster.size_bytes cl <= b ->
        Hashtbl.replace results b (Cluster.to_synopsis cl);
        remaining := rest;
        loop ()
      | _ -> ()
    in
    loop ()
  in
  snapshot_reached ();
  (match !remaining with
  | [] -> ()
  | _ ->
    let final = List.fold_left min max_int sorted in
    ignore
      (compress_gen params cl ~budget:final ~ctl:(Xmldoc.Budget.unlimited ())
         ~on_merge:snapshot_reached));
  (* Budgets below the label-split floor get the smallest synopsis. *)
  let floor = Cluster.to_synopsis cl in
  List.map
    (fun b ->
      match Hashtbl.find_opt results b with
      | Some s -> (b, s)
      | None -> (b, floor))
    budgets

(* ------------------------------------------------------------------ *)
(* Degradation ladders                                                  *)
(* ------------------------------------------------------------------ *)

let ladder_milestones ~budget ~tiers =
  if tiers < 1 then invalid_arg "Build: ladder tiers must be >= 1";
  if budget < 1 then invalid_arg "Build: ladder budget must be >= 1";
  (* budget, budget/2, budget/4, ...: strictly decreasing, stopping
     early once halving bottoms out at 1 byte. *)
  let rec go acc b k =
    if k = 0 || b < 1 then List.rev acc
    else
      match acc with
      | prev :: _ when b >= prev -> List.rev acc
      | _ -> go (b :: acc) (b / 2) (k - 1)
  in
  go [] budget tiers

type ladder_outcome = {
  ladder : (int * Synopsis.t) list;
  ladder_degraded : bool;
}

let build_ladder_res ?(params = default_params) ?limits ?max_heap_words stable
    ~budget ~tiers =
  let milestones = ladder_milestones ~budget ~tiers in
  match Synopsis.validate stable with
  | Error message ->
    Error (Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message })
  | Ok () ->
    let cl = Cluster.of_stable stable in
    let ctl = ctl_of ?limits ?max_heap_words () in
    let results = Hashtbl.create 8 in
    let remaining = ref milestones in
    let snapshot_reached () =
      let rec loop () =
        match !remaining with
        | b :: rest when Cluster.size_bytes cl <= b ->
          Hashtbl.replace results b (Cluster.to_synopsis cl);
          remaining := rest;
          loop ()
        | _ -> ()
      in
      loop ()
    in
    snapshot_reached ();
    let completed =
      match !remaining with
      | [] -> true
      | _ ->
        let final = List.fold_left min max_int milestones in
        compress_gen params cl ~budget:final ~ctl ~on_merge:snapshot_reached
    in
    (* Milestones never reached — label-split floor, or a control budget
       that stopped the loop — get the best (smallest) state reached, so
       a degraded build still publishes a complete, coherent ladder. *)
    let floor = Cluster.to_synopsis cl in
    let ladder =
      List.map
        (fun b ->
          match Hashtbl.find_opt results b with
          | Some s -> (b, s)
          | None -> (b, floor))
        milestones
    in
    let rec validate_all = function
      | [] -> Ok { ladder; ladder_degraded = not completed }
      | (_, s) :: rest -> (
        match Synopsis.validate s with
        | Ok () -> validate_all rest
        | Error message -> Error (invalid_output message))
    in
    validate_all ladder
