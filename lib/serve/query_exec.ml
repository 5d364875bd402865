type caps = {
  deadline : float option;
  max_answer_nodes : int;
  max_work : int;
  max_heap_words : int;
}

(* Per-request budget: the request's own [-deadline]/[-max-nodes] can
   tighten the caps, never widen them. *)
let budget_for caps (opts : Protocol.opts) =
  let relative =
    match (caps.deadline, opts.deadline) with
    | None, req -> req
    | (Some _ as cfg), None -> cfg
    | Some cfg, Some req -> Some (Float.min cfg req)
  in
  let deadline = Option.map (fun s -> Xmldoc.Limits.now () +. s) relative in
  let max_nodes =
    match opts.max_nodes with
    | Some n -> min n caps.max_answer_nodes
    | None -> caps.max_answer_nodes
  in
  let max_heap_words =
    if caps.max_heap_words = max_int then None else Some caps.max_heap_words
  in
  Xmldoc.Budget.create ?deadline ~max_nodes ~max_work:caps.max_work
    ?max_heap_words ()

type kind =
  | Query
  | Answer

type outcome = {
  response : string;
  degraded : bool;
}

let any_degraded answers =
  List.exists (fun (a : Sketch.Eval.answer) -> a.degraded) answers

(* The response's [degraded=] token: why the request budget stopped, or
   [work] when it did not but the per-search work cap of
   {!Sketch.Eval} cut some level's answer short. *)
let degraded_token budget answers =
  match Xmldoc.Budget.stopped budget with
  | None when any_degraded answers ->
    Protocol.degraded_token (Some Xmldoc.Budget.Work_cap)
  | stop -> Protocol.degraded_token stop

(* Which ladder rung serves this request: the coarser of the request's
   own [-tier] ask and the server's degradation level, clamped to the
   rungs the entry actually has.  Plain single-tier entries never get a
   tag, keeping their responses byte-identical to earlier versions. *)
let select_tier (entry : Catalog.entry) (opts : Protocol.opts) ~level =
  let n = Array.length entry.Catalog.tiers in
  let requested = match opts.Protocol.tier with Some k -> k | None -> 0 in
  let k = min (max requested (max level 0)) (n - 1) in
  let t = Catalog.tier_for entry k in
  let tag = if n > 1 then Some (k, n, t.Catalog.t_budget) else None in
  (t.Catalog.t_synopsis, tag)

let run ?tier ?levels ~budget kind synopsis q =
  let tier_tag =
    match tier with
    | None -> ""
    | Some (k, n, bytes) -> Printf.sprintf " tier=%d/%d budget=%d" k n bytes
  in
  (* The live-update level stack: base plus every delta TreeSketch,
     each evaluated independently under the ONE request budget and
     combined (extents across levels are disjoint sub-forests of the
     same document, so selectivities add and result forests
     concatenate).  Deletion subtracts here: each level is masked by
     the union of every STRICTLY NEWER level's tombstone paths
     ({!Sketch.Build.prune_paths}) before evaluation — a deleted
     subtree's contribution vanishes from the answer the moment its
     tombstone's batch flushes, while compaction reclaims it physically
     later.  The base is never masked (deletion addresses live-ingested
     data; a level's own content is already net of its own tombs).
     Entries without levels take the exact single-synopsis path — their
     responses stay byte-identical. *)
  let stack, level_tag =
    match levels with
    | None -> ([ synopsis ], "")
    | Some (ls, _) when Array.length ls = 0 -> ([ synopsis ], "")
    | Some (ls, staleness) ->
      let n = Array.length ls in
      let masked =
        List.init n (fun i ->
            let s, _ = ls.(i) in
            let newer_tombs =
              List.concat
                (List.init (n - i - 1) (fun j -> snd ls.(i + 1 + j)))
            in
            if newer_tombs = [] then s
            else Sketch.Build.prune_paths s newer_tombs)
      in
      ( synopsis :: masked,
        Printf.sprintf " levels=%d staleness=%.3f" n staleness )
  in
  let tier_tag = tier_tag ^ level_tag in
  match kind with
  | Query ->
    let answers = List.map (fun s -> Sketch.Eval.eval ~budget s q) stack in
    let est =
      List.fold_left
        (fun acc (ans : Sketch.Eval.answer) ->
          acc +. Sketch.Selectivity.of_answer q ans)
        0. answers
    in
    {
      response =
        Printf.sprintf "ok query degraded=%s%s est=%g classes=%d empty=%s"
          (degraded_token budget answers)
          tier_tag est
          (List.fold_left
             (fun acc (ans : Sketch.Eval.answer) ->
               acc + Sketch.Synopsis.num_nodes ans.synopsis)
             0 answers)
          (Protocol.yes_no (List.for_all (fun (a : Sketch.Eval.answer) -> a.empty) answers));
      degraded = any_degraded answers;
    }
  | Answer ->
    (* One budget spans evaluation and expansion: the request's caps
       are end-to-end, whichever stage exhausts them. *)
    let answers = List.map (fun s -> Sketch.Eval.eval ~budget s q) stack in
    if List.for_all (fun (a : Sketch.Eval.answer) -> a.empty) answers then
      {
        response =
          Printf.sprintf "ok answer degraded=%s%s empty=yes"
            (degraded_token budget answers)
            tier_tag;
        degraded = any_degraded answers;
      }
    else begin
      let parts =
        List.filter_map
          (fun (ans : Sketch.Eval.answer) ->
            if ans.empty then None
            else Some (Sketch.Expand.partial ~budget ans.synopsis))
          answers
      in
      let tree, nodes, truncated =
        match parts with
        | [ p ] -> (p.Sketch.Expand.tree, p.nodes, p.truncated)
        | ps ->
          (* per-level forests share the document root: concatenate
             their children under one root node *)
          let root = (List.hd ps).Sketch.Expand.tree.Xmldoc.Tree.label in
          let merged =
            Xmldoc.Tree.make root
              (List.concat_map
                 (fun p ->
                   Array.to_list p.Sketch.Expand.tree.Xmldoc.Tree.children)
                 ps)
          in
          ( merged,
            Xmldoc.Tree.size merged,
            List.exists (fun p -> p.Sketch.Expand.truncated) ps )
      in
      {
        response =
          Printf.sprintf "ok answer degraded=%s%s truncated=%s nodes=%d tree=%s"
            (degraded_token budget answers)
            tier_tag (Protocol.yes_no truncated) nodes
            (Protocol.one_line (Xmldoc.Printer.to_string tree));
        degraded =
          Xmldoc.Budget.stopped budget <> None
          || truncated
          || any_degraded answers;
      }
    end

(* The last line of defense on the read path.  [Stack_overflow] and
   [Out_of_memory] are the two asynchronous-ish failures a hostile or
   pathological query can provoke that the cooperative budget cannot
   always intercept (a single allocation or recursion step overshoots
   before the next tick).  In a pool worker this turns a would-be
   worker death into a structured response; with the pool disabled it
   keeps the connection loop alive.  On OOM a compaction runs first so
   the error path itself has room to allocate the response. *)
let guard f =
  match f () with
  | outcome -> outcome
  | exception Stack_overflow ->
    {
      response =
        Protocol.fault_line
          (Xmldoc.Fault.Worker_crash
             { reason = "stack overflow during evaluation (contained)" });
      degraded = false;
    }
  | exception Out_of_memory ->
    Gc.compact ();
    {
      response =
        Protocol.fault_line
          (Xmldoc.Fault.Worker_crash
             { reason = "out of memory during evaluation (contained)" });
      degraded = false;
    }

let run_guarded ?tier ?levels ~budget kind synopsis q =
  guard (fun () -> run ?tier ?levels ~budget kind synopsis q)
