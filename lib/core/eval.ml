module Syntax = Twig.Syntax

let prune_below = 1e-12

(* Maximum number of times one synopsis node may appear on a single
   //-step embedding path.  Compressed synopses can be cyclic (merges
   of same-label nodes at different depths); bounding the unrolling
   keeps the enumeration finite and prevents the loop's average counts
   from being multiplied all the way to the hop limit. *)
let cycle_unroll = 3

type answer = {
  synopsis : Synopsis.t;
  raw : Synopsis.t;
  source : int array;
  var : int array;
  empty : bool;
  degraded : bool;
  cuts : int;
}

(* Enumeration work budget: synopsis graphs with many same-label nodes
   can harbor combinatorially many embeddings; one search (a parent
   binding's embeddings along one query edge) stops expanding once it
   has spent this many edge visits.  A suffix or predicate another
   search already memoized costs nothing, so the cap binds only where a
   search enumerates that much itself; when it does, the answer says so
   ([cuts], [degraded]). *)
let embedding_work_budget = 200_000

(* A query path compiled for one evaluation: each step carries the id
   of the suffix that starts at it and of its predicate list, so the
   memo tables below are keyed by ints, never by a path. *)
type step = {
  id : int;
  axis : Syntax.axis;
  label : Xmldoc.Label.t;
  preds : preds;
}

and preds = {
  pid : int;
  paths : step list list;
}

type ctx = {
  ts : Synopsis.t;
  max_hops : int;
  budget : Xmldoc.Budget.t;
      (* cooperative cancellation: per-request deadline / node / work
         caps from the serving layer, tick-checked in the DFS *)
  (* per target label: bitmap of nodes from which the label is
     reachable through at least one edge — prunes fruitless DFS
     branches of //-steps *)
  reach : (int, Bytes.t) Hashtbl.t;
  mutable work : int;  (* edge visits left to the current search *)
  mutable refused : int;  (* expansions the work cap refused, in total *)
  mutable cuts : int;  (* searches the work cap cut short *)
  (* structural ids of the query's suffixes and predicate lists *)
  suffix_ids : (Syntax.path, step list) Hashtbl.t;
  pred_ids : (Syntax.path list, preds) Hashtbl.t;
  (* (suffix id, node) -> the suffix's embeddings from the node, summed
     per end node in the order the DFS first met them — the order a
     per-path enumeration emits them in, so the tables built from a
     memoized suffix iterate, and answers number their nodes, as that
     enumeration would *)
  suffixes : (int * int, (int * float) array) Hashtbl.t;
  (* (predicate-list id, node) -> selectivity of the list at the node *)
  selectivities : (int * int, float) Hashtbl.t;
}

(* Default hop bound: enough for the synopsis's acyclic height (so
   evaluation over a stable summary is never truncated), floored at 20
   and capped at 64 for heavily cyclic graphs. *)
let default_max_hops ts =
  let h = Array.fold_left max 0 (Synopsis.heights ts) in
  min 64 (max 20 (h + 1))

let make_ctx ?max_hops ?budget ts =
  let max_hops =
    match max_hops with Some h -> h | None -> default_max_hops ts
  in
  let budget =
    match budget with Some b -> b | None -> Xmldoc.Budget.unlimited ()
  in
  {
    ts;
    max_hops;
    budget;
    reach = Hashtbl.create 8;
    work = embedding_work_budget;
    refused = 0;
    cuts = 0;
    suffix_ids = Hashtbl.create 16;
    pred_ids = Hashtbl.create 8;
    suffixes = Hashtbl.create 64;
    selectivities = Hashtbl.create 64;
  }

(* [p] with its memo ids; structurally equal suffixes and predicate
   lists share one id across the whole query. *)
let rec compile ctx (p : Syntax.path) =
  match p with
  | [] -> []
  | s :: rest -> (
    match Hashtbl.find_opt ctx.suffix_ids p with
    | Some c -> c
    | None ->
      let rest = compile ctx rest in
      let preds = compile_preds ctx s.preds in
      let c =
        { id = Hashtbl.length ctx.suffix_ids; axis = s.axis; label = s.label; preds }
        :: rest
      in
      Hashtbl.add ctx.suffix_ids p c;
      c)

and compile_preds ctx ps =
  match Hashtbl.find_opt ctx.pred_ids ps with
  | Some c -> c
  | None ->
    let paths = List.map (compile ctx) ps in
    let c = { pid = Hashtbl.length ctx.pred_ids; paths } in
    Hashtbl.add ctx.pred_ids ps c;
    c

let reachable ctx label =
  let key = Xmldoc.Label.to_int label in
  match Hashtbl.find_opt ctx.reach key with
  | Some b -> b
  | None ->
    let n = Synopsis.num_nodes ctx.ts in
    let b = Bytes.make n '\000' in
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to n - 1 do
        if Bytes.get b v = '\000' then begin
          let hit =
            Array.exists
              (fun (w, _) ->
                Xmldoc.Label.equal (Synopsis.label ctx.ts w) label
                || Bytes.get b w = '\001')
              (Synopsis.edges ctx.ts v)
          in
          if hit then begin
            Bytes.set b v '\001';
            changed := true
          end
        end
      done
    done;
    Hashtbl.add ctx.reach key b;
    b

(* Embeddings summed per end node; [ends] lists the end nodes in the
   order they were first met. *)
let sum_by_end iter =
  let by_end : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let ends = ref [] in
  iter (fun e k ->
      match Hashtbl.find_opt by_end e with
      | Some cell -> cell := !cell +. k
      | None ->
        Hashtbl.add by_end e (ref k);
        ends := e :: !ends);
  (by_end, !ends)

(* The memoized value of [compute ()] under [key].  A value is stored
   only if nothing was cut while it was computed — neither by the
   search's work cap nor by the request budget — so one parent's cut
   never leaks into another parent's result. *)
let remember ctx tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some x -> x
  | None ->
    let refused = ctx.refused in
    let x = compute () in
    if ctx.refused = refused && Xmldoc.Budget.alive ctx.budget then
      Hashtbl.add tbl key x;
    x

(* All embeddings of [p] starting at [u], as (end node, count) pairs.
   The first step is enumerated here; what follows each of its matches
   depends on the match alone — the rest of the path and the step's
   predicates — and is read from the per-node memos (EVAL_EMBED,
   §4.3, evaluated once per synopsis node and sub-path). *)
let rec iter_embeddings ctx u (p : step list) emit =
  match p with
  | [] -> emit u 1.
  | step :: rest ->
    let continue_from v k_here =
      let k = k_here *. pred_selectivity ctx v step.preds in
      if k > prune_below then
        match rest with
        | [] -> emit v k
        | next :: _ ->
          Array.iter (fun (e, ke) -> emit e (k *. ke)) (suffix_embeddings ctx v next.id rest)
    in
    (match step.axis with
    | Child ->
      Array.iter
        (fun (v, k) ->
          if
            Xmldoc.Budget.tick ctx.budget
            && Xmldoc.Label.equal (Synopsis.label ctx.ts v) step.label
          then continue_from v k)
        (Synopsis.edges ctx.ts u)
    | Descendant ->
      (* DFS over synopsis paths of length >= 1, bounded by max_hops,
         per-path node-visit counts (see [cycle_unroll]), and pruned to
         nodes that can still reach the step's label. *)
      let reach = reachable ctx step.label in
      let visits : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let rec dfs w acc hops =
        if hops > 0 && acc > prune_below && Xmldoc.Budget.alive ctx.budget then
          if ctx.work <= 0 then ctx.refused <- ctx.refused + 1
          else
            Array.iter
              (fun (v, k) ->
                ctx.work <- ctx.work - 1;
                if Xmldoc.Budget.tick ctx.budget then
                let is_match =
                  Xmldoc.Label.equal (Synopsis.label ctx.ts v) step.label
                in
                let can_reach = Bytes.get reach v = '\001' in
                if is_match || can_reach then begin
                  let seen = Option.value ~default:0 (Hashtbl.find_opt visits v) in
                  if seen < cycle_unroll then
                    if ctx.work <= 0 then ctx.refused <- ctx.refused + 1
                    else begin
                      let acc' = acc *. k in
                      if is_match then continue_from v acc';
                      if can_reach then begin
                        Hashtbl.replace visits v (seen + 1);
                        dfs v acc' (hops - 1);
                        Hashtbl.replace visits v seen
                      end
                    end
                end)
              (Synopsis.edges ctx.ts w)
      in
      dfs u 1. ctx.max_hops)

(* The embeddings of the non-empty suffix [rest] (id [id]) from [v],
   summed per end node in first-met order; memoized. *)
and suffix_embeddings ctx v id rest =
  remember ctx ctx.suffixes (id, v) (fun () ->
      let by_end, ends = sum_by_end (iter_embeddings ctx v rest) in
      Array.of_list (List.rev_map (fun e -> (e, !(Hashtbl.find by_end e))) ends))

(* Selectivity of the branching predicates anchored at node [v]
   (EVAL_EMBED lines 2-13): per predicate, aggregate descendant counts
   by end node, then apply inclusion-exclusion (computed as
   1 - prod (1 - k_j)) unless some count reaches 1. *)
and pred_selectivity ctx v preds =
  if preds.paths = [] then 1.
  else
    remember ctx ctx.selectivities (preds.pid, v) (fun () ->
        List.fold_left
          (fun acc pred ->
            if acc <= prune_below then acc
            else begin
              let by_end, _ = sum_by_end (iter_embeddings ctx v pred) in
              let saturated = ref false in
              let misses = ref 1. in
              Hashtbl.iter
                (fun _ k ->
                  if !k >= 1. then saturated := true
                  else misses := !misses *. (1. -. !k))
                by_end;
              let s = if !saturated then 1. else 1. -. !misses in
              acc *. s
            end)
          1. preds.paths)

(* One search: the embeddings of [p] from [u], summed per end node,
   under a fresh [embedding_work_budget]; a search the cap cut short is
   counted in [ctx.cuts]. *)
let search ctx u p =
  ctx.work <- embedding_work_budget;
  let refused = ctx.refused in
  let by_end, _ = sum_by_end (iter_embeddings ctx u p) in
  if ctx.refused > refused then ctx.cuts <- ctx.cuts + 1;
  Hashtbl.fold (fun e k acc -> (e, !k) :: acc) by_end []

let embeddings ?max_hops ?budget ts u p =
  let ctx = make_ctx ?max_hops ?budget ts in
  search ctx u (compile ctx p)

(* ------------------------------------------------------------------ *)
(* EVAL_QUERY                                                          *)
(* ------------------------------------------------------------------ *)

type building = {
  nodes : (Xmldoc.Label.t * int * int) Vec.t;  (* label, source, var *)
  index : (int * int, int) Hashtbl.t;  (* (source node, var) -> answer id *)
  out : (int * int, float ref) Hashtbl.t;  (* (from, to) -> count *)
  bind : (int, int list ref) Hashtbl.t;  (* var -> answer ids *)
}

(* Creating a result node consumes a slot of the request budget; when
   the node cap is exhausted, [None] — the caller skips the node and the
   answer degrades to a partial one.  [force] is for the root, which
   every answer must materialize. *)
let fresh_node ?(force = false) b budget ~src ~var label =
  match Hashtbl.find_opt b.index (src, var) with
  | Some id -> Some id
  | None ->
    if not (force || Xmldoc.Budget.take_node budget) then None
    else begin
      let id = Vec.length b.nodes in
      Vec.push b.nodes (label, src, var);
      Hashtbl.add b.index (src, var) id;
      (match Hashtbl.find_opt b.bind var with
      | Some l -> l := id :: !l
      | None -> Hashtbl.add b.bind var (ref [ id ]));
      Some id
    end

let add_count b from into k =
  match Hashtbl.find_opt b.out (from, into) with
  | Some cell -> cell := !cell +. k
  | None -> Hashtbl.add b.out (from, into) (ref k)

let eval ?max_hops ?budget ts (q : Syntax.t) =
  let budget =
    match budget with Some b -> b | None -> Xmldoc.Budget.unlimited ()
  in
  let b =
    {
      nodes = Vec.create ();
      index = Hashtbl.create 64;
      out = Hashtbl.create 64;
      bind = Hashtbl.create 16;
    }
  in
  (* one context for the whole query: every parent binding and query
     edge shares its memos *)
  let ctx = make_ctx ?max_hops ~budget ts in
  let root_label = Twig.Eval.nesting_label 0 (Synopsis.label ts ts.Synopsis.root) in
  (* The root is charged against the node cap but materialized
     unconditionally: even a fully-degraded answer is a synopsis with a
     root. *)
  let (_ : bool) = Xmldoc.Budget.take_node budget in
  let (_ : int option) =
    fresh_node ~force:true b budget ~src:ts.Synopsis.root ~var:0 root_label
  in
  (* Pre-order traversal of the query tree: by construction bind[q] is
     complete when q's out-edges are processed. *)
  let rec process (qn : Syntax.node) =
    List.iter
      (fun (edge : Syntax.edge) ->
        let qc = edge.target in
        let path = compile ctx edge.path in
        let parents =
          match Hashtbl.find_opt b.bind qn.var with Some l -> !l | None -> []
        in
        List.iter
          (fun uq ->
            if Xmldoc.Budget.alive budget then begin
              let _, u, _ = Vec.get b.nodes uq in
              List.iter
                (fun (v, k) ->
                  if k > prune_below && Xmldoc.Budget.alive budget then begin
                    let lbl = Twig.Eval.nesting_label qc.var (Synopsis.label ts v) in
                    match fresh_node b budget ~src:v ~var:qc.var lbl with
                    | Some vq -> add_count b uq vq k
                    | None -> () (* node cap: drop — the answer degrades *)
                  end)
                (search ctx u path)
            end)
          parents;
        process qc)
      qn.edges
  in
  process q;
  (* Validity pruning: an element is a binding only if every required
     query edge has at least one target (§2).  Count-stability makes
     validity uniform per class, so dropping result nodes that lack a
     required child edge is exact over a stable synopsis and the
     natural approximation otherwise.  Children have strictly larger
     variables, so one descending-variable pass suffices. *)
  let n_raw = Vec.length b.nodes in
  let required_children = Array.make (Syntax.num_vars q) [] in
  let rec note (qn : Syntax.node) =
    required_children.(qn.var) <-
      List.filter_map
        (fun (e : Syntax.edge) -> if e.optional then None else Some e.target.var)
        qn.edges;
    List.iter (fun (e : Syntax.edge) -> note e.target) qn.edges
  in
  note q;
  let valid = Array.make n_raw true in
  let ids = Array.init n_raw (fun i -> i) in
  Array.sort
    (fun a c ->
      let _, _, va = Vec.get b.nodes a and _, _, vc = Vec.get b.nodes c in
      Stdlib.compare (vc, c) (va, a))
    ids;
  let out_of = Array.make n_raw [] in
  Hashtbl.iter
    (fun (from, into) k -> out_of.(from) <- (into, !k) :: out_of.(from))
    b.out;
  Array.iter
    (fun uq ->
      let _, _, var = Vec.get b.nodes uq in
      let ok =
        List.for_all
          (fun cvar ->
            List.exists
              (fun (wq, k) ->
                let _, _, wvar = Vec.get b.nodes wq in
                wvar = cvar && k > prune_below && valid.(wq))
              out_of.(uq))
          required_children.(var)
      in
      valid.(uq) <- ok)
    ids;
  Hashtbl.reset b.bind;
  let keep = Hashtbl.create 64 in
  Array.iteri
    (fun i v ->
      if v then begin
        Hashtbl.add keep i (Hashtbl.length keep);
        let _, _, var = Vec.get b.nodes i in
        match Hashtbl.find_opt b.bind var with
        | Some l -> l := i :: !l
        | None -> Hashtbl.add b.bind var (ref [ i ])
      end)
    valid;
  let pruned_out : (int * int, float ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (from, into) k ->
      match (Hashtbl.find_opt keep from, Hashtbl.find_opt keep into) with
      | Some f, Some i -> Hashtbl.replace pruned_out (f, i) k
      | _ -> ())
    b.out;
  let pruned_nodes = Vec.create () in
  Array.iteri
    (fun i v -> if v then Vec.push pruned_nodes (Vec.get b.nodes i))
    valid;
  let root_valid =
    Hashtbl.mem keep (Hashtbl.find b.index (ts.Synopsis.root, 0))
  in
  (* The answer is empty iff the root is invalid: a required variable
     somewhere on the required spine has no (transitively valid)
     bindings.  Required edges nested under optional edges must NOT
     nullify the answer — they only prune their local sub-bindings. *)
  let empty = ref (not root_valid) in
  let b =
    if root_valid then
      { b with nodes = pruned_nodes; out = pruned_out }
    else b (* keep the un-pruned graph so a root node always exists *)
  in
  (* Materialize the synopsis: counts flow topologically (query vars
     strictly increase along edges, so ascending var order works). *)
  let n = Vec.length b.nodes in
  let labels = Array.init n (fun i -> let l, _, _ = Vec.get b.nodes i in l) in
  let srcs = Array.init n (fun i -> let _, s, _ = Vec.get b.nodes i in s) in
  let vars = Array.init n (fun i -> let _, _, v = Vec.get b.nodes i in v) in
  let counts = Array.make n 0. in
  let root_id =
    let raw_root = Hashtbl.find b.index (ts.Synopsis.root, 0) in
    match Hashtbl.find_opt keep raw_root with
    | Some r when root_valid -> r
    | _ -> raw_root
  in
  counts.(root_id) <- 1.;
  let edges_of = Array.make n [] in
  Hashtbl.iter
    (fun (from, into) k -> edges_of.(from) <- (into, !k) :: edges_of.(from))
    b.out;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a bq -> Stdlib.compare (vars.(a), a) (vars.(bq), bq)) order;
  Array.iter
    (fun u ->
      List.iter
        (fun (v, k) -> counts.(v) <- counts.(v) +. (counts.(u) *. k))
        edges_of.(u))
    order;
  let nodes =
    Array.init n (fun i ->
        {
          Synopsis.label = labels.(i);
          count = counts.(i);
          edges = Array.of_list edges_of.(i);
        })
  in
  let raw = Synopsis.make ~root:root_id nodes in
  {
    (* The canonical quotient collapses result nodes with
       indistinguishable result sub-structure (e.g. the many document
       classes a leaf variable binds); it is what approximates the
       nesting tree and what ESD compares. *)
    synopsis = Synopsis.canonicalize raw;
    raw;
    source = srcs;
    var = vars;
    empty = !empty;
    degraded = Xmldoc.Budget.stopped budget <> None || ctx.cuts > 0;
    cuts = ctx.cuts;
  }

let to_nesting_tree ?(max_nodes = 2_000_000) ans =
  if ans.empty then None
  else
    match Expand.approximate ~max_nodes ans.synopsis with
    | tree -> Some tree
    | exception Invalid_argument _ -> None
