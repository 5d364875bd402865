(** [EVAL_QUERY] and [EVAL_EMBED] (§4.3, Figures 7 and 8): approximate
    query answers over a TREESKETCH.

    The query is processed directly over the synopsis graph; the output
    is another synopsis that summarizes the query's nesting tree.  Each
    output node [uQ(u, q)] represents the elements of synopsis node [u]
    bound to query variable [q]; at most one output node exists per
    [(u, q)] pair, bounding the result by [O(|TS| * |Q|)].

    Descendant ([//]) steps are resolved by enumerating synopsis-path
    embeddings; the count along an embedding is the product of its edge
    averages (the TREESKETCH independence assumption), and branching
    predicates contribute selectivities combined with the
    inclusion–exclusion rule over per-target descendant counts.

    What follows a step's match at synopsis node [v] — the step's
    predicate selectivity and the summed embeddings of the rest of the
    path — depends on [v] alone, so one evaluation computes each once
    per (node, sub-path) and every parent binding and query edge reuses
    it: a [//]-step is enumerated path by path, a whole path is not.

    Compressed TREESKETCHes may contain cycles (a merge of same-label
    nodes at different depths); each descendant step is therefore
    bounded by [max_hops] edges, visits a node at most three times per
    path, and prunes embeddings whose accumulated count falls below
    [1e-12].  One search (a parent binding's embeddings along one query
    edge) may visit at most 200K edges; a search cut short by that cap
    is counted in [cuts] and marks the answer [degraded]. *)

type answer = {
  synopsis : Synopsis.t;
      (** summarizes the nesting tree, in canonical (coarsest
          count-stable) form; node labels are the composite
          ["q<var>#<label>"] labels of {!Twig.Eval.nesting_label}, so
          the answer is directly comparable (via ESD) with an exact
          nesting tree's stable summary *)
  raw : Synopsis.t;
      (** the un-canonicalized result graph, one node per
          (input node, variable) pair *)
  source : int array;  (** per raw node, the input-synopsis node *)
  var : int array;  (** per raw node, the query variable *)
  empty : bool;
      (** true iff some required query variable has no bindings — the
          approximate answer is the empty document *)
  degraded : bool;
      (** true iff the request {!Xmldoc.Budget.t} stopped (deadline,
          node cap or work cap) before evaluation completed, or the
          per-search work cap cut some search ([cuts > 0]): the answer
          is a valid but partial approximation — embeddings discovered
          after the stop are missing, so counts (and hence the
          selectivity estimate) are lower bounds of the undegraded
          estimate *)
  cuts : int;
      (** searches (one per parent binding and query edge) that the
          per-search work cap cut short *)
}

val prune_below : float
(** Embeddings whose accumulated count falls to this ([1e-12]) or below
    are dropped. *)

val cycle_unroll : int
(** Times one synopsis node may appear on a single [//]-step path (3). *)

val embedding_work_budget : int
(** Edge visits one search may spend (200K). *)

val default_max_hops : Synopsis.t -> int
(** The [max_hops] {!eval} uses by default. *)

val eval :
  ?max_hops:int -> ?budget:Xmldoc.Budget.t -> Synopsis.t -> Twig.Syntax.t -> answer
(** Evaluate a twig query over a TREESKETCH.  [max_hops] bounds the
    length of any [//]-step embedding; the default adapts to the
    synopsis's acyclic height (min 20, max 64), so stable-summary
    evaluation is never truncated.

    [budget] is the request's cooperative-cancellation budget: the
    embedding DFS ticks it per edge visit and every fresh result node
    reserves a slot, so an expired deadline or exhausted cap stops the
    evaluation at the next check and the partial answer comes back with
    [degraded = true] (never an exception).  The answer root is always
    materialized; with a node cap [c >= 1] the raw answer has at most
    [c] nodes. *)

val to_nesting_tree : ?max_nodes:int -> answer -> Xmldoc.Tree.t option
(** The approximate nesting tree: [Expand] applied to the answer
    synopsis (fractional counts are discretized with the
    largest-remainder rule).  This is the tree the user would be
    shown, and the object the ESD error metric scores against the true
    nesting tree (§5, §6.1).  [None] if the answer is empty or the
    expansion exceeds [max_nodes] (default 2_000_000). *)

val embeddings :
  ?max_hops:int ->
  ?budget:Xmldoc.Budget.t ->
  Synopsis.t ->
  int ->
  Twig.Syntax.path ->
  (int * float) list
(** [embeddings ts u p] lists, for each synopsis node [v] reachable
    from [u] along an embedding of [p], the estimated number of
    descendants per element of [u] (embeddings ending at the same node
    are summed).  Branch predicates are folded in as selectivities.
    One search, under the same per-search work cap as {!eval}'s.
    Exposed for tests. *)
