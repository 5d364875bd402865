(** One QUERY/ANSWER evaluation, from parsed request to response line.

    This is the single implementation behind both read paths: the
    in-process evaluator the server uses with the worker pool disabled,
    and the {!Pool} workers' request loop.  Keeping them one function
    means the response grammar, the budget clamping and the
    last-line-of-defense exception containment cannot drift apart.

    {!run_guarded} is the defense-in-depth boundary: [Stack_overflow]
    and [Out_of_memory] escaping the evaluator are caught and rendered
    as a structured [error worker-crash ...] line instead of tearing
    down the connection loop (in-process) or masking the real fault
    behind a raw worker death (in a pool worker). *)

type caps = {
  deadline : float option;
      (** server-side default per-request deadline, relative seconds *)
  max_answer_nodes : int;
  max_work : int;
  max_heap_words : int;
      (** GC heap ceiling for the evaluating process; [max_int] when
          evaluation shares the server's heap (the cap is only
          meaningful inside an isolated worker) *)
}

val budget_for : caps -> Protocol.opts -> Xmldoc.Budget.t
(** Combine the server's caps with the request's own options: a request
    may tighten the deadline and the node cap, never widen them. *)

type kind =
  | Query
  | Answer

type outcome = {
  response : string;  (** the single response line *)
  degraded : bool;
      (** the budget stopped, some level's evaluation was cut by the
          per-search work cap (answered [degraded=work]), or the
          expansion truncated: the response carries a partial answer —
          counted in server stats *)
}

val select_tier :
  Catalog.entry ->
  Protocol.opts ->
  level:int ->
  Sketch.Synopsis.t * (int * int * int) option
(** Which ladder rung serves this request: the coarser of the
    request's own [-tier] and the server's degradation [level], clamped
    to the entry's rung count.  Returns the synopsis plus the
    [(tier, rungs, budget_bytes)] tag to stamp on the response — [None]
    for plain single-tier entries, whose responses must stay
    byte-identical to pre-ladder servers. *)

val run :
  ?tier:int * int * int ->
  ?levels:(Sketch.Synopsis.t * Xmldoc.Label.t list list) array * float ->
  budget:Xmldoc.Budget.t ->
  kind ->
  Sketch.Synopsis.t ->
  Twig.Syntax.t ->
  outcome
(** Evaluate and render; [tier] (from {!select_tier}) appends
    [tier=<k>/<n> budget=<bytes>] after the [degraded] field.

    [levels] is the live-update delta stack with its staleness bound
    (see {!Ingest}), ascending generation, each level paired with its
    tombstone paths: every level is first masked by the union of the
    strictly newer levels' tombstones ({!Sketch.Build.prune_paths}) —
    deletions subtract from the answer as soon as their batch flushes —
    then the base and every masked level are evaluated independently
    under the ONE request budget, selectivity estimates add, result
    forests concatenate under the shared document root, and the
    response is tagged [levels=<k> staleness=<s>].  The base is never
    masked: deletion addresses live-ingested data only.  The
    combination is exact for paths below the root because level extents
    are disjoint sub-forests of one document; a query on the root label
    itself over-counts (each level carries its own root placeholder).
    An absent or empty stack takes the single-synopsis path unchanged —
    responses stay byte-identical.

    May raise whatever the evaluator raises — callers outside a
    sacrificial worker want {!run_guarded}. *)

val guard : (unit -> outcome) -> outcome
(** The containment combinator behind {!run_guarded}: [Stack_overflow]
    and [Out_of_memory] escaping [f] become an [error worker-crash ...]
    response ({!Xmldoc.Fault.Worker_crash}).  Other exceptions still
    escape — the server's total dispatcher maps them to
    [error internal].  Exposed so tests can drive the containment with
    a synthetic crash. *)

val run_guarded :
  ?tier:int * int * int ->
  ?levels:(Sketch.Synopsis.t * Xmldoc.Label.t list list) array * float ->
  budget:Xmldoc.Budget.t ->
  kind ->
  Sketch.Synopsis.t ->
  Twig.Syntax.t ->
  outcome
(** [guard] applied to {!run}. *)
