(* Tests for EVAL_QUERY / EVAL_EMBED and selectivity estimation over
   TREESKETCH synopses, including the worked example of Figure 9. *)

open Sketch
module T = Testutil
module Syntax = Twig.Syntax

let fig1 =
  Xmldoc.Parser.of_string
    "<d><a><n/><p><y/><t/><k/></p><p><y/><t/><k/><k/></p><b><t/></b></a>\
     <a><p><y/><t/><k/></p><n/><b><t/></b></a>\
     <a><n/><p><y/><t/><k/></p><b><t/></b></a></d>"

let fig1_doc = Twig.Doc.of_tree fig1

let fig1_stable = Stable.build fig1

(* ---------------- Figure 9: the worked example ---------------- *)

(* The synopsis of Figure 9(b): node letters map to ids below. *)
let fig9 =
  let lbl = Xmldoc.Label.of_string in
  (* ids: 0=r 1=A 2=B 3=E 4=D 5=F(under B) 6=F(under D) 7=G1 8=G2 9=C *)
  Synopsis.make ~root:0
    [|
      { Synopsis.label = lbl "r"; count = 1.; edges = [| (1, 10.) |] };
      { Synopsis.label = lbl "a"; count = 10.; edges = [| (2, 5.); (3, 0.2); (4, 2.) |] };
      { Synopsis.label = lbl "b"; count = 50.; edges = [| (5, 2.) |] };
      { Synopsis.label = lbl "e"; count = 2.; edges = [| (6, 5.) |] };
      { Synopsis.label = lbl "d"; count = 20.; edges = [| (6, 0.5); (7, 0.6); (8, 0.7) |] };
      { Synopsis.label = lbl "f"; count = 100.; edges = [||] };
      { Synopsis.label = lbl "f"; count = 20.; edges = [| (9, 1.5) |] };
      { Synopsis.label = lbl "g"; count = 12.; edges = [||] };
      { Synopsis.label = lbl "g"; count = 14.; edges = [||] };
      { Synopsis.label = lbl "c"; count = 30.; edges = [||] };
    |]

(* The paper's example computes the binding of q3 along d[/g]//f:
   nt = count(A,D) * count(D,F) = 2 * 0.5 = 1, scaled by the branch
   selectivity s = 0.6 + 0.7 - 0.6*0.7 = 0.88. *)
let test_fig9_embed_branch () =
  let path = Twig.Parse.path "/d[/g]//f" in
  match Eval.embeddings fig9 1 path with
  | [ (v, k) ] ->
    Alcotest.(check int) "lands on F under D" 6 v;
    T.check_float "0.88 descendants" 0.88 k
  | other ->
    Alcotest.failf "expected one binding, got %d" (List.length other)

let test_fig9_full_query () =
  (* q0 -//a-> q1 { -b|e...-> } — we exercise the a and d branches *)
  let q = Twig.Parse.query "//a{/d[/g]//f,/b}" in
  let ans = Eval.eval fig9 q in
  Alcotest.(check bool) "non empty" false ans.empty;
  (* root -> 10 a's; per a: 0.88 f's via d, 5 b's *)
  let syn = ans.synopsis in
  let root = syn.Synopsis.root in
  (* one child of var 1 with edge count 10 *)
  let a_edge = Synopsis.edges syn root in
  Alcotest.(check int) "one root edge" 1 (Array.length a_edge);
  T.check_float "10 a bindings" 10. (snd a_edge.(0))

let test_fig9_selectivity () =
  let q = Twig.Parse.query "//a{/d[/g]//f}" in
  (* tuples = 10 a's x 0.88 f's *)
  T.check_float "selectivity" 8.8 (Selectivity.estimate fig9 q)

(* ---------------- exactness over count-stable synopses ---------------- *)

(* EVAL_QUERY over a count-stable synopsis computes the exact nesting
   tree (§4.3), hence exact selectivity too. *)
let check_exact_on query_src =
  let q = Twig.Parse.query query_src in
  let exact = Twig.Eval.selectivity fig1_doc q in
  let est = Selectivity.estimate fig1_stable q in
  T.check_float ("selectivity " ^ query_src) exact est

let test_exact_simple () =
  List.iter check_exact_on
    [ "//a"; "//p"; "//k"; "/a/p"; "//p{/k}"; "//a{//k}"; "//a[//b]{//p{//k?},//n?}" ]

let test_exact_nesting_tree () =
  let q = Twig.Parse.query "//a[//b]{//p{//k?},//n?}" in
  let ans = Eval.eval fig1_stable q in
  let exact = Twig.Eval.run fig1_doc q in
  match (exact.nesting, Eval.to_nesting_tree ans) with
  | Some nt, Some approx ->
    Alcotest.(check bool) "exact nesting recovered" true
      (Xmldoc.Tree.equal_unordered nt approx)
  | _ -> Alcotest.fail "expected non-empty results"

(* The zero-error claims hold under witness-path semantics (see
   {!Twig.Eval.run}); node-set semantics coincide when same-label
   elements do not nest along query paths. *)
let prop_exact_over_stable =
  T.qtest ~count:100 "stable synopsis gives exact selectivity"
    (QCheck.pair (T.arb_tree ()) T.arb_query)
    (fun (t, q) ->
      let d = Twig.Doc.of_tree t in
      let stable = Stable.build t in
      T.feq ~eps:1e-6
        (Twig.Eval.selectivity ~dedup:false d q)
        (Selectivity.estimate stable q))

let prop_exact_nesting_over_stable =
  T.qtest ~count:60 "stable synopsis recovers the exact nesting tree"
    (QCheck.pair (T.arb_tree ()) T.arb_query)
    (fun (t, q) ->
      let d = Twig.Doc.of_tree t in
      let stable = Stable.build t in
      let exact = (Twig.Eval.run ~dedup:false d q).nesting in
      let approx = Eval.to_nesting_tree (Eval.eval stable q) in
      match (exact, approx) with
      | None, None -> true
      | Some nt, Some at -> Xmldoc.Tree.equal_unordered nt at
      | _ -> false)

(* ---------------- compressed synopses ---------------- *)

let test_empty_on_negative () =
  let ts = Build.build fig1_stable ~budget:100 in
  let q = Twig.Parse.query "//zz" in
  let ans = Eval.eval ts q in
  Alcotest.(check bool) "empty flagged" true ans.empty;
  T.check_float "zero selectivity" 0. (Selectivity.of_answer q ans)

let test_optional_missing_not_empty () =
  let ts = Build.build fig1_stable ~budget:100 in
  let q = Twig.Parse.query "//a{//zz?}" in
  let ans = Eval.eval ts q in
  Alcotest.(check bool) "optional missing tolerated" false ans.empty

let prop_compressed_estimates_finite =
  T.qtest ~count:60 "compressed estimates are finite and non-negative"
    (QCheck.pair (T.arb_tree ()) T.arb_query)
    (fun (t, q) ->
      let ts = Build.build (Stable.build t) ~budget:96 in
      let est = Selectivity.estimate ts q in
      Float.is_finite est && est >= 0.)

let prop_answer_var_labels =
  T.qtest ~count:60 "answer labels carry the query variables"
    (QCheck.pair (T.arb_tree ()) T.arb_query)
    (fun (t, q) ->
      let ts = Build.build (Stable.build t) ~budget:96 in
      let ans = Eval.eval ts q in
      Array.for_all
        (fun (n : Synopsis.node) ->
          String.length (Xmldoc.Label.to_string n.label) > 0
          && (Xmldoc.Label.to_string n.label).[0] = 'q')
        ans.synopsis.Synopsis.nodes)

let test_relative_error () =
  T.check_float "overestimate" 0.5
    (Selectivity.relative_error ~actual:100. ~estimate:150. ~sanity:10.);
  T.check_float "sanity bound kicks in" 0.5
    (Selectivity.relative_error ~actual:1. ~estimate:6. ~sanity:10.);
  T.check_float "exact" 0. (Selectivity.relative_error ~actual:5. ~estimate:5. ~sanity:1.)

(* regression: a required edge nested under an optional edge must not
   nullify the answer when it is globally empty *)
let test_required_under_optional () =
  let doc = Xmldoc.Parser.of_string "<r><e><f/></e></r>" in
  let stable = Stable.build doc in
  (* //e is required and non-empty; the optional //f child carries a
     required //zz grandchild that never matches *)
  let q = Twig.Parse.query "//e{//f?{//zz}}" in
  let ans = Eval.eval stable q in
  Alcotest.(check bool) "answer not nullified" false ans.empty;
  T.check_float "exact agreement"
    (Twig.Eval.selectivity (Twig.Doc.of_tree doc) q)
    (Selectivity.of_answer q ans)

(* regression: bindings whose required child edges are empty must be
   pruned from the answer (validity is per-class on a stable synopsis) *)
let test_invalid_class_pruning () =
  (* two kinds of a: with and without a b child; //a{/b} binds only the
     first kind *)
  let doc = Xmldoc.Parser.of_string "<r><a><b/></a><a><b/></a><a><c/></a></r>" in
  let stable = Stable.build doc in
  let q = Twig.Parse.query "//a{/b}" in
  let ans = Eval.eval stable q in
  (match Eval.to_nesting_tree ans with
  | Some t ->
    let a = Twig.Eval.nesting_label 1 (Xmldoc.Label.of_string "a") in
    Alcotest.(check int) "only valid a's" 2 (Xmldoc.Tree.count_label a t)
  | None -> Alcotest.fail "expected an answer");
  T.check_float "selectivity" 2. (Selectivity.of_answer q ans)

(* regression: //-step embeddings must be found on late sibling edges
   even when earlier siblings harbor deep sub-graphs (reachability
   pruning must keep the DFS work budget for useful branches) *)
let test_reachability_pruning () =
  let deep_arm n =
    let rec build i = if i = 0 then Xmldoc.Tree.v "leaf" [] else
        Xmldoc.Tree.v ("mid" ^ string_of_int (i mod 3)) [ build (i - 1); build (i - 1) ] in
    Xmldoc.Tree.v "arm" [ build n ]
  in
  let doc =
    Xmldoc.Tree.v "r"
      [ deep_arm 8; deep_arm 9; deep_arm 10; Xmldoc.Tree.v "target" [] ]
  in
  let stable = Stable.build doc in
  let q = Twig.Parse.query "//target" in
  T.check_float "target found past deep arms" 1. (Selectivity.estimate stable q)

(* cyclic synopsis: evaluation must terminate and stay finite *)
let test_cyclic_eval_terminates () =
  let lbl = Xmldoc.Label.of_string in
  let cyc =
    Synopsis.make ~root:0
      [|
        { Synopsis.label = lbl "r"; count = 1.; edges = [| (1, 3.) |] };
        { Synopsis.label = lbl "p"; count = 9.; edges = [| (2, 2.) |] };
        { Synopsis.label = lbl "l"; count = 18.; edges = [| (1, 0.3) |] };
      |]
  in
  let q = Twig.Parse.query "//p{//l{//l?}}" in
  let est = Selectivity.estimate cyc q in
  Alcotest.(check bool) "finite" true (Float.is_finite est && est >= 0.)

(* ---------------- degraded evaluation under a budget ---------------- *)

(* an already-expired deadline still yields a valid, well-formed answer
   — flagged degraded, never an exception *)
let test_expired_deadline_degrades () =
  let ts = Build.build fig1_stable ~budget:100 in
  let q = Twig.Parse.query "//a[//t]{//p?}" in
  let budget = Xmldoc.Budget.with_timeout (-1.0) in
  let ans = Eval.eval ~budget ts q in
  Alcotest.(check bool) "degraded flagged" true ans.degraded;
  Alcotest.(check bool)
    "stop reason is the deadline" true
    (Xmldoc.Budget.stopped budget = Some Xmldoc.Budget.Deadline);
  (match Synopsis.validate ans.raw with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "degraded raw answer invalid: %s" msg);
  let est = Selectivity.of_answer q ans in
  Alcotest.(check bool) "estimate finite" true (Float.is_finite est && est >= 0.)

(* a node cap of c >= 1 bounds the raw answer by c nodes, root included *)
let test_node_cap_bounds_answer () =
  let q = Twig.Parse.query "//p{//t?,//k?}" in
  List.iter
    (fun cap ->
      let budget = Xmldoc.Budget.create ~max_nodes:cap () in
      let ans = Eval.eval ~budget fig1_stable q in
      let n = Synopsis.num_nodes ans.raw in
      if n > cap then Alcotest.failf "cap %d: raw answer has %d nodes" cap n;
      match Synopsis.validate ans.raw with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "cap %d: invalid answer: %s" cap msg)
    [ 1; 2; 3; 5; 100 ]

let test_uncapped_not_degraded () =
  let q = Twig.Parse.query "//a{//p?}" in
  let budget = Xmldoc.Budget.unlimited () in
  let ans = Eval.eval ~budget fig1_stable q in
  Alcotest.(check bool) "not degraded" false ans.degraded;
  Alcotest.(check bool) "budget never stopped" true
    (Xmldoc.Budget.stopped budget = None)

(* degradation only loses embeddings, so the degraded estimate is a
   lower bound of the full estimate *)
let prop_degraded_selectivity_lower_bound =
  T.qtest ~count:120 "degraded selectivity <= full selectivity"
    (QCheck.triple (T.arb_tree ()) T.arb_query QCheck.(1 -- 12))
    (fun (t, q, cap) ->
      let ts = Build.build (Stable.build t) ~budget:96 in
      let full = Selectivity.of_answer q (Eval.eval ts q) in
      let budget = Xmldoc.Budget.create ~max_nodes:cap ~max_work:200 () in
      let degraded = Selectivity.of_answer q (Eval.eval ~budget ts q) in
      degraded <= full +. 1e-9 *. Float.max 1. full)

(* A dense cyclic synopsis: four mutually linked [x] nodes (average 1
   per edge, so no path ever falls below the pruning threshold), each
   with a rare [t] child.  [//t] has about 3^20 embedding paths, so its
   one search exceeds the per-search work cap — and must say so. *)
let dense_cycle =
  let lbl = Xmldoc.Label.of_string in
  let k = 4 in
  let x i = 1 + i in
  let node label edges = { Synopsis.label = lbl label; count = 1.; edges } in
  Synopsis.make ~root:0
    (Array.concat
       [
         [| node "r" (Array.init k (fun i -> (x i, 1.))) |];
         Array.init k (fun i ->
             node "x"
               (Array.append
                  (Array.of_list
                     (List.filter_map
                        (fun j -> if j = i then None else Some (x j, 1.))
                        (List.init k Fun.id)))
                  [| (1 + k, 1e-6) |]));
         [| node "t" [||] |];
       ])

let test_work_cap_reported () =
  let q = Twig.Parse.query "//t" in
  let ans = Eval.eval dense_cycle q in
  Alcotest.(check bool) "answer degraded" true ans.degraded;
  Alcotest.(check int) "one search cut" 1 ans.cuts;
  List.iter
    (fun (kind, head) ->
      let o =
        Serve.Query_exec.run ~budget:(Xmldoc.Budget.unlimited ()) kind
          dense_cycle q
      in
      if not (String.starts_with ~prefix:head o.response) then
        Alcotest.failf "wanted %S, got %S" head o.response;
      Alcotest.(check bool) (head ^ " counted degraded") true o.degraded)
    [
      (Serve.Query_exec.Query, "ok query degraded=work ");
      (Serve.Query_exec.Answer, "ok answer degraded=work ");
    ]

(* ---------------- the per-node memo against a naive enumerator ---------------- *)

(* EVAL_EMBED without memoization: the predicates and the rest of the
   path are recomputed for every DFS path that reaches a node.
   Same pruning, cycle and hop bounds and per-search work cap as
   {!Eval}; [cut] records that the cap refused an expansion. *)
module Naive = struct
  type ctx = {
    ts : Synopsis.t;
    max_hops : int;
    mutable work : int;
    mutable cut : bool;
  }

  let reachable ts label =
    let n = Synopsis.num_nodes ts in
    let b = Array.make n false in
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to n - 1 do
        if
          (not b.(v))
          && Array.exists
               (fun (w, _) ->
                 Xmldoc.Label.equal (Synopsis.label ts w) label || b.(w))
               (Synopsis.edges ts v)
        then begin
          b.(v) <- true;
          changed := true
        end
      done
    done;
    b

  let rec iter ctx u (p : Syntax.path) emit =
    match p with
    | [] -> emit u 1.
    | step :: rest -> (
      let continue_from v k_here =
        let k = k_here *. selectivity ctx v step.Syntax.preds in
        if k > Eval.prune_below then iter ctx v rest (fun e ke -> emit e (k *. ke))
      in
      let matches v = Xmldoc.Label.equal (Synopsis.label ctx.ts v) step.label in
      match step.axis with
      | Child ->
        Array.iter (fun (v, k) -> if matches v then continue_from v k)
          (Synopsis.edges ctx.ts u)
      | Descendant ->
        let reach = reachable ctx.ts step.label in
        let visits = Hashtbl.create 8 in
        let rec dfs w acc hops =
          if hops > 0 && acc > Eval.prune_below then
            if ctx.work <= 0 then ctx.cut <- true
            else
              Array.iter
                (fun (v, k) ->
                  ctx.work <- ctx.work - 1;
                  if matches v || reach.(v) then begin
                    let seen = Option.value ~default:0 (Hashtbl.find_opt visits v) in
                    if seen < Eval.cycle_unroll then
                      if ctx.work <= 0 then ctx.cut <- true
                      else begin
                        let acc' = acc *. k in
                        if matches v then continue_from v acc';
                        if reach.(v) then begin
                          Hashtbl.replace visits v (seen + 1);
                          dfs v acc' (hops - 1);
                          Hashtbl.replace visits v seen
                        end
                      end
                  end)
                (Synopsis.edges ctx.ts w)
        in
        dfs u 1. ctx.max_hops)

  and by_end ctx u p =
    let tbl = Hashtbl.create 8 in
    iter ctx u p (fun e k ->
        Hashtbl.replace tbl e (k +. Option.value ~default:0. (Hashtbl.find_opt tbl e)));
    tbl

  and selectivity ctx v preds =
    List.fold_left
      (fun acc pred ->
        if acc <= Eval.prune_below then acc
        else
          let ks = Hashtbl.fold (fun _ k l -> k :: l) (by_end ctx v pred) [] in
          acc
          *.
          if List.exists (fun k -> k >= 1.) ks then 1.
          else 1. -. List.fold_left (fun m k -> m *. (1. -. k)) 1. ks)
      1. preds

  (* one search from [u], as Eval runs one per parent and query edge *)
  let embeddings ts u p =
    let ctx =
      {
        ts;
        max_hops = Eval.default_max_hops ts;
        work = Eval.embedding_work_budget;
        cut = false;
      }
    in
    let tbl = by_end ctx u p in
    if ctx.cut then None else Some tbl
end

let rel_close a b = Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

(* Trees and queries over three labels, so a step matches several
   synopsis nodes whose suffixes and predicates differ; steps carry
   branching predicates, so the predicate memo is exercised too. *)
let memo_labels = [| "a"; "b"; "c" |]

let gen_memo_tree =
  QCheck.Gen.(int_range 20 150 >>= T.gen_tree_sized ~labels:memo_labels)

let gen_memo_query =
  let open QCheck.Gen in
  let bare =
    let* axis = oneofl [ Syntax.Child; Syntax.Descendant ] in
    let* label = oneofa memo_labels in
    return (Syntax.step axis label)
  in
  let step =
    let* s = bare in
    let* preds = list_size (int_range 0 1) (list_size (int_range 1 2) bare) in
    return { s with Syntax.preds }
  in
  let path = list_size (int_range 1 3) step in
  let* top = path in
  let* subs =
    list_size (int_range 0 2)
      (let* p = path in
       let* optional = bool in
       return (Syntax.edge ~optional p (Syntax.node [])))
  in
  return (Syntax.query [ Syntax.edge top (Syntax.node subs) ])

(* [ans.raw] with its edges recomputed by the naive enumerator: a raw
   edge (uq -> vq) carries the embeddings of its query edge's path from
   uq's synopsis node to vq's, for every vq the answer kept.  A case
   whose enumeration was cut is discarded. *)
let naive_raw ts q (ans : Eval.answer) =
  let edges_of = Array.make (Syntax.num_vars q) [] in
  List.iter
    (fun (qn : Syntax.node) -> edges_of.(qn.var) <- qn.edges)
    (Syntax.nodes_preorder q);
  let node_of = Hashtbl.create 64 in
  Array.iteri (fun i src -> Hashtbl.replace node_of (src, ans.var.(i)) i) ans.source;
  let edges uq =
    List.concat_map
      (fun (e : Syntax.edge) ->
        match Naive.embeddings ts ans.source.(uq) e.path with
        | None -> QCheck.assume_fail ()
        | Some by_end ->
          Hashtbl.fold
            (fun v k acc ->
              match Hashtbl.find_opt node_of (v, e.target.var) with
              | Some vq when k > Eval.prune_below -> (vq, k) :: acc
              | _ -> acc)
            by_end [])
      edges_of.(ans.var.(uq))
  in
  Synopsis.make ~root:ans.raw.Synopsis.root
    (Array.mapi
       (fun uq (n : Synopsis.node) -> { n with edges = Array.of_list (edges uq) })
       ans.raw.Synopsis.nodes)

(* The memoized evaluation must find the same raw answer edges with the
   same counts as the naive enumerator, and so the same estimate.
   Synopses are compressed to 5-100% of the stable summary's size: the
   small ones are cyclic, the large ones keep several nodes per label. *)
let prop_memo_matches_naive =
  T.qtest ~count:200 "memoized EVAL_EMBED = per-path enumeration"
    (QCheck.triple
       (QCheck.make ~print:(Format.asprintf "%a" Xmldoc.Tree.pp) gen_memo_tree)
       (QCheck.make ~print:Syntax.to_string gen_memo_query)
       QCheck.(5 -- 100))
    (fun (t, q, percent) ->
      let stable = Stable.build t in
      let ts = Build.build stable ~budget:(Synopsis.size_bytes stable * percent / 100) in
      let ans = Eval.eval ts q in
      if ans.degraded then QCheck.assume_fail ();
      let naive = naive_raw ts q ans in
      let sorted s u = List.sort compare (Array.to_list (Synopsis.edges s u)) in
      List.for_all
        (fun uq ->
          let memo = sorted ans.raw uq and per_path = sorted naive uq in
          List.length memo = List.length per_path
          && List.for_all2 (fun (v, k) (w, k') -> v = w && rel_close k k') memo per_path)
        (List.init (Synopsis.num_nodes ans.raw) Fun.id)
      && rel_close (Selectivity.of_answer q ans)
           (Selectivity.of_answer q { ans with raw = naive }))

(* The memo's regression gate: every §6.1 query over XMark-TX (seed 7,
   scale 9.0, the perfbench fixture) built at 32 KB — where recursive
   parlist/listitem fold into cycles — finishes undegraded within 100K
   units of request work.  This counts work, not time. *)
let test_xmark_within_work () =
  let doc = Datagen.Datasets.generate ~seed:7 ~scale:9.0 Datagen.Datasets.Xmark in
  let stable = Stable.build doc in
  let ts = Build.build stable ~budget:(32 * 1024) in
  let degraded =
    List.filteri
      (fun _ q ->
        (Eval.eval ~budget:(Xmldoc.Budget.create ~max_work:100_000 ()) ts q).degraded)
      (Workload.positive ~seed:8 ~n:200 stable)
  in
  if degraded <> [] then
    Alcotest.failf "%d of 200 degraded under 100K work, e.g. %s" (List.length degraded)
      (Syntax.to_string (List.hd degraded))

(* partial expansion under the same budget machinery: node caps
   truncate, never raise, and the built prefix stays within the cap *)
let test_partial_expansion_truncates () =
  let ts = Build.build fig1_stable ~budget:100 in
  let p = Expand.partial ~max_nodes:4 ts in
  Alcotest.(check bool) "truncated" true p.truncated;
  Alcotest.(check bool) "within cap" true (p.nodes <= 4);
  Alcotest.(check bool) "tree matches count" true (Xmldoc.Tree.size p.tree <= 5);
  let full = Expand.partial ts in
  Alcotest.(check bool) "full not truncated" false full.truncated;
  Alcotest.(check T.tree_iso) "partial agrees with approximate"
    (Expand.approximate ts) full.tree

let () =
  Alcotest.run "eval"
    [
      ( "figure9",
        [
          Alcotest.test_case "branch selectivity 0.88" `Quick test_fig9_embed_branch;
          Alcotest.test_case "full query" `Quick test_fig9_full_query;
          Alcotest.test_case "selectivity" `Quick test_fig9_selectivity;
        ] );
      ( "exact-over-stable",
        [
          Alcotest.test_case "simple queries" `Quick test_exact_simple;
          Alcotest.test_case "nesting tree recovered" `Quick test_exact_nesting_tree;
          prop_exact_over_stable;
          prop_exact_nesting_over_stable;
        ] );
      ( "compressed",
        [
          Alcotest.test_case "negative query empty" `Quick test_empty_on_negative;
          Alcotest.test_case "optional missing ok" `Quick test_optional_missing_not_empty;
          Alcotest.test_case "relative error" `Quick test_relative_error;
          Alcotest.test_case "cyclic synopsis terminates" `Quick test_cyclic_eval_terminates;
          Alcotest.test_case "required under optional" `Quick test_required_under_optional;
          Alcotest.test_case "invalid class pruning" `Quick test_invalid_class_pruning;
          Alcotest.test_case "reachability pruning" `Quick test_reachability_pruning;
          prop_compressed_estimates_finite;
          prop_answer_var_labels;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "expired deadline degrades" `Quick
            test_expired_deadline_degrades;
          Alcotest.test_case "node cap bounds the answer" `Quick
            test_node_cap_bounds_answer;
          Alcotest.test_case "unlimited budget stays clean" `Quick
            test_uncapped_not_degraded;
          Alcotest.test_case "partial expansion truncates" `Quick
            test_partial_expansion_truncates;
          prop_degraded_selectivity_lower_bound;
          Alcotest.test_case "work cap cut is reported" `Quick test_work_cap_reported;
        ] );
      ( "memo",
        [
          prop_memo_matches_naive;
          Alcotest.test_case "XMark-TX 32KB within 100K work" `Slow
            test_xmark_within_work;
        ] );
    ]
