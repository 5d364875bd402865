(* Figure 11: average ESD of approximate answers vs synopsis size, for
   TREESKETCH and twig-XSKETCH, on the three TX data sets.

   Protocol (§6.1): for every positive query, compare the approximate
   nesting tree against the true nesting tree under ESD (with the MAC
   set distance and per-variable label matching).  TREESKETCH answers
   come from EVAL_QUERY followed by expansion; twig-XSKETCH answers are
   sampled from the edge histograms.  An empty approximate answer is
   scored against the root-only document.  [degraded] counts the
   TreeSketch answers whose embedding search the work cap cut short. *)

let esd_of_answer ~true_stable approx_stable =
  Metric.Esd.between_synopses true_stable approx_stable

let run cfg =
  Report.header "Figure 11 — Avg ESD of approximate answers vs synopsis size";
  List.iter
    (fun (p : Data.prepared) ->
      (* the answer-quality workload: a prefix of the main workload *)
      let queries =
        List.filteri (fun i _ -> i < cfg.Config.esd_queries) p.queries
      in
      let truths =
        List.filter_map
          (fun q ->
            match (Twig.Eval.run p.idx q).nesting with
            | None -> None
            | Some nt -> Some (q, Sketch.Stable.build nt))
          queries
      in
      let root_only =
        Sketch.Stable.build
          (Xmldoc.Tree.make
             (Twig.Eval.nesting_label 0 (Xmldoc.Tree.label p.doc))
             [])
      in
      let rows =
        List.map2
          (fun (budget, ts) (_, xs) ->
            let answers =
              List.map (fun (q, true_stable) -> (Sketch.Eval.eval ts q, true_stable)) truths
            in
            let ts_esd =
              List.map
                (fun (ans, true_stable) ->
                  let approx =
                    if ans.Sketch.Eval.empty then root_only
                    else
                      match Sketch.Eval.to_nesting_tree ans with
                      | Some t -> Sketch.Stable.build t
                      | None -> ans.Sketch.Eval.synopsis
                  in
                  esd_of_answer ~true_stable approx)
                answers
            in
            let xs_esd =
              List.mapi
                (fun i (q, true_stable) ->
                  let approx =
                    match Xsketch.Answer.sample ~seed:(cfg.Config.seed + i) xs q with
                    | Some t -> Sketch.Stable.build t
                    | None -> root_only
                  in
                  esd_of_answer ~true_stable approx)
                truths
            in
            [
              Printf.sprintf "%d" (budget / 1024);
              Printf.sprintf "%.0f" (Report.avg ts_esd);
              Printf.sprintf "%.0f" (Report.avg xs_esd);
              Printf.sprintf "%d" (Report.degraded (List.map fst answers));
            ])
          (Data.treesketches cfg p) (Data.xsketches cfg p)
      in
      print_newline ();
      Printf.printf "  %s (%d scoreable queries)\n" p.label (List.length truths);
      Report.table
        ~columns:[ "  KB"; "TreeSketch ESD"; "twig-XSketch ESD"; "degraded" ]
        ~widths:[ 6; 16; 18; 10 ]
        rows)
    (Data.tx cfg);
  Report.note
    "Paper (Fig 11): TreeSketch ESD is 2-4x lower than twig-XSketch at every";
  Report.note
    "budget.  Our reimplemented baseline is substantially stronger than the";
  Report.note
    "2004 original (see EXPERIMENTS.md); the TreeSketch advantage here shows";
  Report.note "mainly against the faithful stability-gated histogram mode."
