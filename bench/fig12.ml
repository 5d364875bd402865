(* Figure 12: average relative selectivity-estimation error vs synopsis
   size, TREESKETCH vs twig-XSKETCH, on the TX data sets (the paper
   plots XMark-TX and SProt-TX and notes IMDB-TX is similar; we print
   all three).  [degraded] counts the TreeSketch answers whose embedding
   search the work cap cut short. *)

let avg_error estimates p =
  let errors =
    List.map2
      (fun estimate truth ->
        Sketch.Selectivity.relative_error ~actual:truth ~estimate
          ~sanity:p.Data.sanity)
      estimates p.Data.truths
  in
  100. *. Report.avg errors

let run cfg =
  Report.header
    "Figure 12 — Avg relative selectivity error (%) vs synopsis size";
  List.iter
    (fun (p : Data.prepared) ->
      let rows =
        List.map2
          (fun (budget, ts) (_, xs) ->
            let answers = List.map (Sketch.Eval.eval ts) p.queries in
            let ts_err =
              avg_error (List.map2 Sketch.Selectivity.of_answer p.queries answers) p
            in
            let xs_err = avg_error (List.map (Xsketch.Estimate.tuples xs) p.queries) p in
            [
              Printf.sprintf "%d" (budget / 1024);
              Printf.sprintf "%.1f" ts_err;
              Printf.sprintf "%.1f" xs_err;
              Printf.sprintf "%d" (Report.degraded answers);
            ])
          (Data.treesketches cfg p) (Data.xsketches cfg p)
      in
      print_newline ();
      Printf.printf "  %s (%d queries, sanity bound %.0f)\n" p.label
        (List.length p.queries) p.sanity;
      Report.table
        ~columns:[ "  KB"; "TreeSketch %"; "twig-XSketch %"; "degraded" ]
        ~widths:[ 6; 14; 16; 10 ]
        rows)
    (Data.tx cfg);
  Report.note
    "Paper (Fig 12): TreeSketch stays well below 10%% at every budget while";
  Report.note
    "twig-XSketch is both less accurate and less stable across budgets."
