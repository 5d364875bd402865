(* The `treesketch` command-line tool.

     treesketch datagen  --dataset xmark --scale 2 -o doc.xml
     treesketch build    doc.xml --budget 10KB -o doc.ts
     treesketch query    doc.ts "//item[//mail]{//incategory?}"
     treesketch query    doc.ts QUERY --exact doc.xml
     treesketch serve    --catalog synopses/ [--socket /tmp/ts.sock]
     treesketch verify   synopses/*.ts
     treesketch esd      a.xml b.xml
     treesketch stats    doc.xml *)

open Cmdliner

(* Every loader failure exits through here: the structured fault is
   rendered to stderr and mapped to its own exit code (parse error 1,
   corrupt synopsis 2, limit exceeded 3, deadline 4, I/O error 5). *)
let die fault =
  prerr_endline (Xmldoc.Fault.to_string fault);
  exit (Xmldoc.Fault.exit_code fault)

let read_doc path =
  match Xmldoc.Parser.of_file_res path with Ok t -> t | Error f -> die f

let read_synopsis path =
  match Sketch.Serialize.load_res path with Ok s -> s | Error f -> die f

let parse_budget s =
  Result.map_error (fun msg -> `Msg msg) (Xmldoc.Limits.parse_bytes s)

let budget_conv = Arg.conv (parse_budget, fun ppf b -> Format.fprintf ppf "%dB" b)

(* ------------------------------- datagen ------------------------------ *)

let datagen_cmd =
  let dataset =
    let parse s =
      match Datagen.Datasets.of_name s with
      | Some ds -> Ok ds
      | None -> Error (`Msg (Printf.sprintf "unknown dataset %S" s))
    in
    let print ppf ds = Format.pp_print_string ppf (Datagen.Datasets.name ds) in
    Arg.(
      required
      & opt (some (conv (parse, print))) None
      & info [ "d"; "dataset" ] ~docv:"NAME"
          ~doc:"Dataset profile: imdb, xmark, sprot, dblp.")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Size multiplier.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run ds scale seed out =
    let doc = Datagen.Datasets.generate ~seed ~scale ds in
    (match out with
    | Some path -> Xmldoc.Printer.to_file path doc
    | None -> print_endline (Xmldoc.Printer.to_string ~indent:1 doc));
    let stats = Xmldoc.Stats.compute doc in
    Printf.eprintf "generated %s: %d elements, %d bytes serialized\n"
      (Datagen.Datasets.name ds) stats.elements stats.serialized_bytes
  in
  Cmd.v
    (Cmd.info "datagen" ~doc:"Generate a synthetic XML dataset.")
    Term.(const run $ dataset $ scale $ seed $ out)

(* -------------------------------- build ------------------------------- *)

let build_cmd =
  let input =
    (* optional because --resume continues from a checkpoint instead of
       a document *)
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DOC.xml")
  in
  let budget =
    Arg.(
      value
      & opt budget_conv (10 * 1024)
      & info [ "b"; "budget" ] ~docv:"SIZE" ~doc:"Space budget, e.g. 10KB.")
  in
  let out =
    Arg.(
      value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output synopsis.")
  in
  let stable_only =
    Arg.(
      value & flag
      & info [ "stable" ] ~doc:"Emit the lossless count-stable summary instead.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Construction deadline.  On expiry the best-so-far synopsis is \
             emitted (flagged degraded on stderr) instead of failing.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal the in-progress build to $(docv) (atomic, \
             checksummed) so an interrupted run can continue with \
             $(b,--resume).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt int Sketch.Build.default_checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Merges between checkpoint writes (default 256).")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Continue an interrupted build from its checkpoint journal; \
             $(i,DOC.xml), $(b,--budget) and $(b,--stable) are ignored \
             (the checkpoint carries the budget).")
  in
  let ladder =
    Arg.(
      value & opt int 0
      & info [ "ladder" ] ~docv:"N"
          ~doc:
            "Materialize an $(docv)-tier degradation ladder in one \
             compression pass: the full $(b,--budget) synopsis plus \
             halved-budget rungs (budget/2, budget/4, ...), saved as a \
             single version-4 snapshot a brownout server \
             ($(b,treesketch serve --brownout)) degrades across under \
             overload.  0 (the default) builds a plain single-tier \
             snapshot.")
  in
  let run input budget out stable_only timeout checkpoint checkpoint_every resume
      ladder =
    let limits =
      match timeout with
      | None -> Xmldoc.Limits.unlimited
      | Some s -> Xmldoc.Limits.with_timeout s Xmldoc.Limits.unlimited
    in
    if checkpoint_every < 1 then begin
      prerr_endline "treesketch: --checkpoint-every must be >= 1";
      exit Cmd.Exit.cli_error
    end;
    if ladder < 0 then begin
      prerr_endline "treesketch: --ladder must be >= 0";
      exit Cmd.Exit.cli_error
    end;
    if ladder > 0 && (stable_only || resume <> None || checkpoint <> None) then begin
      prerr_endline
        "treesketch: --ladder is incompatible with --stable, --resume and \
         --checkpoint";
      exit Cmd.Exit.cli_error
    end;
    if ladder > 0 then begin
      (* ladder build: one compression pass, several snapshots out *)
      let doc =
        match input with
        | Some path -> read_doc path
        | None ->
          prerr_endline "treesketch: build needs DOC.xml";
          exit Cmd.Exit.cli_error
      in
      let stable = Sketch.Stable.build doc in
      (match Sketch.Build.build_ladder_res ~limits stable ~budget ~tiers:ladder with
      | Error f -> die f
      | Ok { ladder = tiers; ladder_degraded } ->
        (match out with
        | Some path -> (
          match Sketch.Serialize.save_ladder_atomic path tiers with
          | Ok () -> ()
          | Error f -> die f)
        | None -> print_string (Sketch.Serialize.to_ladder_string tiers));
        if ladder_degraded then
          prerr_endline
            "warning: a limit tripped mid-construction; some ladder tiers \
             hold the best-so-far (over-budget) synopsis";
        let n = List.length tiers in
        List.iteri
          (fun i (b, s) ->
            Printf.eprintf "tier %d/%d: budget=%d -> %d classes, %d bytes\n" i n
              b
              (Sketch.Synopsis.num_nodes s)
              (Sketch.Synopsis.size_bytes s))
          tiers);
      exit 0
    end;
    let synopsis, degraded, stable =
      match resume with
      | Some ckpt -> (
        match Sketch.Build.resume_res ~limits ~checkpoint_every ckpt with
        | Ok { synopsis; degraded } -> (synopsis, degraded, None)
        | Error f -> die f)
      | None ->
        let doc =
          match input with
          | Some path -> read_doc path
          | None ->
            prerr_endline "treesketch: build needs DOC.xml (or --resume=FILE)";
            exit Cmd.Exit.cli_error
        in
        let stable = Sketch.Stable.build doc in
        if stable_only then (stable, false, Some stable)
        else begin
          let result =
            match checkpoint with
            | Some path ->
              Sketch.Build.build_checkpointed_res ~limits ~checkpoint_every
                ~checkpoint:path stable ~budget
            | None -> Sketch.Build.build_res ~limits stable ~budget
          in
          match result with
          | Ok { synopsis; degraded } -> (synopsis, degraded, Some stable)
          | Error f -> die f
        end
    in
    (match out with
    | Some path -> (
      (* temp-file + atomic rename + checksum trailer: a crash mid-write
         can never leave a torn snapshot where a catalog would find it *)
      match Sketch.Serialize.save_atomic path synopsis with
      | Ok () -> ()
      | Error f -> die f)
    | None -> print_string (Sketch.Serialize.to_snapshot_string synopsis));
    if degraded then
      prerr_endline
        "warning: a limit tripped mid-construction; emitting the best-so-far \
         (over-budget) synopsis";
    (match stable with
    | Some stable ->
      Printf.eprintf "%s: %d classes, %d bytes (stable summary: %d bytes)\n"
        (if stable_only then "count-stable summary" else "treesketch")
        (Sketch.Synopsis.num_nodes synopsis)
        (Sketch.Synopsis.size_bytes synopsis)
        (Sketch.Synopsis.size_bytes stable)
    | None ->
      Printf.eprintf "treesketch (resumed): %d classes, %d bytes\n"
        (Sketch.Synopsis.num_nodes synopsis)
        (Sketch.Synopsis.size_bytes synopsis))
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a TREESKETCH synopsis from an XML document.")
    Term.(
      const run $ input $ budget $ out $ stable_only $ timeout $ checkpoint
      $ checkpoint_every $ resume $ ladder)

(* -------------------------------- query ------------------------------- *)

let query_arg =
  let parse s =
    match Twig.Parse.query s with
    | q -> Ok q
    | exception e -> (
      match Twig.Parse.error_to_string e with
      | Some msg -> Error (`Msg msg)
      | None -> raise e)
  in
  Arg.conv (parse, fun ppf q -> Twig.Syntax.pp ppf q)

let query_cmd =
  let synopsis =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SYNOPSIS.ts")
  in
  let query =
    Arg.(required & pos 1 (some query_arg) None & info [] ~docv:"QUERY")
  in
  let exact =
    Arg.(
      value
      & opt (some file) None
      & info [ "exact" ] ~docv:"DOC.xml"
          ~doc:"Also evaluate exactly over the document and report the error.")
  in
  let show_answer =
    Arg.(value & flag & info [ "answer" ] ~doc:"Print the approximate nesting tree.")
  in
  let run synopsis query exact show_answer =
    let ts = read_synopsis synopsis in
    let answer = Sketch.Eval.eval ts query in
    (* no request budget here: only the per-search work cap can cut *)
    if answer.degraded then prerr_endline "degraded: work";
    let estimate = Sketch.Selectivity.of_answer query answer in
    if answer.empty then print_endline "answer: (empty)"
    else begin
      Printf.printf "estimated binding tuples: %g\n" estimate;
      Printf.printf "answer synopsis: %d classes\n"
        (Sketch.Synopsis.num_nodes answer.synopsis);
      if show_answer then
        match Sketch.Eval.to_nesting_tree answer with
        | Some tree -> Format.printf "answer: %a@." Xmldoc.Tree.pp tree
        | None -> print_endline "answer too large to expand"
    end;
    match exact with
    | None -> ()
    | Some path ->
      let doc = Twig.Doc.of_tree (read_doc path) in
      let result = Twig.Eval.run doc query in
      Printf.printf "exact binding tuples:     %g\n" result.selectivity;
      (match (result.nesting, Sketch.Eval.to_nesting_tree answer) with
      | Some t, Some a ->
        Printf.printf "ESD(exact, approximate):  %g\n" (Metric.Esd.between_trees t a)
      | _ -> ())
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer a twig query approximately from a synopsis.")
    Term.(const run $ synopsis $ query $ exact $ show_answer)

(* -------------------------------- serve ------------------------------- *)

let serve_cmd =
  let catalog =
    Arg.(
      required
      & opt (some dir) None
      & info [ "c"; "catalog" ] ~docv:"DIR"
          ~doc:"Directory of $(b,name.ts) snapshots to serve.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of serving \
             stdin/stdout.")
  in
  let deadline =
    Arg.(
      value & opt float 5.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default per-request deadline; on expiry the partial \
             approximate answer is returned flagged degraded.  0 \
             disables.")
  in
  let max_answer_nodes =
    Arg.(
      value
      & opt int Serve.Server.default_config.max_answer_nodes
      & info [ "max-answer-nodes" ] ~docv:"N"
          ~doc:"Cap on answer/tree nodes per request.")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Serve.Server.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Socket connections served concurrently before shedding \
             load with $(b,error overloaded).")
  in
  let no_auto_reload =
    Arg.(
      value & flag
      & info [ "no-auto-reload" ]
          ~doc:
            "Only pick up snapshot changes on an explicit RELOAD \
             request.")
  in
  let drain_deadline =
    Arg.(
      value
      & opt float Serve.Server.default_config.drain_deadline
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM/SIGINT, seconds to wait for in-flight requests \
             to finish before severing them and exiting.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Evaluate QUERY/ANSWER in $(docv) prefork worker processes: \
             a crashing or runaway query costs one request ($(b,error \
             worker-crash), exit code 6 at the client) instead of the \
             server.  0 (the default) evaluates in-process.")
  in
  let watchdog_grace =
    Arg.(
      value
      & opt float Serve.Pool.default_config.watchdog_grace
      & info [ "watchdog-grace" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--workers): how far past its cooperative deadline \
             a query worker may run before being killed outright.")
  in
  let poison_threshold =
    Arg.(
      value
      & opt int Serve.Pool.default_config.poison_threshold
      & info [ "poison-threshold" ] ~docv:"K"
          ~doc:
            "With $(b,--workers): after killing $(docv) workers, a \
             (synopsis, query) pair is quarantined and answered \
             $(b,error poisoned) without evaluation.")
  in
  let brownout =
    Arg.(
      value & flag
      & info [ "brownout" ]
          ~doc:
            "Degrade under overload instead of queueing: when latency or \
             queue depth crosses the target, answer QUERY/ANSWER from a \
             coarser tier of any ladder snapshot ($(b,treesketch build \
             --ladder)) in the catalog, tagging responses \
             $(b,tier=<k>/<n> budget=<bytes>).  Admission becomes \
             deadline-aware: only requests that cannot be met even at \
             the coarsest tier are refused.")
  in
  let target_latency =
    Arg.(
      value
      & opt float Serve.Overload.default_config.target_latency
      & info [ "target-latency" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--brownout): per-request latency a healthy server \
             should deliver; the degradation controller steps up when \
             the latency EWMA crosses it.")
  in
  let brownout_levels =
    Arg.(
      value
      & opt int Serve.Overload.default_config.max_level
      & info [ "brownout-levels" ] ~docv:"N"
          ~doc:
            "With $(b,--brownout): coarsest degradation level the \
             controller may reach (clamped to each snapshot's ladder \
             depth at serving time).")
  in
  let scrub_interval =
    Arg.(
      value
      & opt float Serve.Server.default_config.scrub_interval
      & info [ "scrub-interval" ] ~docv:"SECONDS"
          ~doc:
            "Background integrity scrubbing: every $(docv) seconds a \
             supervised worker re-reads and re-verifies every snapshot \
             on disk; in-place corruption is quarantined \
             ($(b,reason=scrub-corrupt)) while the resident copy keeps \
             serving, orphaned temp files are swept, and — with \
             $(b,--peer) — a repair pull follows.  0 (the default) \
             disables the scrubber; the SCRUB verb stays available on \
             demand.")
  in
  let peers =
    Arg.(
      value
      & opt_all string []
      & info [ "peer" ] ~docv:"PATH"
          ~doc:
            "Socket of a replica peer serving the same catalog, used as \
             a repair source: a quarantined snapshot is re-fetched from \
             the healthiest peer holding a clean copy (verified \
             end-to-end, installed atomically).  Repeatable.  Without \
             peers, REPAIR answers $(b,error bad-request).")
  in
  let tmp_sweep_age =
    Arg.(
      value
      & opt float Serve.Server.default_config.tmp_sweep_age
      & info
          [ "tmp-sweep-age"; "sweep-age" ]
          ~docv:"SECONDS"
          ~doc:
            "Minimum age before an orphaned staging ($(b,.tmp)) file or \
             unreferenced ingestion level in the catalog is swept — must \
             exceed the longest plausible atomic-write window, since \
             live build workers and flushes stage under the same \
             naming.  The active value is echoed in the reload log line \
             ($(b,sweep_age=)).")
  in
  let repair_timeout =
    Arg.(
      value
      & opt float Serve.Server.default_config.repair_timeout
      & info [ "repair-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-peer-connection budget of a repair pull.")
  in
  let flush_every =
    Arg.(
      value
      & opt int Serve.Server.default_config.flush_records
      & info [ "flush-every" ] ~docv:"N"
          ~doc:
            "Live ingestion: acknowledged INGEST records are summarized \
             into a delta-TreeSketch level once $(docv) accumulate in \
             the write-ahead log (a flush also runs opportunistically \
             at startup replay and drain).  Smaller values bound \
             staleness tighter; larger ones amortize summarization.")
  in
  let level_budget =
    Arg.(
      value
      & opt int Serve.Server.default_config.level_budget
      & info [ "level-budget" ] ~docv:"NODES"
          ~doc:
            "Live ingestion: node budget each delta level (and each \
             compacted level) is compressed to.")
  in
  let compact_levels =
    Arg.(
      value
      & opt int Serve.Server.default_config.compact_levels
      & info [ "compact-levels" ] ~docv:"K"
          ~doc:
            "Live ingestion: once a synopsis accumulates $(docv) delta \
             levels, a supervised background job compacts them into \
             one (crash-safe: resumable from checkpoints, installed by \
             atomic manifest swap).  0 disables compaction.")
  in
  let disk_watermark =
    Arg.(
      value & opt int 0
      & info [ "disk-watermark" ] ~docv:"BYTES"
          ~doc:
            "Refuse all mutations (INGEST/DELETE/UPDATE answer \
             $(b,error readonly)) once the catalog filesystem's free \
             space falls under $(docv) bytes; reads, scrub and repair \
             keep serving, and repair's preflight learns the same \
             floor.  Write-pressure pacing and shedding engage earlier, \
             from twice the watermark down.  0 (the default) disables \
             the disk guardrail; WAL/memtable backpressure stays \
             active regardless.")
  in
  let run catalog socket deadline max_answer_nodes max_inflight no_auto_reload
      drain_deadline workers watchdog_grace poison_threshold brownout
      target_latency brownout_levels scrub_interval peers tmp_sweep_age
      repair_timeout flush_every level_budget compact_levels disk_watermark =
    let config =
      {
        Serve.Server.default_config with
        deadline = (if deadline <= 0.0 then None else Some deadline);
        max_answer_nodes;
        max_inflight;
        auto_reload = not no_auto_reload;
        drain_deadline;
        scrub_interval = Float.max 0.0 scrub_interval;
        peers;
        tmp_sweep_age = Float.max 0.0 tmp_sweep_age;
        repair_timeout;
        flush_records = max 1 flush_every;
        level_budget = max 1 level_budget;
        compact_levels = max 0 compact_levels;
        write_pressure =
          (let w = max 0 disk_watermark in
           {
             Serve.Write_pressure.default_config with
             disk_hard = w;
             disk_soft = 2 * w;
           });
        brownout =
          (if not brownout then None
           else
             Some
               {
                 Serve.Overload.default_config with
                 target_latency;
                 max_level = max 0 brownout_levels;
               });
        pool =
          {
            Serve.Pool.default_config with
            workers = max 0 workers;
            watchdog_grace;
            poison_threshold = max 1 poison_threshold;
          };
      }
    in
    let server = Serve.Server.create ~config catalog in
    (* SIGTERM/SIGINT request a graceful drain: the serve loop returns
       once in-flight requests are answered, and we exit 0 — the
       contract a rolling restart scripts against. *)
    Serve.Server.install_drain_signals server;
    (match socket with
    | Some path -> Serve.Server.serve_socket server ~path
    | None -> Serve.Server.serve_channels server stdin stdout);
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve twig queries from a resident synopsis catalog (line \
          protocol on stdin/stdout or a Unix socket).  The INGEST verb \
          appends XML fragments durably (write-ahead logged, fsync'd, \
          acknowledged with a sequence number) and folds them into \
          queryable delta levels; a crash replays the log, so every \
          acknowledged record survives.  SIGTERM or SIGINT drains \
          gracefully: in-flight requests are answered, build workers \
          reaped, and the process exits 0.")
    Term.(
      const run $ catalog $ socket $ deadline $ max_answer_nodes $ max_inflight
      $ no_auto_reload $ drain_deadline $ workers $ watchdog_grace
      $ poison_threshold $ brownout $ target_latency $ brownout_levels
      $ scrub_interval $ peers $ tmp_sweep_age $ repair_timeout $ flush_every
      $ level_budget $ compact_levels $ disk_watermark)

(* ----------------------------- coordinate ----------------------------- *)

let coordinate_cmd =
  let replicas =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "r"; "replica" ] ~docv:"PATH"
          ~doc:
            "Socket of one replica serving the same catalog.  \
             Repeatable; give every member of the group.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of serving \
             stdin/stdout.")
  in
  let hedge_after =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.hedge_after
      & info [ "hedge-after" ] ~docv:"SECONDS"
          ~doc:
            "How long a QUERY/ANSWER may sit unanswered before the same \
             request races a second replica.  First well-formed \
             response wins; the loser is cancelled.")
  in
  let timeout =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.request_timeout
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Overall per-request ceiling.  A request's own \
             $(b,-deadline) may tighten it, never widen it.")
  in
  let connect_timeout =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.connect_timeout
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-replica connect + send budget.")
  in
  let attempts =
    Arg.(
      value
      & opt int Serve.Coordinator.default_config.max_attempts
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Replicas tried per request, counting the primary, hedges \
             and retries.")
  in
  let retry_ratio =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.retry_ratio
      & info [ "retry-ratio" ] ~docv:"R"
          ~doc:
            "Retry-budget refill: hedges + retries are capped at \
             $(docv) per primary request over the long run, so a sick \
             group degrades instead of amplifying into a connect \
             storm.")
  in
  let retry_burst =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.retry_burst
      & info [ "retry-burst" ] ~docv:"N"
          ~doc:
            "Retry-budget bucket cap (and starting level, so cold-start \
             failover is never refused).")
  in
  let probe_interval =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.probe_interval
      & info [ "probe-interval" ] ~docv:"SECONDS"
          ~doc:
            "How often the background prober HEALTHs every replica to \
             feed ejection and re-admission.")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Serve.Coordinator.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Socket connections served concurrently before shedding \
             load with $(b,error overloaded).")
  in
  let drain_deadline =
    Arg.(
      value
      & opt float Serve.Coordinator.default_config.drain_deadline
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM/SIGINT, seconds to wait for in-flight scatters \
             before severing them and exiting.")
  in
  let eject_threshold =
    Arg.(
      value
      & opt int Serve.Replica.default_config.eject_threshold
      & info [ "eject-threshold" ] ~docv:"K"
          ~doc:
            "Consecutive failures before a replica is ejected from \
             routing for a jittered cooldown.")
  in
  let eject_cooldown =
    Arg.(
      value
      & opt float Serve.Replica.default_config.eject_cooldown
      & info [ "eject-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "How long an ejected replica sits out before a probational \
             re-admission (one more failure re-ejects).")
  in
  let seed =
    Arg.(
      value
      & opt int Serve.Replica.default_config.seed
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for re-admission jitter.")
  in
  let run replicas socket hedge_after timeout connect_timeout attempts
      retry_ratio retry_burst probe_interval max_inflight drain_deadline
      eject_threshold eject_cooldown seed =
    let config =
      {
        Serve.Coordinator.default_config with
        hedge_after;
        request_timeout = timeout;
        connect_timeout;
        max_attempts = max 1 attempts;
        retry_ratio;
        retry_burst;
        probe_interval;
        max_inflight;
        drain_deadline;
        replica =
          {
            Serve.Replica.default_config with
            eject_threshold = max 1 eject_threshold;
            eject_cooldown;
            seed;
          };
      }
    in
    let coord = Serve.Coordinator.create ~config replicas in
    Serve.Coordinator.install_drain_signals coord;
    (match socket with
    | Some path -> Serve.Coordinator.serve_socket coord ~path
    | None -> Serve.Coordinator.serve_channels coord stdin stdout);
    exit 0
  in
  Cmd.v
    (Cmd.info "coordinate"
       ~doc:
         ("Front a group of identical $(b,treesketch serve) replicas \
           with a hedged scatter-gather coordinator: QUERY/ANSWER go to \
           the healthiest replica and race a second one after \
           $(b,--hedge-after); hedges and retries are capped by a \
           per-group retry budget; unhealthy replicas are ejected and \
           re-admitted on probation.  Single-target verbs ("
         ^ String.concat ", "
             (List.filter (( <> ) "QUIT") Serve.Protocol.single_target_verbs)
         ^ ") are refused — address one replica directly with \
            $(b,treesketch client --target).  SIGTERM or SIGINT drains \
            gracefully and exits 0."))
    Term.(
      const run $ replicas $ socket $ hedge_after $ timeout
      $ connect_timeout $ attempts $ retry_ratio $ retry_burst
      $ probe_interval $ max_inflight $ drain_deadline $ eject_threshold
      $ eject_cooldown $ seed)

(* ------------------------------- client ------------------------------- *)

let client_cmd =
  let verb_list verbs = "(" ^ String.concat ", " verbs ^ ")" in
  let single_target = verb_list Serve.Protocol.single_target_verbs in
  let sockets =
    Arg.(
      value
      & opt_all string []
      & info [ "s"; "socket" ] ~docv:"PATH"
          ~doc:
            "Server socket to talk to.  Repeatable: the client fails \
             over to the next socket when one stops answering — give \
             both halves of a rolling restart.")
  in
  let replicas =
    Arg.(
      value
      & opt_all string []
      & info [ "r"; "replica" ] ~docv:"PATH"
          ~doc:
            ("Member of a replica group all serving the same catalog \
              (repeatable; mutually exclusive with $(b,--socket)).  \
              Reads fail over across the group, but single-target verbs "
            ^ single_target
            ^ " are refused unless $(b,--target) names the replica they \
               are for."))
  in
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"PATH"
          ~doc:
            ("With $(b,--replica): the one socket single-target verbs "
            ^ single_target ^ " are sent to."))
  in
  let timeout =
    Arg.(
      value
      & opt float Serve.Client.default_config.request_timeout
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt request deadline (send + receive).")
  in
  let connect_timeout =
    Arg.(
      value
      & opt float Serve.Client.default_config.connect_timeout
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"How long a connect may take before failing over.")
  in
  let attempts =
    Arg.(
      value
      & opt int Serve.Client.default_config.attempts
      & info [ "attempts" ] ~docv:"N"
          ~doc:"Total tries per request across the sockets.")
  in
  let retry_unsafe =
    Arg.(
      value & flag
      & info [ "retry-unsafe" ]
          ~doc:
            ("Also retry non-idempotent verbs "
            ^ verb_list
                (List.filter
                   (fun v -> not (List.mem v Serve.Client.idempotent_verbs))
                   Serve.Protocol.verbs)
            ^ " after a mid-flight failure.  Off by default: a retried \
               BUILD can restart a finished build."))
  in
  let seed =
    Arg.(
      value
      & opt int Serve.Client.default_config.jitter_seed
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for retry-backoff jitter.")
  in
  let breaker_threshold =
    Arg.(
      value
      & opt int Serve.Client.default_config.breaker_threshold
      & info [ "breaker-threshold" ] ~docv:"M"
          ~doc:
            "Consecutive worker-crash/deadline failures on one synopsis \
             before its circuit breaker opens and requests for it fail \
             fast locally.  0 disables the breaker.")
  in
  let breaker_cooldown =
    Arg.(
      value
      & opt float Serve.Client.default_config.breaker_cooldown
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "How long an open breaker fails fast before letting one \
             half-open probe through.")
  in
  let words =
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST")
  in
  let run sockets replicas target timeout connect_timeout attempts
      retry_unsafe seed breaker_threshold breaker_cooldown words =
    (match (sockets, replicas) with
    | [], [] ->
      Printf.eprintf
        "treesketch client: give --socket PATH or --replica PATH\n%!";
      exit Cmdliner.Cmd.Exit.cli_error
    | _ :: _, _ :: _ ->
      Printf.eprintf
        "treesketch client: --socket and --replica are mutually \
         exclusive\n\
         %!";
      exit Cmdliner.Cmd.Exit.cli_error
    | _ -> ());
    let config =
      {
        Serve.Client.default_config with
        request_timeout = timeout;
        connect_timeout;
        attempts;
        retry_unsafe;
        jitter_seed = seed;
        breaker_threshold;
        breaker_cooldown;
      }
    in
    let replica_mode = replicas <> [] in
    let client =
      Serve.Client.create ~config (if replica_mode then replicas else sockets)
    in
    let target_client =
      match target with
      | Some path -> Some (Serve.Client.create ~config [ path ])
      | None -> None
    in
    (* Any delivered response — including the server's own `error ...`
       lines — exits 0: the round-trip succeeded and the caller reads
       the verdict from stdout.  Only client-side faults (deadline,
       dead transport) exit non-zero, through the fault taxonomy. *)
    let send c line =
      match Serve.Client.request c line with
      | Ok response ->
        print_endline response;
        true
      | Error e ->
        Printf.eprintf "treesketch client: %s\n%!"
          (Serve.Client.error_to_string e);
        exit (Xmldoc.Fault.exit_code (Serve.Client.error_to_fault e))
    in
    let one line =
      (* In replica mode a side-effecting verb must name its target
         explicitly — a group cannot pick one implicitly (the same rule
         the coordinator enforces). *)
      if replica_mode && Serve.Protocol.single_target line then
        match target_client with
        | Some c -> send c line
        | None ->
          print_endline
            (Serve.Protocol.error_line ~cls:"bad-request"
               (Serve.Protocol.verb line
              ^ " is single-target: give --target PATH to address one \
                 replica"));
          true
      else send client line
    in
    (match words with
    | _ :: _ -> ignore (one (String.concat " " words))
    | [] ->
      (* REPL over stdin: one request per line until EOF *)
      let rec loop () =
        match input_line stdin with
        | exception End_of_file -> ()
        | line ->
          let trimmed = String.trim line in
          if trimmed = "" then loop ()
          else if one trimmed then loop ()
      in
      loop ());
    Serve.Client.close client;
    match target_client with
    | Some c -> Serve.Client.close c
    | None -> ()
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send line-protocol requests to one or more $(b,treesketch \
          serve) sockets with timeouts, retries and failover — or, \
          with $(b,--replica), to a whole replica group (reads fail \
          over; single-target verbs need $(b,--target)).  With a \
          REQUEST on the command line, sends it and prints the \
          response; without, reads requests from stdin.")
    Term.(
      const run $ sockets $ replicas $ target $ timeout $ connect_timeout
      $ attempts $ retry_unsafe $ seed $ breaker_threshold
      $ breaker_cooldown $ words)

(* -------------------------------- verify ------------------------------ *)

let verify_cmd =
  let paths =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SNAPSHOT.ts")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Report only corrupt files on stderr.")
  in
  let run paths quiet =
    (* [Scrub.verify_path] is the dispatcher the serving scrubber runs,
       so an offline `verify` and an online SCRUB or a restart's
       recovery can never disagree about what counts as corrupt *)
    let ok_line path = function
      | Serve.Scrub.Snapshot i ->
        Printf.sprintf "ok %s bytes=%d crc=%s fp=%s tiers=%d" path i.v_bytes
          i.v_crc i.v_fp i.v_tiers
      | Serve.Scrub.Wal_log { records; torn } ->
        Printf.sprintf "ok %s records=%d torn=%b" path records torn
      | Serve.Scrub.Manifest { flushed; levels; tombs } ->
        Printf.sprintf "ok %s flushed=%d levels=%d tombs=%d" path flushed
          levels tombs
      | Serve.Scrub.Delta { gen; records; bytes } ->
        Printf.sprintf "ok %s gen=%d records=%d bytes=%d" path gen records bytes
      | Serve.Scrub.Orphan i ->
        Printf.sprintf "ok %s orphan=true bytes=%d crc=%s" path i.v_bytes
          i.v_crc
    in
    let bad =
      List.fold_left
        (fun bad path ->
          match Serve.Scrub.verify_path path with
          | Ok verdict ->
            if not quiet then print_endline (ok_line path verdict);
            bad
          | Error faults ->
            List.iter
              (fun (file, fault) ->
                Printf.eprintf "corrupt %s: %s\n" file
                  (Xmldoc.Fault.to_string fault))
              faults;
            bad + 1)
        0 paths
    in
    if bad > 0 then begin
      Printf.eprintf "verify: %d of %d file(s) corrupt\n" bad
        (List.length paths);
      (* fsck convention: corruption found is exit 3, distinct from the
         cli-error and fault-taxonomy codes of the other subcommands *)
      exit 3
    end
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "$(b,0) every file verified clean; $(b,3) at least one file \
         failed verification or could not be read (fsck convention — \
         note this differs from the fault-taxonomy codes of the other \
         subcommands); $(b,124) usage error.";
    ]
  in
  Cmd.v
    (Cmd.info "verify" ~man
       ~doc:
         "Offline integrity check (fsck) of snapshot files and live \
          ingestion state: re-read each one and verify checksum \
          trailers, structural parse, synopsis invariants and — for \
          ladder snapshots — every tier.  Level manifests \
          ($(b,.name.levels)) are checked together with every delta \
          they list, delta files ($(b,.name.l<gen>.delta)) against \
          their manifest's crc, and WALs ($(b,.name.wal)) frame by \
          frame exactly as startup recovery replays them (a torn tail \
          passes — replay truncates it).  The same verification the \
          serving scrubber applies, without a server.")
    Term.(const run $ paths $ quiet)

(* --------------------------------- esd -------------------------------- *)

let esd_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.xml") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.xml") in
  let metric =
    Arg.(
      value
      & opt (enum [ ("mac", Metric.Esd.Mac); ("mac-linear", Mac_linear); ("emd", Emd) ])
          Metric.Esd.Mac
      & info [ "metric" ] ~doc:"Set distance: mac (default), mac-linear, emd.")
  in
  let run a b metric =
    let ta = read_doc a and tb = read_doc b in
    Printf.printf "ESD = %g\n" (Metric.Esd.between_trees ~metric ta tb);
    Printf.printf "tree-edit distance = %d\n" (Metric.Tree_edit.distance ta tb)
  in
  Cmd.v
    (Cmd.info "esd" ~doc:"Element Simulation Distance between two XML documents.")
    Term.(const run $ a $ b $ metric)

(* -------------------------------- stats ------------------------------- *)

let stats_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let run input =
    let doc = read_doc input in
    Format.printf "%a@." Xmldoc.Stats.pp (Xmldoc.Stats.compute doc);
    let stable = Sketch.Stable.build doc in
    Format.printf "count-stable summary: %d classes, %d bytes@."
      (Sketch.Synopsis.num_nodes stable)
      (Sketch.Synopsis.size_bytes stable)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Structural statistics of an XML document.")
    Term.(const run $ input)

let () =
  let doc = "Approximate XML query answering with TREESKETCH synopses." in
  (* The exit-code documentation is *rendered from* the same table the
     code exits through ([Xmldoc.Fault.exit_code_table]) — it cannot
     drift from behaviour, and a test pins the table to
     [Fault.exit_code] itself. *)
  let man =
    [
      `S Manpage.s_exit_status;
      `P "Every failure maps to a documented exit code:";
    ]
    @ List.concat_map
        (fun (code, cls, what) ->
          [ `I (Printf.sprintf "$(b,%d) (%s)" code cls, what) ])
        Xmldoc.Fault.exit_code_table
  in
  let info = Cmd.info "treesketch" ~version:"1.0.0" ~doc ~man in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            datagen_cmd;
            build_cmd;
            query_cmd;
            serve_cmd;
            verify_cmd;
            coordinate_cmd;
            client_cmd;
            esd_cmd;
            stats_cmd;
          ]))
