type config = {
  limits : Xmldoc.Limits.t;
  deadline : float option;
  max_answer_nodes : int;
  max_work : int;
  max_inflight : int;
  auto_reload : bool;
  drain_deadline : float;
  jobs : Jobs.config;
  pool : Pool.config;
  brownout : Overload.config option;
  scrub_interval : float;
      (* seconds between background integrity scrubs; 0 disables the
         scrubber thread (SCRUB stays available on demand) *)
  peers : string list;
      (* socket paths of replica peers to pull repairs from *)
  tmp_sweep_age : float;
      (* minimum age before an orphaned [.tmp] staging file is swept —
         must exceed the longest plausible atomic-write window, since
         live build workers stage under the same naming *)
  repair_timeout : float;  (* per-peer-connection budget of a repair pull *)
  flush_records : int;
      (* memtable records per flushed delta level: an INGEST that fills
         the memtable triggers an inline flush *)
  level_budget : int;
      (* byte budget a delta level (and a compacted level) is
         compressed under *)
  compact_levels : int;
      (* level count that triggers a background compaction job; 0
         disables auto-compaction (flushes still accumulate levels) *)
  write_pressure : Write_pressure.config;
      (* write-side admission control: pacing/shedding thresholds and
         the disk watermarks ([serve --disk-watermark] sets the hard
         one) *)
  disk_free : (unit -> int option) option;
      (* test override of the disk-free probe; [None] uses [df] *)
}

let default_config =
  {
    limits = Xmldoc.Limits.default;
    deadline = Some 5.0;
    max_answer_nodes = 100_000;
    max_work = 10_000_000;
    max_inflight = 8;
    auto_reload = true;
    drain_deadline = 5.0;
    jobs = Jobs.default_config;
    pool = Pool.default_config;
    brownout = None;
    scrub_interval = 0.0;
    peers = [];
    tmp_sweep_age = 60.0;
    repair_timeout = 5.0;
    flush_records = 64;
    level_budget = 4096;
    compact_levels = 4;
    write_pressure = Write_pressure.default_config;
    disk_free = None;
  }

type stats = {
  mutable served : int;
  mutable errors : int;
  mutable degraded : int;
  mutable refused_deadline : int;
      (* requests refused by deadline-aware admission: their remaining
         deadline was below the coarsest-tier latency estimate *)
}

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type t = {
    mutex : Mutex.t;
    capacity : int;
    mutable in_flight : int;
  }

  let create capacity = { mutex = Mutex.create (); capacity; in_flight = 0 }

  let try_acquire a =
    Mutex.protect a.mutex (fun () ->
        if a.in_flight >= a.capacity then false
        else begin
          a.in_flight <- a.in_flight + 1;
          true
        end)

  let release a =
    Mutex.protect a.mutex (fun () -> a.in_flight <- max 0 (a.in_flight - 1))

  let in_flight a = Mutex.protect a.mutex (fun () -> a.in_flight)

  let capacity a = a.capacity
end

type t = {
  config : config;
  catalog : Catalog.t;
  jobs : Jobs.t;
  pool : Pool.t;
  log : string -> unit;
  stats : stats;
  (* The stats record and [req_id] are bumped from every connection
     thread; nothing else shares this lock. *)
  stats_lock : Mutex.t;
  (* With the pool disabled, QUERY/ANSWER evaluate in-process and are
     serialized under this lock — evaluation is the only work whose
     thread-safety we don't vouch for per-subsystem.  Pool workers need
     no lock at all (separate processes), and no other verb takes it:
     PING/HEALTH/STAT never queue behind a slow query. *)
  eval_lock : Mutex.t;
  mutable req_id : int;
  (* Lifecycle: [draining] is flipped by {!request_drain} (usually from
     a SIGTERM/SIGINT handler) and only ever goes false -> true; the
     accept loop, the channel loops and HEALTH all read it.  A plain
     mutable bool is enough — flag stores are atomic in OCaml, and
     every reader tolerates seeing the flip one iteration late. *)
  mutable draining : bool;
  mutable catalog_ok : bool;
  mutable admission : Admission.t option;
  (* The brownout controller, present iff [config.brownout] is set: the
     read path feeds it latencies and consults its level. *)
  overload : Overload.t option;
  (* Live ingestion engines ({!Ingest}), one per name with INGEST
     state: reopened from on-disk WAL/level state at startup, created
     lazily on first INGEST otherwise.  The lock guards the table only
     — each engine serializes its own operations internally. *)
  engines : (string, Ingest.t) Hashtbl.t;
  engines_lock : Mutex.t;
  (* Write-side admission control ({!Write_pressure}): every mutation
     verb consults it before touching an engine; HEALTH/STAT expose its
     state for routing. *)
  pressure : Write_pressure.t;
}

let stats t = t.stats

let catalog t = t.catalog

let jobs t = t.jobs

let pool t = t.pool

let overload t = t.overload

let write_pressure t = t.pressure

let bump f t = Mutex.protect t.stats_lock (fun () -> f t.stats)

let draining t = t.draining

let log_event t fmt = Printf.ksprintf t.log fmt

let request_drain t =
  if not t.draining then begin
    t.draining <- true;
    log_event t "event=drain-requested"
  end

(* Signal-handler-safe: [request_drain] only stores a flag and calls
   the log callback; the default stderr logger allocates, which OCaml
   handlers permit (they run between bytecode/native safepoints, not
   in async-signal context). *)
let install_drain_signals t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  (try Sys.set_signal Sys.sigterm handle
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint handle
  with Invalid_argument _ | Sys_error _ -> ()

let log_catalog_events t events =
  (* Readiness tracking: any scan error marks the catalog unhealthy
     until a later refresh scans cleanly. *)
  t.catalog_ok <-
    not (List.exists (function Catalog.Scan_error _ -> true | _ -> false) events);
  List.iter
    (fun event ->
      match event with
      | Catalog.Loaded name -> log_event t "event=load name=%s" name
      | Catalog.Reloaded name -> log_event t "event=reload name=%s" name
      | Catalog.Removed name -> log_event t "event=remove name=%s" name
      | Catalog.Quarantined (name, fault) ->
        log_event t "event=quarantine name=%s class=%s msg=%S" name
          (Xmldoc.Fault.class_name fault)
          (Xmldoc.Fault.to_string fault)
      | Catalog.Scan_error fault ->
        log_event t "event=scan-error class=%s msg=%S"
          (Xmldoc.Fault.class_name fault)
          (Xmldoc.Fault.to_string fault))
    events

let create ?(log = prerr_endline) ?(config = default_config) dir =
  (* The pool always follows the server's own caps; only the
     pool-specific knobs (size, watchdog, quarantine, chaos) come from
     [config.pool]. *)
  let pool_config =
    {
      config.pool with
      Pool.limits = config.limits;
      deadline = config.deadline;
      max_answer_nodes = config.max_answer_nodes;
      max_work = config.max_work;
      auto_reload = config.auto_reload;
    }
  in
  let t =
    {
      config;
      catalog = Catalog.create ~limits:config.limits dir;
      jobs = Jobs.create ~config:config.jobs ~log dir;
      pool = Pool.create ~log pool_config dir;
      log;
      stats = { served = 0; errors = 0; degraded = 0; refused_deadline = 0 };
      stats_lock = Mutex.create ();
      eval_lock = Mutex.create ();
      req_id = 0;
      draining = false;
      catalog_ok = true;
      admission = None;
      overload =
        Option.map (fun config -> Overload.create ~config ()) config.brownout;
      engines = Hashtbl.create 8;
      engines_lock = Mutex.create ();
      pressure =
        Write_pressure.create ~config:config.write_pressure
          ?disk_free:config.disk_free ~dir ();
    }
  in
  (* Startup fsck: the initial refresh above already re-validated every
     snapshot end to end (quarantining failures); the sweep clears
     [.tmp] staging files orphaned by a previous generation's crash
     mid-atomic-write.  Age-gated even at startup — another server may
     share the directory and be mid-publish right now. *)
  log_catalog_events t (Catalog.refresh t.catalog);
  List.iter
    (fun file -> log_event t "event=tmp-swept file=%s" file)
    (Scrub.sweep_tmp ~max_age:config.tmp_sweep_age dir);
  (* Ingestion recovery: reopen every name with live WAL/level state
     and immediately flush whatever the WAL replayed — acknowledged
     records must be serveable the moment the restart completes, not
     after [flush_records] more arrivals.  An engine that fails to
     open is logged and skipped; its WAL is untouched on disk, so
     nothing acknowledged is lost — the next restart retries. *)
  List.iter
    (fun name ->
      let root_label =
        Option.map
          (fun (e : Catalog.entry) ->
            Sketch.Synopsis.label e.synopsis e.synopsis.Sketch.Synopsis.root)
          (Catalog.find t.catalog name)
      in
      match
        Ingest.open_ ~limits:config.limits ?root_label ~dir ~name
          ~level_budget:config.level_budget ~flush_records:config.flush_records
          ()
      with
      | Error f ->
        log_event t "event=ingest-open-failed name=%s class=%s msg=%S" name
          (Xmldoc.Fault.class_name f)
          (Xmldoc.Fault.to_string f)
      | Ok eng ->
        if Ingest.replayed_torn eng then
          log_event t "event=wal-torn-tail name=%s" name;
        Hashtbl.replace t.engines name eng;
        if Ingest.depth eng > 0 then (
          match Ingest.flush eng with
          | Ok true ->
            log_event t "event=ingest-replay-flush name=%s flushed=%d" name
              (Ingest.flushed_seq eng)
          | Ok false -> ()
          | Error f ->
            (* records stay in the WAL and memtable; the next flush
               retries *)
            log_event t "event=ingest-flush-failed name=%s class=%s msg=%S"
              name
              (Xmldoc.Fault.class_name f)
              (Xmldoc.Fault.to_string f)))
    (Ingest.discover ~dir);
  if Hashtbl.length t.engines > 0 then
    log_catalog_events t (Catalog.refresh t.catalog);
  t

(* In-process evaluation caps ({!Query_exec.budget_for} merges in the
   request's own options).  No heap ceiling here: a heap cap is only
   meaningful in a sacrificial pool worker whose heap is its own. *)
let caps t =
  {
    Query_exec.deadline = t.config.deadline;
    max_answer_nodes = t.config.max_answer_nodes;
    max_work = t.config.max_work;
    max_heap_words = max_int;
  }

let resolve t name =
  match Catalog.find t.catalog name with
  | Some entry -> Ok entry
  | None -> (
    match Catalog.fault_for t.catalog name with
    | Some fault -> Error (Protocol.fault_line fault)
    | None ->
      Error
        (Protocol.error_line ~cls:"not-found"
           (Printf.sprintf "no synopsis %S in the catalog" name)))

let yes_no b = if b then "yes" else "no"

let find_engine t name =
  Mutex.protect t.engines_lock (fun () -> Hashtbl.find_opt t.engines name)

(* The INGEST path creates engines lazily: the first ingest for a name
   opens (and creates) its WAL.  The delta root label comes from the
   base snapshot when one is resident, so level forests graft under the
   right document root. *)
let engine_for t name =
  Mutex.protect t.engines_lock @@ fun () ->
  match Hashtbl.find_opt t.engines name with
  | Some eng -> Ok eng
  | None -> (
    let root_label =
      Option.map
        (fun (e : Catalog.entry) ->
          Sketch.Synopsis.label e.synopsis e.synopsis.Sketch.Synopsis.root)
        (Catalog.find t.catalog name)
    in
    match
      Ingest.open_ ~limits:t.config.limits ?root_label
        ~dir:(Catalog.dir t.catalog) ~name
        ~level_budget:t.config.level_budget
        ~flush_records:t.config.flush_records ()
    with
    | Error f -> Error f
    | Ok eng ->
      Hashtbl.replace t.engines name eng;
      Ok eng)

let all_engines t =
  Mutex.protect t.engines_lock (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.engines [])

(* Did a pool worker's response carry a partial answer?  The parent
   only sees the rendered line, so it recovers the fact from the
   protocol fields it would have rendered itself. *)
let response_degraded resp =
  let contains needle =
    let nl = String.length needle and hl = String.length resp in
    let rec go i = i + nl <= hl && (String.sub resp i nl = needle || go (i + 1)) in
    go 0
  in
  String.length resp >= 3
  && String.sub resp 0 3 = "ok "
  && ((not (contains " degraded=no")) || contains " truncated=yes")

(* The read path.  [line] is the raw request line — with the pool
   enabled it is forwarded verbatim to a worker (which re-parses it),
   so the two paths cannot disagree about the request's meaning.  The
   parent still resolves the name first: not-found and quarantine
   answers come straight from the resident catalog without consuming a
   worker. *)
let exec_read t ~line kind (opts : Protocol.opts) name q =
  match resolve t name with
  | Error l -> l
  | Ok entry ->
    let level =
      match t.overload with Some o -> Overload.level o | None -> 0
    in
    let refused =
      (* Deadline-aware admission: refuse only a request whose own
         remaining deadline is below the coarsest-tier latency estimate
         — it would burn a slot and still miss.  Requests without a
         deadline are always admitted. *)
      match (t.overload, opts.deadline) with
      | Some o, Some d -> not (Overload.admit o ~deadline:d)
      | _ -> false
    in
    if refused then begin
      bump (fun s -> s.refused_deadline <- s.refused_deadline + 1) t;
      Protocol.error_line ~cls:"overloaded"
        (Printf.sprintf
           "deadline %gs cannot be met even at the coarsest tier"
           (Option.value opts.deadline ~default:0.0))
    end
    else begin
      let queue_depth =
        match t.admission with Some a -> Admission.in_flight a | None -> 0
      in
      let _, tag = Query_exec.select_tier entry opts ~level in
      (* A single-tier entry's only rung IS its coarsest answer, so its
         latencies train the admission estimate too. *)
      let coarsest =
        match tag with None -> true | Some (k, n, _) -> k = n - 1
      in
      (* A name with live-ingested delta levels evaluates IN-PROCESS
         even with the pool enabled: the staleness bound tagged on the
         response is engine state (age of the oldest unflushed WAL
         record) that only the parent holds — a pool worker re-parsing
         the line against its own catalog could serve the levels but
         would have to invent the staleness. *)
      let levels =
        if Array.length entry.Catalog.levels = 0 then None
        else
          let staleness =
            match find_engine t name with
            | Some eng -> Ingest.staleness eng
            | None -> 0.
          in
          Some (entry.Catalog.levels, staleness)
      in
      let started = Xmldoc.Limits.now () in
      let response =
        if Pool.enabled t.pool && Option.is_none levels then begin
          (* Workers re-parse the raw line against their own catalog:
             the parent's degradation level travels in-band. *)
          let line = Protocol.with_tier line ~level in
          let response =
            Pool.exec t.pool ~name
              ~query_key:(Twig.Syntax.to_string q)
              ~opts ~line
          in
          if response_degraded response then
            bump (fun s -> s.degraded <- s.degraded + 1) t;
          response
        end
        else begin
          let budget = Query_exec.budget_for (caps t) opts in
          let synopsis, tier = Query_exec.select_tier entry opts ~level in
          let outcome =
            Mutex.protect t.eval_lock (fun () ->
                Query_exec.run_guarded ?tier ?levels ~budget kind synopsis q)
          in
          if outcome.degraded then
            bump (fun s -> s.degraded <- s.degraded + 1) t;
          outcome.response
        end
      in
      (match t.overload with
      | Some o ->
        Overload.observe ~coarsest o ~queue_depth
          ~latency:(Xmldoc.Limits.now () -. started)
      | None -> ());
      response
    end

(* ------------------------------------------------------------------ *)
(* Anti-entropy: scrub, sweep, repair                                  *)
(* ------------------------------------------------------------------ *)

let sweep_tmp t =
  let dir = Catalog.dir t.catalog in
  (* one age knob governs both: [.tmp] staging orphans and level delta
     files no manifest references *)
  let swept =
    Scrub.sweep_tmp ~max_age:t.config.tmp_sweep_age dir
    @ Scrub.sweep_levels ~max_age:t.config.tmp_sweep_age dir
  in
  List.iter (fun file -> log_event t "event=tmp-swept file=%s" file) swept;
  swept

(* The synchronous scrub (the SCRUB verb): scan, quarantine, sweep, all
   inline.  The background scrubber gets the same verdicts from a
   forked worker's report instead, so the serving threads never pay the
   re-read. *)
let scrub_now t =
  match Scrub.scan ~limits:t.config.limits (Catalog.dir t.catalog) with
  | Error f -> Error f
  | Ok reports ->
    let corrupt =
      List.filter_map
        (fun r ->
          match r.Scrub.f_result with
          | Ok _ -> None
          | Error fault -> Some (r.Scrub.f_name, fault))
        reports
    in
    List.iter
      (fun (name, fault) ->
        Catalog.quarantine_scrub t.catalog name fault;
        log_event t "event=scrub-quarantine name=%s class=%s msg=%S" name
          (Xmldoc.Fault.class_name fault)
          (Xmldoc.Fault.to_string fault))
      corrupt;
    let swept = sweep_tmp t in
    Ok (List.length reports, List.length corrupt, List.length swept)

(* Rehydrate a structured fault from a scrub report's (class, message)
   pair — only the class must round-trip exactly (STAT renders it as
   [reason=scrub-<class>]); positions are gone, the message is kept. *)
let fault_of_reported r_class r_msg =
  match r_class with
  | "parse" -> Xmldoc.Fault.Parse_error { line = 0; column = 0; message = r_msg }
  | "limit" -> Xmldoc.Fault.Limit_exceeded { what = r_msg; actual = 0; limit = 0 }
  | "deadline" -> Xmldoc.Fault.Deadline { stage = r_msg; elapsed = 0.0 }
  | "io" -> Xmldoc.Fault.Io_error { path = ""; message = r_msg }
  | "worker-crash" -> Xmldoc.Fault.Worker_crash { reason = r_msg }
  | _ -> Xmldoc.Fault.Corrupt_synopsis { line = 0; content = ""; message = r_msg }

(* Replay a finished scrub worker's report as quarantine decisions,
   then consume it.  Returns how many names were quarantined. *)
let apply_scrub_report t =
  let dir = Catalog.dir t.catalog in
  match Scrub.read_report dir with
  | None -> 0
  | Some lines ->
    let corrupt =
      List.filter_map
        (function
          | name, Scrub.Report_corrupt { r_class; r_msg } ->
            Some (name, fault_of_reported r_class r_msg)
          | _, Scrub.Report_ok _ -> None)
        lines
    in
    List.iter
      (fun (name, fault) ->
        Catalog.quarantine_scrub t.catalog name fault;
        log_event t "event=scrub-quarantine name=%s class=%s msg=%S" name
          (Xmldoc.Fault.class_name fault)
          (Xmldoc.Fault.to_string fault))
      corrupt;
    Scrub.remove_report dir;
    List.length corrupt

(* One repair pass against the configured peers, then a refresh so a
   freshly installed file (new inode) re-enters the catalog — clearing
   its quarantine — without waiting for the next client request. *)
let repair_now t =
  let outcomes =
    (* the repair preflight learns the same hard disk watermark the
       write path refuses under: an install must not consume the
       headroom the watermark protects *)
    Repair.sync ~limits:t.config.limits
      ~free:(fun () -> Write_pressure.disk_free t.pressure)
      ~min_free:(Write_pressure.min_free t.pressure)
      ~timeout:t.config.repair_timeout
      ~dir:(Catalog.dir t.catalog) ~peers:t.config.peers
      ~local_hashes:(Catalog.hashes t.catalog)
      ~quarantined:
        (List.map (fun q -> q.Catalog.q_name) (Catalog.quarantined t.catalog))
      ()
  in
  List.iter
    (fun outcome ->
      match outcome with
      | Repair.Repaired { name; peer; crc } ->
        log_event t "event=repair name=%s peer=%s crc=%s" name peer crc
      | Repair.Deferred { name; reason } ->
        log_event t "event=repair-deferred name=%s reason=%S" name reason
      | Repair.Failed { name; reason } ->
        log_event t "event=repair-failed name=%s reason=%S" name reason)
    outcomes;
  if outcomes <> [] then log_catalog_events t (Catalog.refresh t.catalog);
  outcomes

(* ------------------------------------------------------------------ *)
(* The write path: admission-controlled mutations                      *)
(* ------------------------------------------------------------------ *)

(* Feed the controller the summed write-path signals — WAL bytes
   outstanding, memtable depth, and the worst flush lag — so its next
   verdict reflects the whole server's backlog, not one engine's. *)
let observe_pressure t =
  let wal_bytes, depth, lag =
    List.fold_left
      (fun (w, d, s) eng ->
        ( w + Ingest.wal_bytes eng,
          d + Ingest.depth eng,
          Float.max s (Ingest.staleness eng) ))
      (0, 0, 0.) (all_engines t)
  in
  Write_pressure.observe t.pressure ~wal_bytes ~depth ~lag

(* After a durable append: inline flush when the memtable is full, then
   background compaction when the level stack is deep — throughput work
   that must never delay or fail the (already durable) ack. *)
let schedule_maintenance t name eng =
  if Ingest.should_flush eng then begin
    (match Ingest.flush eng with
    | Ok true ->
      log_event t "event=ingest-flush name=%s flushed=%d levels=%d" name
        (Ingest.flushed_seq eng) (Ingest.level_count eng)
    | Ok false -> ()
    | Error f ->
      (* records stay in the WAL and memtable; the next flush attempt
         retries *)
      log_event t "event=ingest-flush-failed name=%s class=%s msg=%S" name
        (Xmldoc.Fault.class_name f)
        (Xmldoc.Fault.to_string f));
    if
      t.config.compact_levels > 0
      && Ingest.level_count eng >= t.config.compact_levels
      && not (Ingest.compacting eng)
    then
      match
        Jobs.submit_compact t.jobs ~name ~level_budget:t.config.level_budget
      with
      | Ok _ ->
        (* flushes pause until the job is reaped: the memtable grows and
           staleness rises, but the level set the child is merging stays
           stable *)
        Ingest.set_compacting eng true;
        log_event t "event=compact-start name=%s levels=%d" name
          (Ingest.level_count eng)
      | Error _ -> ()
  end

(* The shared body of INGEST/DELETE/UPDATE: one write-pressure verdict,
   then the engine's durable append, the verb-tagged ack, and
   flush/compaction scheduling.  The deferred answers retain NOTHING —
   the client's resend is safe — which is what licenses the client
   library to honor [retry-after] automatically. *)
let exec_mutation t name verb op =
  observe_pressure t;
  match Write_pressure.admit t.pressure with
  | `Readonly ->
    Protocol.error_line ~cls:"readonly"
      (Printf.sprintf
         "disk free under the hard watermark: mutations refused (%s); reads, \
          scrub and repair still serve"
         (Write_pressure.describe t.pressure))
  | `Defer ms ->
    Protocol.error_line ~cls:"ingest-deferred"
      (Printf.sprintf "retry-after=%d %s" ms
         (Write_pressure.describe t.pressure))
  | `Admit pace -> (
    match engine_for t name with
    | Error f -> Protocol.fault_line f
    | Ok eng -> (
      let result =
        match op with
        | `Ingest xml -> Ingest.ingest eng ~xml
        | `Delete path -> Ingest.delete eng ~path
        | `Update (path, xml) -> Ingest.update eng ~path ~xml
      in
      match result with
      | Error `No_space ->
        (* nothing was retained — the WAL could not grow.  Same answer
           shape as a shed, because the client contract is the same:
           back off [retry-after], then resend. *)
        Protocol.error_line ~cls:"ingest-deferred"
          (Printf.sprintf "retry-after=%d WAL for %S cannot grow (no space)"
             (Write_pressure.retry_hint t.pressure)
             name)
      | Error (`Fault f) -> Protocol.fault_line f
      | Ok (seq, depth) ->
        (* The ack below is already durable (WAL appended and fsynced
           before the engine returned). *)
        let response =
          Printf.sprintf "ok %s name=%s seq=%d wal=%d%s" verb name seq depth
            (match pace with
            | Some ms -> Printf.sprintf " backpressure=%d" ms
            | None -> "")
        in
        schedule_maintenance t name eng;
        response))

let handle_request t ~line (req : Protocol.request) =
  match req with
  | Ping -> ("pong", false)
  | Quit -> ("bye", true)
  | Health ->
    (* Liveness vs readiness: answering at all is liveness; [ready=yes]
       additionally promises this server can take NEW traffic — not
       draining, catalog directory scanning cleanly, job supervisor
       responsive, connection pool not saturated.  A rolling restart
       SIGTERMs one server and waits for the next one's [ready=yes]
       before shifting traffic to it. *)
    let inflight, capacity =
      match t.admission with
      | Some a -> (Admission.in_flight a, Admission.capacity a)
      | None -> (0, t.config.max_inflight)
    in
    let jobs_ok = match Jobs.poll t.jobs with () -> true | exception _ -> false in
    let overloaded = inflight >= capacity in
    let reason =
      if t.draining then Some "draining"
      else if not t.catalog_ok then Some "catalog-scan-failed"
      else if not jobs_ok then Some "jobs-unresponsive"
      else if overloaded then Some "overloaded"
      else None
    in
    let pool_field =
      if Pool.enabled t.pool then begin
        let p = Pool.stats t.pool in
        Printf.sprintf " pool=%d/%d busy=%d kills=%d quarantined_queries=%d"
          p.Pool.live p.Pool.total p.Pool.busy p.Pool.kills p.Pool.quarantined
      end
      else ""
    in
    let load_field =
      (* [load=<level>] is the brownout level a coordinator's probe
         reads to rank browned-out members below Ready-and-cool ones;
         absent when brownout is off (probes treat missing as cool). *)
      match t.overload with
      | Some o -> Printf.sprintf " load=%d" (Overload.level o)
      | None -> ""
    in
    let hash_field =
      (* the group-divergence signal: the coordinator's prober compares
         members' values and marks the odd one out stale *)
      Printf.sprintf " catalog_hash=%s" (Catalog.combined_hash t.catalog)
    in
    let ingest_field =
      (* WAL depth and staleness bound across all engines — what the
         coordinator's prober reads to rank a lagging member below
         fresh ones.  Appended only when nonzero: servers without live
         ingestion keep the exact pre-ingest line. *)
      let depth, staleness =
        List.fold_left
          (fun (d, s) eng ->
            (d + Ingest.depth eng, Float.max s (Ingest.staleness eng)))
          (0, 0.) (all_engines t)
      in
      if depth = 0 then ""
      else Printf.sprintf " wal=%d staleness=%.3f" depth staleness
    in
    let write_field =
      (* Write-pressure state for routing: the coordinator's prober
         prefers members not shedding or readonly for INGEST --target
         suggestions.  Appended only when the server has live
         ingestion state or a disk watermark configured: servers with
         neither keep the exact pre-ingest line. *)
      let engines = all_engines t in
      let c = t.config.write_pressure in
      if
        engines = []
        && c.Write_pressure.disk_soft = 0
        && c.Write_pressure.disk_hard = 0
      then ""
      else begin
        observe_pressure t;
        let wal_bytes =
          List.fold_left (fun w eng -> w + Ingest.wal_bytes eng) 0 engines
        in
        Printf.sprintf " wal_bytes=%d%s write_state=%s" wal_bytes
          (match Write_pressure.disk_free t.pressure with
          | Some free -> Printf.sprintf " disk_free=%d" free
          | None -> "")
          (Write_pressure.state_token (Write_pressure.state t.pressure))
      end
    in
    ( Printf.sprintf
        "ok health live=yes ready=%s draining=%s catalog=%d quarantined=%d \
         inflight=%d/%d jobs=%d%s%s%s%s%s%s"
        (yes_no (reason = None))
        (yes_no t.draining)
        (Catalog.size t.catalog)
        (List.length (Catalog.quarantined t.catalog))
        inflight capacity
        (Jobs.running_count t.jobs)
        load_field pool_field hash_field ingest_field write_field
        (match reason with None -> "" | Some r -> " reason=" ^ r),
      false )
  | List ->
    let names = Catalog.names t.catalog in
    let hashes =
      String.concat ","
        (List.map
           (fun (n, crc, fp) -> Printf.sprintf "%s:%s:%s" n crc fp)
           (Catalog.hashes t.catalog))
    in
    ( Printf.sprintf "ok catalog n=%d names=%s quarantined=%d hashes=%s"
        (List.length names) (String.concat "," names)
        (List.length (Catalog.quarantined t.catalog))
        hashes,
      false )
  | Reload { force } ->
    let swept = sweep_tmp t in
    let events = Catalog.refresh ~force t.catalog in
    log_catalog_events t events;
    let count p = List.length (List.filter p events) in
    ( Printf.sprintf
        "ok reload loaded=%d reloaded=%d quarantined=%d removed=%d swept=%d \
         sweep_age=%g"
        (count (function Catalog.Loaded _ -> true | _ -> false))
        (count (function Catalog.Reloaded _ -> true | _ -> false))
        (count (function Catalog.Quarantined _ -> true | _ -> false))
        (count (function Catalog.Removed _ -> true | _ -> false))
        (List.length swept) t.config.tmp_sweep_age,
      false )
  | Stat name -> (
    (* Quarantine is a reportable condition, not an error: operators
       STAT a name precisely to learn why it is not (or no longer)
       serving fresh data.  A name can be both resident and quarantined
       — the previous good version keeps serving while the latest
       on-disk file is rejected. *)
    let quarantine =
      match Catalog.quarantine_for t.catalog name with
      | Some q ->
        Printf.sprintf "quarantined=yes reason=%s" (Catalog.quarantine_reason q)
      | None -> "quarantined=no"
    in
    (* Live-ingestion visibility: level stack, WAL depth, staleness
       bound.  Engine state wins when an engine is open (the catalog's
       view of [flushed] can lag one refresh behind); empty for names
       without ingestion state, keeping the pre-ingest line exact. *)
    let ingest =
      match find_engine t name with
      | Some eng when Ingest.level_count eng > 0 || Ingest.depth eng > 0 ->
        observe_pressure t;
        Printf.sprintf
          " levels=%d level_records=%d flushed=%d wal=%d staleness=%.3f \
           wal_bytes=%d%s write_state=%s"
          (Ingest.level_count eng) (Ingest.level_records eng)
          (Ingest.flushed_seq eng) (Ingest.depth eng) (Ingest.staleness eng)
          (Ingest.wal_bytes eng)
          (match Write_pressure.disk_free t.pressure with
          | Some free -> Printf.sprintf " disk_free=%d" free
          | None -> "")
          (Write_pressure.state_token (Write_pressure.state t.pressure))
      | Some _ -> ""
      | None -> (
        match Catalog.find t.catalog name with
        | Some e when Array.length e.Catalog.levels > 0 ->
          Printf.sprintf
            " levels=%d level_records=%d flushed=%d wal=0 staleness=0.000"
            (Array.length e.Catalog.levels)
            e.Catalog.level_records e.Catalog.flushed_seq
        | _ -> "")
    in
    match Catalog.find t.catalog name with
    | Some entry ->
      let s = entry.synopsis in
      ( Printf.sprintf
          "ok stat name=%s classes=%d edges=%d bytes=%d stable=%s %s%s" name
          (Sketch.Synopsis.num_nodes s)
          (Sketch.Synopsis.num_edges s)
          (Sketch.Synopsis.size_bytes s)
          (yes_no (Sketch.Synopsis.is_count_stable s))
          quarantine ingest,
        false )
    | None when Catalog.fault_for t.catalog name <> None ->
      ( Printf.sprintf "ok stat name=%s resident=no %s%s" name quarantine ingest,
        false )
    | None ->
      ( Protocol.error_line ~cls:"not-found"
          (Printf.sprintf "no synopsis %S in the catalog" name),
        false ))
  | Query (opts, name, q) -> (exec_read t ~line Query_exec.Query opts name q, false)
  | Answer (opts, name, q) ->
    (exec_read t ~line Query_exec.Answer opts name q, false)
  | Build { name; xml; budget } -> (
    match Jobs.submit t.jobs ~name ~xml ~budget with
    | Ok _ -> (Printf.sprintf "ok build name=%s state=running" name, false)
    | Error Jobs.Busy ->
      ( Protocol.error_line ~cls:"busy"
          (Printf.sprintf "job %S is already running" name),
        false )
    | Error Jobs.Overloaded ->
      ( Protocol.error_line ~cls:"overloaded"
          (Printf.sprintf "%d builds already running" (Jobs.running_count t.jobs)),
        false ))
  | Ingest { name; xml } -> (exec_mutation t name "ingest" (`Ingest xml), false)
  | Delete { name; path } ->
    (exec_mutation t name "delete" (`Delete path), false)
  | Update { name; path; xml } ->
    (exec_mutation t name "update" (`Update (path, xml)), false)
  | Jobs ->
    Jobs.poll t.jobs;
    (* dot-prefixed jobs (the reserved scrub job) are supervisor
       housekeeping, not client builds: hidden from the listing, just
       as dot-prefixed files are hidden from the catalog *)
    let jobs =
      List.filter
        (fun (j : Jobs.job) -> j.name = "" || j.name.[0] <> '.')
        (Jobs.list t.jobs)
    in
    let cell (j : Jobs.job) =
      Printf.sprintf " %s=%s" j.name (Jobs.state_token j.state)
    in
    ( Printf.sprintf "ok jobs n=%d%s" (List.length jobs)
        (String.concat "" (List.map cell jobs)),
      false )
  | Cancel name -> (
    match Jobs.cancel t.jobs name with
    | Some job ->
      ( Printf.sprintf "ok cancel name=%s state=%s" name
          (Jobs.state_token job.state),
        false )
    | None ->
      ( Protocol.error_line ~cls:"not-found"
          (Printf.sprintf "no job %S" name),
        false ))
  | Scrub -> (
    match scrub_now t with
    | Error f -> (Protocol.fault_line f, false)
    | Ok (checked, corrupt, swept) ->
      ( Printf.sprintf "ok scrub checked=%d corrupt=%d swept=%d" checked corrupt
          swept,
        false ))
  | Fetch name -> (
    let path =
      Filename.concat (Catalog.dir t.catalog) (name ^ Catalog.snapshot_extension)
    in
    if not (Sys.file_exists path) then
      ( Protocol.error_line ~cls:"not-found"
          (Printf.sprintf "no snapshot %S in the catalog" name),
        false )
    else
      (* verify before streaming: a repair source must never hand a
         peer the very rot it is trying to recover from *)
      match Scrub.load_file ~limits:t.config.limits path with
      | Error f -> (Protocol.fault_line f, false)
      | Ok (text, _, _) -> (Repair.render_fetch ~path ~name text, false))
  | Repair ->
    if t.config.peers = [] then
      ( Protocol.error_line ~cls:"bad-request"
          "no repair peers configured (serve --peer)",
        false )
    else begin
      let outcomes = repair_now t in
      let count p = List.length (List.filter p outcomes) in
      let repaired = count (function Repair.Repaired _ -> true | _ -> false) in
      let deferred = count (function Repair.Deferred _ -> true | _ -> false) in
      let failed = count (function Repair.Failed _ -> true | _ -> false) in
      let counts =
        Printf.sprintf "attempted=%d repaired=%d deferred=%d failed=%d"
          (List.length outcomes) repaired deferred failed
      in
      if deferred > 0 then
        (* disk full: degrade, don't wedge — the clean copies are still
           on the peers, so the repair resumes when space frees up *)
        (Protocol.error_line ~cls:"repair-deferred" counts, false)
      else (Printf.sprintf "ok repair %s" counts, false)
    end

(* After {!Jobs.poll}: every engine whose compaction job reached a
   terminal state re-reads the manifest (the child swapped it — or
   died, or discarded a stale result as a no-op; the manifest is the
   only truth) and resumes flushing. *)
let reap_compactions t =
  List.iter
    (fun eng ->
      if Ingest.compacting eng then begin
        let terminal =
          match Jobs.find t.jobs (Jobs.compact_name (Ingest.name eng)) with
          | Some { Jobs.state = Jobs.Running _ | Jobs.Backoff _; _ } -> false
          | Some _ | None -> true
        in
        if terminal then begin
          (match Ingest.refresh eng with
          | Ok () -> ()
          | Error f ->
            log_event t "event=compact-refresh-failed name=%s class=%s msg=%S"
              (Ingest.name eng)
              (Xmldoc.Fault.class_name f)
              (Xmldoc.Fault.to_string f));
          Ingest.set_compacting eng false;
          log_event t "event=compact-done name=%s levels=%d" (Ingest.name eng)
            (Ingest.level_count eng)
        end
      end)
    (all_engines t)

(* The supervision boundary: whatever a request does — malformed
   syntax, a missing synopsis, an evaluator invariant violation — the
   server answers with a single structured line and keeps serving.
   Only the channel itself failing ends the loop. *)
let handle_line t line =
  let req_id =
    Mutex.protect t.stats_lock (fun () ->
        t.req_id <- t.req_id + 1;
        t.stats.served <- t.stats.served + 1;
        t.req_id)
  in
  (* Advance the build supervisor on every request: reap finished
     workers ([WNOHANG] — never blocks a response) and restart any
     whose backoff has elapsed; finished compactions re-enter their
     engines here too. *)
  (try
     Jobs.poll t.jobs;
     reap_compactions t
   with _ -> ());
  match Protocol.parse line with
  | Error reason ->
    bump (fun s -> s.errors <- s.errors + 1) t;
    (Protocol.error_line ~cls:"bad-request" reason, false)
  | Ok req -> (
    (* HEALTH must stay cheap and answerable even when the catalog
       directory is wedged, so it never triggers a rescan. *)
    if
      t.config.auto_reload
      && (match req with Ping | Health | Quit | Reload _ -> false | _ -> true)
    then log_catalog_events t (Catalog.refresh t.catalog);
    match handle_request t ~line req with
    | response -> response
    | exception e ->
      bump (fun s -> s.errors <- s.errors + 1) t;
      let msg = Printexc.to_string e in
      log_event t "event=request-error id=%d class=internal msg=%S" req_id msg;
      (Protocol.error_line ~cls:"internal" msg, false))

let serve_channels t ic oc =
  let rec loop () =
    if t.draining then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | line ->
        let response, quit = handle_line t line in
        (match
           output_string oc response;
           output_char oc '\n';
           flush oc
         with
        | () -> if not quit then loop ()
        | exception Sys_error _ -> ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The background scrubber                                             *)
(* ------------------------------------------------------------------ *)

(* One anti-entropy period: fork a scrub worker through the job
   supervisor (the re-read happens off the serving threads, in a
   process whose crash cannot take the server down), wait for it,
   replay its report as quarantines, sweep orphaned temp files, and —
   when peers are configured — pull repairs and converge.  Runs until
   drain when [scrub_interval > 0]. *)
let scrub_loop t =
  let interval = t.config.scrub_interval in
  let sleep_until wake =
    while (not t.draining) && Unix.gettimeofday () < wake do
      Thread.delay 0.02
    done
  in
  while not t.draining do
    sleep_until (Unix.gettimeofday () +. interval);
    if not t.draining then begin
      (match Jobs.submit_scrub t.jobs with
      | Error _ -> () (* a previous scrub still runs: skip this period *)
      | Ok job ->
        (* bound the wait so a wedged worker can never wedge the loop —
           an unfinished scrub's report simply isn't there to apply *)
        let give_up = Unix.gettimeofday () +. Float.max 5.0 interval in
        let rec await () =
          Jobs.poll t.jobs;
          match job.Jobs.state with
          | Jobs.Running _ | Jobs.Backoff _ ->
            if (not t.draining) && Unix.gettimeofday () < give_up then begin
              Thread.delay 0.02;
              await ()
            end
          | Jobs.Done _ | Jobs.Failed _ | Jobs.Cancelled -> ()
        in
        await ());
      let corrupt = apply_scrub_report t in
      let swept = sweep_tmp t in
      if corrupt > 0 || swept <> [] then
        log_event t "event=scrub corrupt=%d swept=%d" corrupt (List.length swept);
      if (not t.draining) && t.config.peers <> [] then
        ignore (repair_now t : Repair.outcome list)
    end
  done

(* ------------------------------------------------------------------ *)
(* Unix-socket front end                                               *)
(* ------------------------------------------------------------------ *)

let serve_socket ?(backlog = 64) t ~path =
  (* A client that disconnects mid-response must surface as a
     [Sys_error] (EPIPE) on the write — which the per-connection
     handlers catch — not as SIGPIPE, whose default action kills the
     whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock backlog;
  let admission = Admission.create t.config.max_inflight in
  t.admission <- Some admission;
  (* No server-wide request lock: every shared subsystem (label
     interning, the catalog, the job supervisor, the stats record, the
     pool) carries its own internal lock, and in-process evaluation —
     the one slow operation — is serialized under [t.eval_lock] alone.
     PING/HEALTH/STAT on one connection therefore never queue behind a
     long QUERY on another; admission control still sheds connections
     beyond [max_inflight] instead of letting them pile up. *)
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  (* Registry of live connection fds: drain shuts their receive sides
     down so threads blocked in [input_line] see EOF and exit, while
     responses still in flight go out on the untouched send sides. *)
  let conn_lock = Mutex.create () in
  let conns : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 16 in
  let register fd = Mutex.protect conn_lock (fun () -> Hashtbl.replace conns fd ()) in
  let unregister fd = Mutex.protect conn_lock (fun () -> Hashtbl.remove conns fd) in
  let live_conns () =
    Mutex.protect conn_lock (fun () ->
        Hashtbl.fold (fun fd () acc -> fd :: acc) conns [])
  in
  let connection fd =
    Fun.protect
      ~finally:(fun () ->
        Admission.release admission;
        unregister fd;
        close_quietly fd)
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let rec loop () =
          match
            Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Read ~path;
            input_line ic
          with
          | exception End_of_file -> ()
          | exception Sys_error _ -> ()
          | exception Unix.Unix_error _ -> () (* injected I/O fault: drop the connection *)
          | line ->
            let response, quit = handle_line t line in
            (match
               Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Write ~path;
               output_string oc response;
               output_char oc '\n';
               flush oc
             with
            (* a received line is always answered, drain or not; only
               AFTER responding does a draining connection close *)
            | () -> if not quit && not t.draining then loop ()
            | exception Sys_error _ -> ()
            | exception Unix.Unix_error _ -> ())
        in
        loop ())
  in
  let scrubber =
    if t.config.scrub_interval > 0.0 then Some (Thread.create scrub_loop t)
    else None
  in
  log_event t "event=listening socket=%s max_inflight=%d scrub_interval=%gs" path
    t.config.max_inflight t.config.scrub_interval;
  (* [select] with a short timeout rather than a bare blocking [accept]:
     the loop must notice [draining] promptly even when no connection
     ever arrives and no signal happens to land on this thread. *)
  let rec accept_loop () =
    if t.draining then ()
    else
      match
        Xmldoc.Io_fault.tap Xmldoc.Io_fault.Accept ~path;
        Unix.select [ sock ] [] [] 0.2
      with
      | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (e, _, _) ->
        (* injected faults and exotic errnos: log, breathe, keep
           listening — the accept loop must outlive any single error *)
        log_event t "event=accept-error errno=%s" (Unix.error_message e);
        Thread.delay 0.05;
        accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
        (match Unix.accept sock with
        | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) ->
          (* the connection died before we got it, or a signal landed:
             nothing to serve, keep listening *)
          ()
        | exception Unix.Unix_error (((EMFILE | ENFILE | ENOMEM) as e), _, _) ->
          (* fd/memory exhaustion — exactly the overload admission
             control exists for.  Back off briefly so in-flight
             connections can drain and release descriptors. *)
          log_event t "event=accept-error errno=%s" (Unix.error_message e);
          Thread.delay 0.05
        | exception Unix.Unix_error (e, _, _) ->
          log_event t "event=accept-error errno=%s" (Unix.error_message e);
          Thread.delay 0.05
        | fd, _ ->
          if Admission.try_acquire admission then begin
            register fd;
            ignore (Thread.create connection fd : Thread.t)
          end
          else begin
            (* shed load immediately rather than tying up a worker *)
            let oc = Unix.out_channel_of_descr fd in
            (try
               output_string oc
                 (Protocol.error_line ~cls:"overloaded"
                    (Printf.sprintf "%d connections already in flight"
                       t.config.max_inflight)
                 ^ "\n");
               flush oc
             with Sys_error _ -> ());
            close_quietly fd;
            bump (fun s -> s.errors <- s.errors + 1) t
          end);
        accept_loop ()
  in
  accept_loop ();
  (* ---------------- graceful drain ---------------- *)
  (* 1. Stop accepting: close and unlink the listening socket so new
     connects fail fast (clients fail over to the next server). *)
  close_quietly sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  log_event t "event=draining inflight=%d deadline=%.1fs"
    (Admission.in_flight admission) t.config.drain_deadline;
  (* 2. Let in-flight work finish: shut down the receive side of every
     live connection — threads parked in [input_line] wake with EOF,
     already-read requests still get their responses on the send side —
     then wait for the pool to empty, bounded by the drain deadline. *)
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (live_conns ());
  let give_up = Unix.gettimeofday () +. t.config.drain_deadline in
  while Admission.in_flight admission > 0 && Unix.gettimeofday () < give_up do
    Thread.delay 0.02
  done;
  (* 3. Past the deadline, sever what remains rather than hang. *)
  let stragglers = live_conns () in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  if stragglers <> [] then Thread.delay 0.1;
  (* 4. Reap build workers (checkpoints are kept: the next server
     generation resumes them) and the query pool (pure readers —
     SIGKILL, nothing to keep), then flush final stats. *)
  (match scrubber with Some thread -> Thread.join thread | None -> ());
  let workers_killed = Jobs.drain t.jobs in
  (* Ingestion engines: best-effort final flush (acknowledged records
     are already durable in their WALs — a failed or skipped flush
     merely leaves them for the next generation's replay), then close
     the fds. *)
  List.iter
    (fun eng ->
      (try ignore (Ingest.flush eng : (bool, Xmldoc.Fault.t) result)
       with _ -> ());
      try Ingest.close eng with _ -> ())
    (all_engines t);
  let pool_killed = Pool.shutdown t.pool in
  t.admission <- None;
  log_event t
    "event=drained served=%d errors=%d degraded=%d connections_severed=%d \
     workers_killed=%d pool_killed=%d"
    t.stats.served t.stats.errors t.stats.degraded (List.length stragglers)
    workers_killed pool_killed
