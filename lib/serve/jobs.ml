(* Supervised background TSBUILD jobs.

   One forked worker per job: the child parses the document, runs the
   checkpointed build (journaling into a hidden [.ckpt] file next to
   the catalog), writes the final snapshot atomically into the catalog
   directory — hot-reload publishes it — and exits with a structured
   code.  The parent never blocks on a build: it reaps exits with
   [WNOHANG] during {!poll}, restarts crashed workers from their last
   checkpoint under capped exponential backoff, and renders every
   worker fate as a job state the protocol can report. *)

type config = {
  limits : Xmldoc.Limits.t;
  max_jobs : int;
  max_restarts : int;
  backoff_base : float;
  backoff_cap : float;
  checkpoint_every : int;
  max_heap_words : int;
}

let default_config =
  {
    limits = Xmldoc.Limits.default;
    max_jobs = 4;
    max_restarts = 3;
    backoff_base = 0.25;
    backoff_cap = 5.0;
    checkpoint_every = 64;
    max_heap_words = max_int;
  }

type state =
  | Running of { pid : int; attempt : int }
  | Backoff of { attempt : int; not_before : float; reason : string }
  | Done of { degraded : bool }
  | Failed of { reason : string }
  | Cancelled

(* What the forked worker does: build a synopsis, scrub the catalog
   directory (re-verify every snapshot, publish a report file), or
   compact a synopsis's delta levels into one ({!Ingest.compact}). *)
type kind =
  | Build
  | Scrub
  | Compact

type job = {
  kind : kind;
  name : string;
  xml : string;
  budget : int;
  mutable state : state;
}

type t = {
  config : config;
  dir : string;
  jobs : (string, job) Hashtbl.t;
  log : string -> unit;
  (* All public operations serialize on this lock: the pool-era server
     polls the supervisor from every connection thread concurrently
     (HEALTH and PING included), no longer under one process-wide
     request lock.  Children never touch it — they are forked from
     inside the critical section and run [worker_main] only. *)
  lock : Mutex.t;
}

let create ?(config = default_config) ?(log = prerr_endline) dir =
  { config; dir; jobs = Hashtbl.create 8; log; lock = Mutex.create () }

let log_event t fmt = Printf.ksprintf t.log fmt

let snapshot_path t name = Filename.concat t.dir (name ^ Catalog.snapshot_extension)

(* Hidden and not [.ts]-suffixed: invisible to the catalog scan. *)
let checkpoint_path t name = Filename.concat t.dir ("." ^ name ^ ".ckpt")

let state_token = function
  | Running _ -> "running"
  | Backoff _ -> "backoff"
  | Done { degraded = false } -> "done"
  | Done { degraded = true } -> "done-degraded"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let list_u t =
  List.sort
    (fun a b -> String.compare a.name b.name)
    (Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs [])

let running_count_u t =
  Hashtbl.fold
    (fun _ j acc -> match j.state with Running _ -> acc + 1 | _ -> acc)
    t.jobs 0

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.jobs name)

let list t = Mutex.protect t.lock (fun () -> list_u t)

let running_count t = Mutex.protect t.lock (fun () -> running_count_u t)

(* Wall clock, not [Limits.now]: backoff schedules real elapsed time,
   and the children burning CPU are other processes anyway. *)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* The worker (runs in the forked child)                               *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 built, [degraded_exit] built but degraded (budget not
   reached before a limit tripped), 1-5 the [Fault.exit_code] taxonomy.
   Anything else — and any signal — is a crash the supervisor may
   retry. *)
let degraded_exit = Xmldoc.Fault.degraded_exit_code

(* The scrub worker: re-walk the catalog directory, re-verify every
   snapshot end to end, publish the findings atomically as the hidden
   report file.  The parent (which owns the resident catalog) replays
   the report as quarantine decisions on its next poll.  Exit 0 even
   when corruption was found — corruption is the report's payload, not
   a worker failure; only an unscannable directory or an unwritable
   report is a fault. *)
let scrub_worker_main t =
  match Scrub.scan ~limits:t.config.limits t.dir with
  | Error f -> Xmldoc.Fault.exit_code f
  | Ok reports -> (
    match Scrub.write_report t.dir reports with
    | Error f -> Xmldoc.Fault.exit_code f
    | Ok () -> 0)

(* The compaction worker: merge the synopsis's delta levels into one
   compressed level and swap the manifest atomically ({!Ingest.compact}).
   [job.xml] carries the synopsis name, [job.budget] the per-level byte
   budget.  A crashed worker restarts from the compression checkpoint;
   a concurrent flush having consumed the levels makes the whole run a
   clean no-op (exit 0), never a fault. *)
let compact_worker_main t job =
  match
    Ingest.compact ~limits:t.config.limits ~dir:t.dir ~name:job.xml
      ~level_budget:job.budget
      ~checkpoint:(checkpoint_path t job.name)
      ()
  with
  | Error f -> Xmldoc.Fault.exit_code f
  | Ok degraded -> if degraded then degraded_exit else 0

(* Returns the exit code; the caller [_exit]s with it (never [exit]:
   at_exit handlers inherited from the parent must not run). *)
let build_worker_main t job =
  let result =
    match Xmldoc.Parser.of_file_res ~limits:t.config.limits job.xml with
    | Error f -> Error f
    | Ok doc ->
      let stable = Sketch.Stable.build doc in
      let fingerprint = Sketch.Build.Checkpoint.fingerprint stable in
      let ckpt = checkpoint_path t job.name in
      let build_fresh () =
        Sketch.Build.build_checkpointed_res ~limits:t.config.limits
          ~max_heap_words:t.config.max_heap_words
          ~checkpoint_every:t.config.checkpoint_every ~checkpoint:ckpt stable
          ~budget:job.budget
      in
      (* A restarted worker resumes from its predecessor's journal —
         but only a journal provably from the same build (source
         fingerprint and budget both match).  A corrupt, torn or alien
         checkpoint falls back to a fresh build rather than failing:
         the checkpoint is an accelerator, never a dependency. *)
      (match Sketch.Build.Checkpoint.load_res ckpt with
      | Ok { meta; _ }
        when meta.source = fingerprint && meta.budget = job.budget ->
        (match
           Sketch.Build.resume_res ~limits:t.config.limits
             ~max_heap_words:t.config.max_heap_words
             ~checkpoint_every:t.config.checkpoint_every ckpt
         with
        | Ok outcome -> Ok outcome
        | Error _ -> build_fresh ())
      | Ok _ | Error _ -> build_fresh ())
  in
  match result with
  | Error f -> Xmldoc.Fault.exit_code f
  | Ok { Sketch.Build.synopsis; degraded } -> (
    match Sketch.Serialize.save_atomic (snapshot_path t job.name) synopsis with
    | Error f -> Xmldoc.Fault.exit_code f
    | Ok () ->
      (try Sys.remove (checkpoint_path t job.name) with Sys_error _ -> ());
      if degraded then degraded_exit else 0)

let worker_main t job =
  match job.kind with
  | Build -> build_worker_main t job
  | Scrub -> scrub_worker_main t
  | Compact -> compact_worker_main t job

(* Forking can itself fail — a full process table (EAGAIN) or no memory
   for the child (ENOMEM) is exactly the overload a supervisor exists
   to survive.  The failure is returned to the caller (which sheds or
   backs off) instead of escaping as an exception that would tear down
   the request loop.  The {!Xmldoc.Io_fault.Fork} tap lets tests inject
   the failure deterministically. *)
let spawn t job ~attempt =
  match
    Xmldoc.Io_fault.tap Xmldoc.Io_fault.Fork ~path:job.name;
    Unix.fork ()
  with
  | exception Unix.Unix_error (e, _, _) ->
    log_event t "event=job-fork-failed name=%s errno=%s" job.name
      (Unix.error_message e);
    Error e
  | 0 ->
    (* In the child only this thread survives; never touch the parent's
       locks or buffered channels, drop its sockets, and leave through
       [Unix._exit] so no inherited at_exit work (channel flushing above
       all) runs twice. *)
    Transport.close_inherited ();
    let code = match worker_main t job with code -> code | exception _ -> 125 in
    Unix._exit code
  | pid ->
    job.state <- Running { pid; attempt };
    log_event t "event=job-start name=%s pid=%d attempt=%d budget=%d xml=%s"
      job.name pid attempt job.budget job.xml;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

let remove_checkpoint t name =
  let path = checkpoint_path t name in
  try
    Xmldoc.Io_fault.tap_retrying Xmldoc.Io_fault.Open ~path;
    Sys.remove path
  with Sys_error _ | Unix.Unix_error _ -> ()

let backoff_delay config attempt =
  Float.min config.backoff_cap (config.backoff_base *. (2. ** float_of_int attempt))

let crash t job ~attempt ~reason =
  if attempt >= t.config.max_restarts then begin
    job.state <-
      Failed
        {
          reason =
            Printf.sprintf "%s (gave up after %d restarts)" reason
              t.config.max_restarts;
        };
    remove_checkpoint t job.name;
    log_event t "event=job-failed name=%s reason=%S" job.name reason
  end
  else begin
    let delay = backoff_delay t.config attempt in
    job.state <-
      Backoff { attempt = attempt + 1; not_before = now () +. delay; reason };
    log_event t "event=job-crash name=%s reason=%S retry_in=%.2fs" job.name
      reason delay
  end

let reap t job =
  match job.state with
  | Running { pid; attempt } -> (
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, Unix.WEXITED 0 ->
      job.state <- Done { degraded = false };
      log_event t "event=job-done name=%s" job.name
    | _, Unix.WEXITED code when code = degraded_exit ->
      job.state <- Done { degraded = true };
      log_event t "event=job-done name=%s degraded=yes" job.name
    | _, Unix.WEXITED code when code >= 1 && code <= 5 ->
      (* A structured fault is deterministic (bad XML, corrupt input,
         budget overflow): restarting cannot help. *)
      job.state <-
        Failed { reason = Printf.sprintf "worker failed with fault code %d" code };
      remove_checkpoint t job.name;
      log_event t "event=job-failed name=%s code=%d" job.name code
    | _, Unix.WEXITED code ->
      crash t job ~attempt ~reason:(Printf.sprintf "worker exit code %d" code)
    | _, Unix.WSIGNALED signal ->
      crash t job ~attempt ~reason:(Printf.sprintf "worker killed by signal %d" signal)
    | _, Unix.WSTOPPED signal ->
      (* a stopped child is going nowhere; treat as a crash so the
         build makes progress from its checkpoint in a new worker *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      crash t job ~attempt ~reason:(Printf.sprintf "worker stopped by signal %d" signal)
    | exception Unix.Unix_error (ECHILD, _, _) ->
      (* someone else reaped it (should not happen): call it a crash *)
      crash t job ~attempt ~reason:"worker vanished"
    | exception Unix.Unix_error (e, _, _) ->
      crash t job ~attempt ~reason:(Unix.error_message e))
  | Backoff { attempt; not_before; _ } ->
    if now () >= not_before && running_count_u t < t.config.max_jobs then (
      match spawn t job ~attempt with
      | Ok () -> ()
      | Error e ->
        (* fork failed under pressure: consume a restart attempt so a
           persistently un-forkable job eventually settles as [Failed]
           instead of backing off forever *)
        crash t job ~attempt ~reason:("fork: " ^ Unix.error_message e))
  | Done _ | Failed _ | Cancelled -> ()

let poll_u t = List.iter (fun job -> reap t job) (list_u t)

let poll t = Mutex.protect t.lock (fun () -> poll_u t)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type submit_error =
  | Busy
  | Overloaded

let submit t ~name ~xml ~budget =
  Mutex.protect t.lock @@ fun () ->
  poll_u t;
  let stale_ok =
    match Hashtbl.find_opt t.jobs name with
    | Some { state = Running _ | Backoff _; _ } -> false
    | Some _ | None -> true
  in
  if not stale_ok then Error Busy
  else if running_count_u t >= t.config.max_jobs then Error Overloaded
  else begin
    let job = { kind = Build; name; xml; budget; state = Cancelled (* placeholder *) } in
    Hashtbl.replace t.jobs name job;
    (* a fresh submission must not resume a previous generation's
       journal for a possibly different document *)
    remove_checkpoint t name;
    match spawn t job ~attempt:0 with
    | Ok () -> Ok job
    | Error _ ->
      (* could not fork: shed the submission as overload — the client
         retries later — and forget the job so a resubmit is fresh *)
      Hashtbl.remove t.jobs name;
      Error Overloaded
  end

(* The reserved scrub-job name.  Dot-prefixed, which
   [Protocol.valid_job_name] rejects, so no client SUBMIT/CANCEL can
   collide with (or kill) the maintenance job. *)
let scrub_name = ".scrub"

let submit_scrub t =
  Mutex.protect t.lock @@ fun () ->
  poll_u t;
  let stale_ok =
    match Hashtbl.find_opt t.jobs scrub_name with
    | Some { state = Running _ | Backoff _; _ } -> false
    | Some _ | None -> true
  in
  if not stale_ok then Error Busy
  else begin
    (* No [max_jobs] gate: the scrubber is supervisor-internal
       maintenance, not client load — a store saturated with builds
       must still detect rot. *)
    let job =
      { kind = Scrub; name = scrub_name; xml = ""; budget = 0; state = Cancelled }
    in
    Hashtbl.replace t.jobs scrub_name job;
    match spawn t job ~attempt:0 with
    | Ok () -> Ok job
    | Error _ ->
      Hashtbl.remove t.jobs scrub_name;
      Error Overloaded
  end

(* Reserved compaction-job names, one per synopsis.  Dot-prefixed like
   {!scrub_name} for the same reasons: clients cannot submit, cancel,
   or even see them. *)
let compact_name name = ".compact-" ^ name

let submit_compact t ~name ~level_budget =
  Mutex.protect t.lock @@ fun () ->
  poll_u t;
  let jname = compact_name name in
  let stale_ok =
    match Hashtbl.find_opt t.jobs jname with
    | Some { state = Running _ | Backoff _; _ } -> false
    | Some _ | None -> true
  in
  if not stale_ok then Error Busy
  else begin
    (* No [max_jobs] gate (like scrub): compaction is maintenance the
       store needs to bound its level stack, not client load.  And
       unlike {!submit}, a stale checkpoint is deliberately KEPT — the
       compression step resumes a journal from a previous server
       generation when its fingerprint still matches the level set. *)
    let job =
      { kind = Compact; name = jname; xml = name; budget = level_budget;
        state = Cancelled }
    in
    Hashtbl.replace t.jobs jname job;
    match spawn t job ~attempt:0 with
    | Ok () -> Ok job
    | Error _ ->
      Hashtbl.remove t.jobs jname;
      Error Overloaded
  end

(* Server drain: running workers are SIGKILLed and reaped so the dying
   process leaves no orphans — but unlike {!cancel}, their checkpoint
   journals are KEPT.  A drain is a restart in progress: a resubmitted
   build on the next server generation resumes from the journal
   instead of starting over. *)
let drain t =
  Mutex.protect t.lock @@ fun () ->
  let killed = ref 0 in
  List.iter
    (fun job ->
      match job.state with
      | Running { pid; _ } ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        incr killed;
        job.state <- Cancelled;
        log_event t "event=job-drain name=%s pid=%d" job.name pid
      | Backoff _ -> job.state <- Cancelled
      | Done _ | Failed _ | Cancelled -> ())
    (list_u t);
  !killed

let cancel t name =
  Mutex.protect t.lock @@ fun () ->
  poll_u t;
  match Hashtbl.find_opt t.jobs name with
  | None -> None
  | Some job ->
    (match job.state with
    | Running { pid; _ } ->
      (* SIGKILL, not SIGTERM: workers are pure computation with only
         atomic writes, so there is nothing graceful to wait for, and
         the reap below must not block on a shutdown handler. *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      job.state <- Cancelled;
      remove_checkpoint t name;
      log_event t "event=job-cancel name=%s pid=%d" name pid
    | Backoff _ ->
      job.state <- Cancelled;
      remove_checkpoint t name;
      log_event t "event=job-cancel name=%s" name
    | Done _ | Failed _ | Cancelled -> ());
    Some job
