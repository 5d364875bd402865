type config = {
  workers : int;
  limits : Xmldoc.Limits.t;
  deadline : float option;
  max_answer_nodes : int;
  max_work : int;
  max_heap_words : int;
  auto_reload : bool;
  watchdog_grace : float;
  watchdog_floor : float;
  poison_threshold : int;
  backoff_base : float;
  backoff_cap : float;
  chaos_marker : string option;
}

let default_config =
  {
    workers = 0;
    limits = Xmldoc.Limits.default;
    deadline = Some 5.0;
    max_answer_nodes = 100_000;
    max_work = 10_000_000;
    max_heap_words = max_int;
    auto_reload = true;
    watchdog_grace = 2.0;
    watchdog_floor = 30.0;
    poison_threshold = 3;
    backoff_base = 0.05;
    backoff_cap = 2.0;
    chaos_marker = None;
  }

type stats = {
  total : int;
  live : int;
  busy : int;
  forks : int;
  kills : int;
  poisoned : int;
  quarantined : int;
}

type worker = {
  id : int;
  mutable pid : int;  (* -1 = slot empty (dead / never forked) *)
  mutable to_child : Unix.file_descr;
  mutable from_child : Unix.file_descr;
  mutable busy : bool;
  mutable consecutive_crashes : int;  (* resets on a served request *)
  mutable not_before : float;  (* earliest respawn time (backoff gate) *)
}

type t = {
  config : config;
  dir : string;
  log : string -> unit;
  lock : Mutex.t;
  slots : worker array;
  poison : (string, int) Hashtbl.t;  (* (name NUL query_key) -> crash count *)
  mutable forks : int;
  mutable kills : int;
  mutable poisoned_count : int;
  mutable shutting_down : bool;
}

let log_event t fmt = Printf.ksprintf t.log fmt

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Worker child                                                        *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* Deterministic crash provocation for the chaos tests.  Each marker
   reproduces one worker failure mode — [:exit] is the
   segfault/OOM-kill class (sudden death with no response), [:hang] a
   wedged evaluator that never ticks its budget, [:stackoverflow] the
   runaway-recursion class, raised directly rather than recursed into
   being: OCaml 5 native stacks grow on demand for many seconds before
   the runtime gives up, which would hit the hard watchdog first.  The
   raise exercises the same containment path (caught below, poison
   accounting, no kill) a real overflow would. *)
let chaos_trip config line =
  match config.chaos_marker with
  | None -> ()
  | Some m ->
    if contains line (m ^ ":exit") then Unix._exit 70;
    if contains line (m ^ ":hang") then
      while true do
        Unix.sleepf 3600.0
      done;
    if contains line (m ^ ":stackoverflow") then raise Stack_overflow

let worker_caps config =
  {
    Query_exec.deadline = config.deadline;
    max_answer_nodes = config.max_answer_nodes;
    max_work = config.max_work;
    max_heap_words = config.max_heap_words;
  }

(* The child's request handler mirrors the server's totality contract:
   one structured line out for every line in, no exception escapes to
   the loop.  Stack_overflow / Out_of_memory anywhere in handling —
   including the chaos recursion — render as a contained worker-crash
   response rather than killing the child. *)
let worker_handle config caps catalog line =
  let eval kind (opts : Protocol.opts) name q =
    if config.auto_reload then ignore (Catalog.refresh catalog : Catalog.event list);
    match Catalog.find catalog name with
    | Some (entry : Catalog.entry) ->
      let budget = Query_exec.budget_for caps opts in
      (* The parent's degradation level arrives in-band as [-tier=]
         (see {!Protocol.with_tier}); level 0 here means only the
         request's own ask applies. *)
      let synopsis, tier = Query_exec.select_tier entry opts ~level:0 in
      (Query_exec.run_guarded ?tier ~budget kind synopsis q).response
    | None -> (
      match Catalog.fault_for catalog name with
      | Some fault -> Protocol.fault_line fault
      | None ->
        Protocol.error_line ~cls:"not-found"
          (Printf.sprintf "no synopsis %S in the catalog" name))
  in
  match
    chaos_trip config line;
    Protocol.parse line
  with
  | Error reason -> Protocol.error_line ~cls:"bad-request" reason
  | Ok (Query (opts, name, q)) -> eval Query_exec.Query opts name q
  | Ok (Answer (opts, name, q)) -> eval Query_exec.Answer opts name q
  | Ok _ ->
    Protocol.error_line ~cls:"bad-request" "pool workers serve only QUERY and ANSWER"
  | exception Stack_overflow ->
    Protocol.fault_line
      (Xmldoc.Fault.Worker_crash
         { reason = "stack overflow during evaluation (contained)" })
  | exception Out_of_memory ->
    Gc.compact ();
    Protocol.fault_line
      (Xmldoc.Fault.Worker_crash
         { reason = "out of memory during evaluation (contained)" })
  | exception e ->
    Protocol.error_line ~cls:"internal" (Printexc.to_string e)

let worker_main config dir req_r resp_w =
  (* Workers never run the parent's handlers. *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_default
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default
   with Invalid_argument _ | Sys_error _ -> ());
  (* A private, read-only view of the catalog: loading happens in the
     child so a snapshot that crashes the loader costs a worker, not
     the server. *)
  let catalog = Catalog.create ~limits:config.limits dir in
  ignore (Catalog.refresh catalog : Catalog.event list);
  let caps = worker_caps config in
  (* the parent never drains a worker: it closes the pipe or kills it *)
  Transport.serve_lines
    (Transport.drain_switch ~log:ignore)
    (fun line -> (worker_handle config caps catalog line, false))
    (Unix.in_channel_of_descr req_r)
    (Unix.out_channel_of_descr resp_w);
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Parent: spawn / kill / backoff                                      *)
(* ------------------------------------------------------------------ *)

let backoff_delay config attempt =
  Float.min config.backoff_cap
    (config.backoff_base *. (2.0 ** float_of_int (min attempt 16)))

(* Called under [t.lock].  Raises [Unix.Unix_error] when the fork (or
   the injected {!Xmldoc.Io_fault.Fork} fault) fails — callers turn
   that into a backoff, never a crash. *)
let spawn_u t w =
  Xmldoc.Io_fault.tap Xmldoc.Io_fault.Fork ~path:t.dir;
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | exception e ->
    List.iter Transport.close_quietly [ req_r; req_w; resp_r; resp_w ];
    raise e
  | 0 ->
    (* Child: drop the parent's ends, and the parent-side pipes of
       every sibling — otherwise a sibling holding a copy of our
       request pipe's write end would keep us from ever seeing EOF. *)
    Transport.close_quietly req_w;
    Transport.close_quietly resp_r;
    Array.iter
      (fun (sib : worker) ->
        if sib.pid >= 0 && sib.id <> w.id then begin
          Transport.close_quietly sib.to_child;
          Transport.close_quietly sib.from_child
        end)
      t.slots;
    (* [worker_main] only ever leaves via [Unix._exit]; 125 is the
       can't-even-start code, same convention as the build workers. *)
    (try worker_main t.config t.dir req_r resp_w
     with _ -> Unix._exit 125)
  | pid ->
    Transport.close_quietly req_r;
    Transport.close_quietly resp_w;
    Unix.set_close_on_exec req_w;
    Unix.set_close_on_exec resp_r;
    w.pid <- pid;
    w.to_child <- req_w;
    w.from_child <- resp_r;
    w.busy <- false;
    t.forks <- t.forks + 1;
    log_event t "event=pool-spawn worker=%d pid=%d" w.id pid

(* Called under [t.lock]: lazily refork empty slots whose backoff has
   elapsed.  A failing fork pushes the slot's [not_before] further out
   instead of raising. *)
let maybe_respawn_u t =
  if not t.shutting_down then
    Array.iter
      (fun w ->
        if w.pid < 0 && now () >= w.not_before then begin
          match spawn_u t w with
          | () -> ()
          | exception Unix.Unix_error (e, _, _) ->
            w.consecutive_crashes <- w.consecutive_crashes + 1;
            w.not_before <- now () +. backoff_delay t.config w.consecutive_crashes;
            log_event t "event=pool-fork-failed worker=%d errno=%s retry_in=%.2fs"
              w.id (Unix.error_message e)
              (backoff_delay t.config w.consecutive_crashes)
        end)
      t.slots

(* Called under [t.lock].  SIGKILL is safe: workers are pure readers
   over their own catalog view; there is nothing graceful to lose. *)
let kill_u t w ~reason =
  if w.pid >= 0 then begin
    let pid = w.pid in
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
     with Unix.Unix_error _ -> ());
    Transport.close_quietly w.to_child;
    Transport.close_quietly w.from_child;
    w.pid <- -1;
    w.busy <- false;
    w.consecutive_crashes <- w.consecutive_crashes + 1;
    w.not_before <- now () +. backoff_delay t.config w.consecutive_crashes;
    t.kills <- t.kills + 1;
    log_event t "event=pool-kill worker=%d pid=%d reason=%s" w.id pid reason
  end

(* ------------------------------------------------------------------ *)
(* Poison-pill quarantine                                              *)
(* ------------------------------------------------------------------ *)

let poison_key ~name ~query_key = name ^ "\x00" ^ query_key

(* Under [t.lock]. *)
let record_poison_u t ~name ~query_key =
  let key = poison_key ~name ~query_key in
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.poison key) in
  Hashtbl.replace t.poison key count;
  if count = t.config.poison_threshold then
    log_event t "event=pool-quarantine name=%s crashes=%d query=%S" name count
      query_key

let poisoned_response t ~name ~query_key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.poison (poison_key ~name ~query_key) with
      | Some n when n >= t.config.poison_threshold ->
        t.poisoned_count <- t.poisoned_count + 1;
        Some
          (Protocol.error_line ~cls:"poisoned"
             (Printf.sprintf
                "query quarantined on synopsis %S after killing %d workers" name
                n))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Parent: request I/O with a hard watchdog                            *)
(* ------------------------------------------------------------------ *)

let watchdog_for t (opts : Protocol.opts) =
  let relative =
    match (t.config.deadline, opts.deadline) with
    | None, None -> t.config.watchdog_floor
    | None, Some r -> r
    | Some c, None -> c
    | Some c, Some r -> Float.min c r
  in
  Float.max 0.0 relative +. t.config.watchdog_grace

(* Wait (bounded) for a free live worker; respawn empty slots along the
   way.  Polling keeps this simple and bounded — slots free up either
   by requests completing or by their watchdogs killing wedged
   workers, both within a watchdog period. *)
let acquire t ~give_up =
  let rec go () =
    Mutex.lock t.lock;
    if t.shutting_down then begin
      Mutex.unlock t.lock;
      None
    end
    else begin
      maybe_respawn_u t;
      let found = Array.find_opt (fun w -> w.pid >= 0 && not w.busy) t.slots in
      match found with
      | Some w ->
        w.busy <- true;
        Mutex.unlock t.lock;
        Some w
      | None ->
        Mutex.unlock t.lock;
        if now () >= give_up then None
        else begin
          Thread.delay 0.003;
          go ()
        end
    end
  in
  go ()

let exec t ~name ~query_key ~opts ~line =
  if Array.length t.slots = 0 then
    Protocol.error_line ~cls:"overloaded" "query pool is disabled"
  else
  match poisoned_response t ~name ~query_key with
  | Some response -> response
  | None ->
    let watchdog = watchdog_for t opts in
    let give_up = now () +. watchdog in
    (match acquire t ~give_up with
    | None ->
      Protocol.error_line ~cls:"overloaded"
        (if t.shutting_down then "query pool is shut down"
         else
           Printf.sprintf "all %d query workers busy for %.2fs"
             t.config.workers watchdog)
    | Some w ->
      let crash reason =
        Mutex.protect t.lock (fun () ->
            kill_u t w ~reason;
            record_poison_u t ~name ~query_key);
        Protocol.fault_line (Xmldoc.Fault.Worker_crash { reason })
      in
      (match Transport.send w.to_child (line ^ "\n") ~deadline:give_up with
      | Error (`Deadline _) ->
        crash (Printf.sprintf "worker %d wedged before reading the request" w.id)
      | Error (`Failed _) ->
        crash (Printf.sprintf "worker %d died before reading the request" w.id)
      | Ok () -> (
        match Transport.read_line (Transport.reader w.from_child) ~deadline:give_up with
        | Error (`Deadline _) ->
          crash
            (Printf.sprintf
               "hard watchdog (%.2fs) expired mid-evaluation; worker killed"
               watchdog)
        | Error (`Closed | `Closed_mid_line | `Failed _) ->
          crash "worker died mid-evaluation (crash, OOM kill, or signal)"
        | Ok response ->
          Mutex.protect t.lock (fun () ->
              w.busy <- false;
              w.consecutive_crashes <- 0;
              (* A contained crash (the worker caught Stack_overflow /
                 Out_of_memory itself) counts toward quarantine too:
                 the pair is just as poisonous, the worker merely got
                 lucky enough to say so. *)
              if Protocol.error_class response = Some "worker-crash" then
                record_poison_u t ~name ~query_key);
          response)))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(log = prerr_endline) config dir =
  let t =
    {
      config;
      dir;
      log;
      lock = Mutex.create ();
      slots =
        Array.init (max 0 config.workers) (fun id ->
            {
              id;
              pid = -1;
              to_child = Unix.stdin;
              from_child = Unix.stdin;
              busy = false;
              consecutive_crashes = 0;
              not_before = 0.0;
            });
      poison = Hashtbl.create 8;
      forks = 0;
      kills = 0;
      poisoned_count = 0;
      shutting_down = false;
    }
  in
  Mutex.protect t.lock (fun () -> maybe_respawn_u t);
  if config.workers > 0 then
    log_event t "event=pool-started workers=%d live=%d" config.workers
      (Array.fold_left (fun acc w -> if w.pid >= 0 then acc + 1 else acc) 0 t.slots);
  t

let enabled t = Array.length t.slots > 0

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        total = Array.length t.slots;
        live =
          Array.fold_left (fun acc w -> if w.pid >= 0 then acc + 1 else acc) 0 t.slots;
        busy = Array.fold_left (fun acc w -> if w.busy then acc + 1 else acc) 0 t.slots;
        forks = t.forks;
        kills = t.kills;
        poisoned = t.poisoned_count;
        quarantined =
          Hashtbl.fold
            (fun _ n acc -> if n >= t.config.poison_threshold then acc + 1 else acc)
            t.poison 0;
      })

let poisoned_pairs t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun key n acc ->
          if n >= t.config.poison_threshold then
            match String.index_opt key '\x00' with
            | Some i ->
              ( String.sub key 0 i,
                String.sub key (i + 1) (String.length key - i - 1),
                n )
              :: acc
            | None -> acc
          else acc)
        t.poison []
      |> List.sort compare)

let shutdown t =
  Mutex.protect t.lock (fun () ->
      t.shutting_down <- true;
      let killed = ref 0 in
      Array.iter
        (fun w ->
          if w.pid >= 0 then begin
            incr killed;
            if w.busy then begin
              (* The owning exec thread is mid-request on this worker's
                 pipes: SIGKILL the child but leave fd teardown and the
                 waitpid to that thread's crash path, so we never close
                 a descriptor out from under a concurrent select. *)
              try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()
            end
            else begin
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] w.pid : int * Unix.process_status)
               with Unix.Unix_error _ -> ());
              Transport.close_quietly w.to_child;
              Transport.close_quietly w.from_child;
              w.pid <- -1
            end
          end)
        t.slots;
      if Array.length t.slots > 0 then
        log_event t "event=pool-shutdown killed=%d" !killed;
      !killed)
