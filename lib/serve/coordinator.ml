(* Hedged scatter-gather over a replica group.

   The coordinator is a thin server: it speaks the same line protocol
   on its own socket, but owns no catalog — every QUERY/ANSWER is
   forwarded to a {!Replica} group.  Tail latency is cut by hedging
   (if the primary has not answered within [hedge_after], the same
   request is raced against the next-healthiest member; the first
   well-formed response wins and the losers are cancelled by closing
   their connections), and fault tolerance falls out of the same
   machinery (a dead primary is just a very slow one).  Three guard
   rails keep the fan-out from becoming the outage:

   - the {!Replica.Budget} token bucket caps hedges + retries as a
     fraction of primary traffic, so a sick GROUP degrades to ~1x
     amplification instead of a connect storm;
   - deadline propagation: the forwarded line carries the caller's
     [-deadline] minus the time already burned queueing and
     connecting, never more;
   - single-target verbs ({!Protocol.single_target_verbs}) are refused
     outright, except QUIT, which ends the caller's own connection — a
     group must never pick the target of a side effect implicitly. *)

type config = {
  hedge_after : float;
  request_timeout : float;
  connect_timeout : float;
  max_attempts : int;
  retry_ratio : float;
  retry_burst : float;
  probe_interval : float;
  probe_timeout : float;
  replica : Replica.config;
  max_inflight : int;
  drain_deadline : float;
}

let default_config =
  {
    hedge_after = 0.05;
    request_timeout = 5.0;
    connect_timeout = 1.0;
    max_attempts = 3;
    retry_ratio = 0.2;
    retry_burst = 10.0;
    probe_interval = 0.5;
    probe_timeout = 1.0;
    replica = Replica.default_config;
    max_inflight = 64;
    drain_deadline = 5.0;
  }

type stats = {
  mutable requests : int;
  mutable forwarded : int;
  mutable hedges : int;
  mutable hedges_won : int;
  mutable hedges_suppressed : int;
      (* hedge opportunities skipped because the whole group reported
         browned-out HEALTH — racing a saturated group is a retry storm *)
  mutable retries : int;
  mutable refused : int;
  mutable failures : int;
}

type t = {
  config : config;
  group : Replica.t;
  budget : Replica.Budget.t;
  log : string -> unit;
  stats : stats;
  stats_lock : Mutex.t;
  mutable draining : bool;
}

let create ?(log = prerr_endline) ?(config = default_config) paths =
  if config.max_attempts < 1 then
    invalid_arg "Coordinator.create: max_attempts must be >= 1";
  if config.hedge_after <= 0.0 then
    invalid_arg "Coordinator.create: hedge_after must be > 0";
  {
    config;
    group = Replica.create ~config:config.replica paths;
    budget =
      Replica.Budget.create ~ratio:config.retry_ratio ~burst:config.retry_burst;
    log;
    stats =
      {
        requests = 0;
        forwarded = 0;
        hedges = 0;
        hedges_won = 0;
        hedges_suppressed = 0;
        retries = 0;
        refused = 0;
        failures = 0;
      };
    stats_lock = Mutex.create ();
    draining = false;
  }

let stats t = t.stats

let group t = t.group

let budget t = t.budget

let draining t = t.draining

let bump f t = Mutex.protect t.stats_lock (fun () -> f t.stats)

let log_event t fmt = Printf.ksprintf t.log fmt

let request_drain t =
  if not t.draining then begin
    t.draining <- true;
    log_event t "event=drain-requested"
  end

let install_drain_signals t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  (try Sys.set_signal Sys.sigterm handle
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint handle
  with Invalid_argument _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The scatter                                                         *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* a response any server in this repository can legally utter *)
let well_formed_response line =
  line = "pong" || line = "bye"
  || starts_with "ok " line
  || starts_with "error " line

(* Server errors worth racing a DIFFERENT replica for: a crashed
   worker or a shedding server says nothing about the query, only
   about that member.  Definitive answers (ok, not-found, poisoned,
   bad-request, deadline...) win immediately — a second opinion would
   return the same verdict, or worse, a different one. *)
let retryable_response line =
  match String.split_on_char ' ' line with
  | "error" :: cls :: _ -> cls = "worker-crash" || cls = "overloaded"
  | _ -> false

type flight = {
  fd : Unix.file_descr;
  reader : Transport.reader;
  r : Replica.replica;
  hedge : bool;  (* charged against the retry budget *)
}

let scatter t ~hedged ~line =
  let t0 = Unix.gettimeofday () in
  Replica.Budget.note_request t.budget;
  bump (fun s -> s.forwarded <- s.forwarded + 1) t;
  let overall =
    t0
    +.
    match Protocol.request_deadline line with
    | Some d when d > 0.0 -> Float.min d t.config.request_timeout
    | _ -> t.config.request_timeout
  in
  let order = ref (Replica.rank t.group) in
  let attempts_left = ref (max 1 t.config.max_attempts) in
  let flights = ref [] in
  let fallback = ref None in
  let last_err = ref "no replica reachable" in
  (* One launch = one replica accepting the (deadline-rewritten) line;
     members that refuse the connect are burned through within the
     same launch.  [charge = true] (hedges, retries) costs one budget
     token for the whole launch. *)
  let launch ~charge =
    if !order = [] || !attempts_left <= 0 then false
    else if charge && not (Replica.Budget.try_take t.budget) then false
    else begin
      let rec go () =
        match !order with
        | [] -> false
        | r :: rest ->
          order := rest;
          decr attempts_left;
          let elapsed = Unix.gettimeofday () -. t0 in
          let line' = Protocol.with_remaining_deadline line ~elapsed in
          let failed msg =
            last_err := Replica.path r ^ ": " ^ msg;
            Replica.note_failure t.group r;
            if !attempts_left > 0 then go () else false
          in
          match Transport.connect ~timeout:t.config.connect_timeout (Replica.path r) with
          | Error msg -> failed msg
          | Ok fd -> (
            match
              Transport.send fd (line' ^ "\n")
                ~deadline:(Unix.gettimeofday () +. t.config.connect_timeout)
            with
            | Error e ->
              Transport.close_quietly fd;
              failed (Transport.error_message e)
            | Ok () ->
              flights :=
                { fd; reader = Transport.reader fd; r; hedge = charge } :: !flights;
              true)
      in
      go ()
    end
  in
  let close_flight f =
    Transport.close_quietly f.fd;
    flights := List.filter (fun g -> g.fd != f.fd) !flights
  in
  let close_all () = List.iter (fun f -> Transport.close_quietly f.fd) !flights in
  let give_up now =
    log_event t "event=scatter-give-up elapsed=%.3fs fallback=%s last=%s"
      (now -. t0)
      (if !fallback = None then "no" else "yes")
      !last_err;
    bump (fun s -> s.failures <- s.failures + 1) t;
    match !fallback with
    | Some resp -> resp
    | None ->
      if now >= overall then
        Protocol.error_line ~cls:"deadline"
          (Printf.sprintf "no replica answered within %.3gs" (overall -. t0))
      else Protocol.error_line ~cls:"io" ("all replicas failed: " ^ !last_err)
  in
  ignore (launch ~charge:false : bool);
  let hedge_at = ref (if hedged then t0 +. t.config.hedge_after else infinity) in
  let winner = ref None in
  let read_flight f =
    match Transport.read_step f.reader with
    | Error e ->
      last_err := Replica.path f.r ^ ": " ^ Transport.error_message e;
      Replica.note_failure t.group f.r;
      close_flight f
    | Ok None -> ()
    | Ok (Some line) ->
      if not (well_formed_response line) then begin
        last_err := Replica.path f.r ^ ": malformed response";
        Replica.note_failure t.group f.r;
        close_flight f
      end
      else if
        retryable_response line
        && (List.length !flights > 1 || (!order <> [] && !attempts_left > 0))
      then begin
        (* that member is sick; keep its verdict as a fallback and
           let someone else answer *)
        fallback := Some line;
        last_err := Replica.path f.r ^ ": " ^ line;
        Replica.note_failure t.group f.r;
        close_flight f
      end
      else begin
        Replica.note_success t.group f.r;
        if f.hedge then bump (fun s -> s.hedges_won <- s.hedges_won + 1) t;
        winner := Some line
      end
  in
  let rec loop () =
    match !winner with
    | Some line ->
      close_all ();
      line
    | None ->
      let now = Unix.gettimeofday () in
      if !flights = [] then begin
        if now < overall && !order <> [] && !attempts_left > 0 then begin
          if launch ~charge:true then begin
            bump (fun s -> s.retries <- s.retries + 1) t;
            loop ()
          end
          else give_up now (* budget dry or nobody reachable *)
        end
        else give_up now
      end
      else if now >= overall then begin
        (* members still holding a flight burned the caller's whole
           deadline without a word: that is outlier evidence, and it is
           the only strike a frozen (vs dead) replica ever earns from
           live traffic — connects to it keep landing in its backlog. *)
        List.iter (fun f -> Replica.note_failure t.group f.r) !flights;
        close_all ();
        give_up now
      end
      else begin
        (* hedge: one extra flight at a time, budget permitting *)
        let hedge_possible () =
          List.length !flights < 2 && !order <> [] && !attempts_left > 0
        in
        if now >= !hedge_at && hedge_possible () then begin
          if Replica.all_browned_out t.group then
            (* the whole group reports browned-out HEALTH: a hedge can
               only add load where every member already has too much —
               the primary's (coarser, faster) answer is the rescue *)
            bump (fun s -> s.hedges_suppressed <- s.hedges_suppressed + 1) t
          else if launch ~charge:true then
            bump (fun s -> s.hedges <- s.hedges + 1) t;
          (* admitted, denied or suppressed, re-arm: tokens may accrue
             from concurrent traffic, and a cooled group hedges again *)
          hedge_at := Unix.gettimeofday () +. t.config.hedge_after
        end;
        (* wake for the hedge only when one could launch: a one-member
           group or a spent order leaves [hedge_at] in the past, which
           would spin [select] with a zero timeout until the deadline *)
        let wake =
          if hedge_possible () then Float.min overall !hedge_at else overall
        in
        let timeout = Float.max 0.0 (Float.min (wake -. now) 0.25) in
        (match Unix.select (List.map (fun f -> f.fd) !flights) [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if !winner = None then
                match List.find_opt (fun f -> f.fd == fd) !flights with
                | Some f -> read_flight f
                | None -> ())
            readable);
        loop ()
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let yes_no b = if b then "yes" else "no"

let health_line t =
  let n = Replica.size t.group in
  let ready = Replica.ready_count t.group in
  let ejected = Replica.ejected_count t.group in
  let reason =
    if t.draining then Some "draining"
    else if ready = 0 then Some "no-ready-replica"
    else None
  in
  let s = t.stats in
  Printf.sprintf
    "ok health live=yes ready=%s draining=%s coordinator=yes replicas=%d/%d \
     ejected=%d browned_out=%s requests=%d forwarded=%d hedges=%d \
     hedges_won=%d hedges_suppressed=%d retries=%d budget_spent=%d \
     budget_denied=%d budget_tokens=%.2f stale=%d%s"
    (yes_no (reason = None))
    (yes_no t.draining) ready n ejected
    (yes_no (Replica.all_browned_out t.group))
    s.requests s.forwarded s.hedges s.hedges_won s.hedges_suppressed s.retries
    (Replica.Budget.spent t.budget)
    (Replica.Budget.denied t.budget)
    (Replica.Budget.tokens t.budget)
    (Replica.stale_count t.group)
    (match reason with None -> "" | Some r -> " reason=" ^ r)

let handle_request t ~line (req : Protocol.request) =
  match req with
  | Ping -> ("pong", false)
  | Quit -> ("bye", true)
  | Health -> (health_line t, false)
  (* every read is idempotent across an identical group, so every read
     gets the tail-latency hedge — an unhedged read against a frozen
     primary would burn the whole request timeout with no rescue *)
  | Query _ | Answer _ | List | Stat _ -> (scatter t ~hedged:true ~line, false)
  | Ingest _ | Delete _ | Update _ | Reload _ | Build _ | Jobs | Cancel _
  | Scrub | Fetch _ | Repair ->
    bump (fun s -> s.refused <- s.refused + 1) t;
    (* A refused mutation can at least point at a member that would
       ADMIT the write: write-aware ranking sorts shedding/readonly
       members last, so the suggestion is the group's most writable
       replica right now. *)
    let suggestion =
      match req with
      | Ingest _ | Delete _ | Update _ -> (
        match Replica.rank ~writes:true t.group with
        | r :: _ when Replica.write_penalty r = 0 ->
          Printf.sprintf " (try --target %s)" (Replica.path r)
        | _ -> "")
      | _ -> ""
    in
    ( Protocol.error_line ~cls:"bad-request"
        (Printf.sprintf
           "%s is single-target: a replica group cannot pick its target — \
            address one replica directly (treesketch client --target)%s"
           (Protocol.verb line) suggestion),
      false )

let handle_line t line =
  bump (fun s -> s.requests <- s.requests + 1) t;
  match Protocol.parse line with
  | Error reason -> (Protocol.error_line ~cls:"bad-request" reason, false)
  | Ok req -> (
    match handle_request t ~line req with
    | response -> response
    | exception e ->
      bump (fun s -> s.failures <- s.failures + 1) t;
      (Protocol.error_line ~cls:"internal" (Printexc.to_string e), false))

(* ------------------------------------------------------------------ *)
(* Background health probing                                           *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* The [load=<n>] token of a HEALTH line — a brownout server's
   degradation level.  Absent (pre-brownout servers, coordinators) or
   malformed reads as 0: cool. *)
let probed_load line =
  List.fold_left
    (fun acc word ->
      if String.length word > 5 && String.sub word 0 5 = "load=" then
        match int_of_string_opt (String.sub word 5 (String.length word - 5)) with
        | Some n when n >= 0 -> n
        | _ -> acc
      else acc)
    0
    (String.split_on_char ' ' line)

(* The [staleness=<s>] token of a HEALTH line — the member's ingestion
   staleness bound (age of its oldest acknowledged-but-unflushed WAL
   record).  Absent (no live ingestion, or a fully flushed member) or
   malformed reads as 0: fresh. *)
let probed_staleness line =
  List.fold_left
    (fun acc word ->
      if String.length word > 10 && String.sub word 0 10 = "staleness=" then
        match float_of_string_opt (String.sub word 10 (String.length word - 10)) with
        | Some s when s >= 0.0 && Float.is_finite s -> s
        | _ -> acc
      else acc)
    0.0
    (String.split_on_char ' ' line)

(* The [write_state=<s>] token of a HEALTH line — the member's
   write-pressure admission state.  Absent (pre-write-pressure servers,
   or no ingestion state and no watermark) or malformed reads as "ok":
   the member would admit a mutation. *)
let probed_write_state line =
  List.fold_left
    (fun acc word ->
      if String.length word > 12 && String.sub word 0 12 = "write_state=" then
        match String.sub word 12 (String.length word - 12) with
        | ("ok" | "paced" | "shedding" | "readonly") as s -> s
        | _ -> acc
      else acc)
    "ok"
    (String.split_on_char ' ' line)

(* The [catalog_hash=<hex>] token of a HEALTH line — the member's
   catalog content identity.  [None] on pre-anti-entropy servers, so
   divergence detection degrades to off against an old fleet. *)
let probed_hash line =
  List.fold_left
    (fun acc word ->
      if String.length word > 13 && String.sub word 0 13 = "catalog_hash=" then
        Some (String.sub word 13 (String.length word - 13))
      else acc)
    None
    (String.split_on_char ' ' line)

let probe_replica t r =
  match Transport.connect ~timeout:t.config.connect_timeout (Replica.path r) with
  | Error _ -> Replica.note_probe t.group r `Failed
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> Transport.close_quietly fd)
      (fun () ->
        let deadline = Unix.gettimeofday () +. t.config.probe_timeout in
        match
          Result.bind (Transport.send fd "HEALTH\n" ~deadline) (fun () ->
              Transport.read_line (Transport.reader fd) ~deadline)
        with
        | Ok line when contains line " ready=yes" ->
          Replica.note_probe ~load:(probed_load line)
            ~staleness:(probed_staleness line)
            ~write_state:(probed_write_state line)
            ?catalog_hash:(probed_hash line) t.group r `Ready
        | Ok line when starts_with "ok health" line ->
          Replica.note_probe ~load:(probed_load line)
            ~staleness:(probed_staleness line)
            ~write_state:(probed_write_state line)
            ?catalog_hash:(probed_hash line) t.group r `Not_ready
        | Ok _ | Error _ -> Replica.note_probe t.group r `Failed)

let probe_loop t =
  while not t.draining do
    List.iter
      (fun r -> if not t.draining then probe_replica t r)
      (Replica.members t.group);
    (* one sweep's worth of fresh hashes: recompute who diverged *)
    Replica.mark_divergent t.group;
    let until = Unix.gettimeofday () +. t.config.probe_interval in
    while (not t.draining) && Unix.gettimeofday () < until do
      Thread.delay 0.05
    done
  done

(* ------------------------------------------------------------------ *)
(* Front end                                                           *)
(* ------------------------------------------------------------------ *)

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

let serve_socket ?(backlog = 64) t ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock backlog;
  let admission = Server.Admission.create t.config.max_inflight in
  let conn_lock = Mutex.create () in
  let conns : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 16 in
  let register fd = Mutex.protect conn_lock (fun () -> Hashtbl.replace conns fd ()) in
  let unregister fd = Mutex.protect conn_lock (fun () -> Hashtbl.remove conns fd) in
  let live_conns () =
    Mutex.protect conn_lock (fun () ->
        Hashtbl.fold (fun fd () acc -> fd :: acc) conns [])
  in
  let prober = Thread.create probe_loop t in
  let connection fd =
    Fun.protect
      ~finally:(fun () ->
        Server.Admission.release admission;
        unregister fd;
        Transport.close_quietly fd)
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> ()
          | exception Sys_error _ -> ()
          | exception Unix.Unix_error _ -> ()
          | line ->
            let response, quit = handle_line t line in
            (match
               output_string oc response;
               output_char oc '\n';
               flush oc
             with
            | () -> if not quit && not t.draining then loop ()
            | exception Sys_error _ -> ()
            | exception Unix.Unix_error _ -> ())
        in
        loop ())
  in
  log_event t "event=listening socket=%s replicas=%d hedge_after=%.3fs" path
    (Replica.size t.group) t.config.hedge_after;
  let rec accept_loop () =
    if t.draining then ()
    else
      match
        Xmldoc.Io_fault.tap Xmldoc.Io_fault.Accept ~path;
        Unix.select [ sock ] [] [] 0.2
      with
      | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (e, _, _) ->
        log_event t "event=accept-error errno=%s" (Unix.error_message e);
        Thread.delay 0.05;
        accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
        (match Unix.accept sock with
        | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
        | exception Unix.Unix_error (e, _, _) ->
          log_event t "event=accept-error errno=%s" (Unix.error_message e);
          Thread.delay 0.05
        | fd, _ ->
          if Server.Admission.try_acquire admission then begin
            register fd;
            ignore (Thread.create connection fd : Thread.t)
          end
          else begin
            let oc = Unix.out_channel_of_descr fd in
            (try
               output_string oc
                 (Protocol.error_line ~cls:"overloaded"
                    (Printf.sprintf "%d connections already in flight"
                       t.config.max_inflight)
                 ^ "\n");
               flush oc
             with Sys_error _ -> ());
            Transport.close_quietly fd
          end);
        accept_loop ()
  in
  accept_loop ();
  (* graceful drain: stop accepting, let in-flight scatters finish,
     sever stragglers, stop the prober, flush final counters *)
  Transport.close_quietly sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  log_event t "event=draining inflight=%d deadline=%.1fs"
    (Server.Admission.in_flight admission)
    t.config.drain_deadline;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (live_conns ());
  let give_up = Unix.gettimeofday () +. t.config.drain_deadline in
  while
    Server.Admission.in_flight admission > 0 && Unix.gettimeofday () < give_up
  do
    Thread.delay 0.02
  done;
  let stragglers = live_conns () in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  if stragglers <> [] then Thread.delay 0.1;
  Thread.join prober;
  let s = t.stats in
  log_event t
    "event=drained requests=%d forwarded=%d hedges=%d hedges_won=%d retries=%d \
     refused=%d failures=%d budget_spent=%d budget_denied=%d members=%s"
    s.requests s.forwarded s.hedges s.hedges_won s.retries s.refused s.failures
    (Replica.Budget.spent t.budget)
    (Replica.Budget.denied t.budget)
    (String.concat "," (Replica.describe t.group))
