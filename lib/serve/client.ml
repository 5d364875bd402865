(* A resilient line-protocol client.

   Everything here exists to keep one promise: [request] always returns
   — a response line, or a typed client-side error — within a bounded
   time, no matter what the transport does.  Connects are non-blocking
   with a timeout; receives go through [select] against the request
   deadline; failures close the connection (a timed-out request leaves
   the stream desynchronized — the safe state is "no connection") and
   retry on the next socket under capped, jittered backoff. *)

type config = {
  connect_timeout : float;
  request_timeout : float;
  attempts : int;
  backoff_base : float;
  backoff_cap : float;
  jitter_seed : int;
  retry_unsafe : bool;
  breaker_threshold : int;
  breaker_cooldown : float;
}

let default_config =
  {
    connect_timeout = 1.0;
    request_timeout = 5.0;
    attempts = 4;
    backoff_base = 0.05;
    backoff_cap = 1.0;
    jitter_seed = 0;
    retry_unsafe = false;
    breaker_threshold = 5;
    breaker_cooldown = 2.0;
  }

type conn = {
  fd : Unix.file_descr;
  reader : Transport.reader;
      (* keeps bytes read past the last newline — the start of the next
         response if the server ever pipelines *)
}

(* Per-(endpoint, synopsis) circuit breaker.  A synopsis whose queries
   keep killing pool workers (or timing out client-side) is a hazard:
   every probe costs the server a worker fork and this client a full
   request timeout.  After [breaker_threshold] consecutive such
   failures the breaker opens and requests for that synopsis AT THAT
   ENDPOINT fail fast locally; after a jittered cooldown one half-open
   probe is let through — its success closes the breaker, its failure
   re-opens it for another cooldown.  Keying by endpoint too matters
   for failover clients: a synopsis crashing workers on one member
   says nothing about its replica on another, and a synopsis-only key
   would let one sick member fail-fast requests the healthy members
   could answer. *)
type breaker_state =
  | Closed
  | Open of { until : float }
  | Half_open

type breaker = {
  mutable state : breaker_state;
  mutable consecutive : int;  (* worker-crash / deadline failures in a row *)
}

type t = {
  config : config;
  endpoints : string array;
  mutable cursor : int;  (* endpoint the next connect tries first *)
  mutable conn : conn option;
  mutable last_endpoint : string option;
      (* endpoint of the most recent successful connect within the
         current request — who a breaker outcome is attributed to *)
  rng : Random.State.t;  (* jitter only — seeded, so tests replay *)
  breakers : (string * string, breaker) Hashtbl.t;
      (* (endpoint, synopsis name) -> breaker *)
}

type error =
  | Deadline of string
  | Io of string
  | Bad_response of string
  | Breaker_open of string

let error_to_string = function
  | Deadline msg -> "deadline: " ^ msg
  | Io msg -> "io: " ^ msg
  | Bad_response msg -> "bad response: " ^ msg
  | Breaker_open msg -> "breaker open: " ^ msg

let error_to_fault = function
  | Deadline msg -> Xmldoc.Fault.Deadline { stage = msg; elapsed = 0.0 }
  | Io msg -> Xmldoc.Fault.Io_error { path = "<client>"; message = msg }
  | Bad_response msg ->
    Xmldoc.Fault.Io_error { path = "<client>"; message = "bad response: " ^ msg }
  | Breaker_open msg ->
    Xmldoc.Fault.Io_error { path = "<client>"; message = "breaker open: " ^ msg }

let create ?(config = default_config) paths =
  if paths = [] then invalid_arg "Client.create: no server sockets";
  if config.attempts < 1 then invalid_arg "Client.create: attempts must be >= 1";
  (* a write to a server that died mid-conversation must come back as
     EPIPE — which the retry loop turns into a reconnect — not as
     SIGPIPE killing the whole client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  {
    config;
    endpoints = Array.of_list paths;
    cursor = 0;
    conn = None;
    last_endpoint = None;
    rng = Random.State.make [| config.jitter_seed |];
    breakers = Hashtbl.create 8;
  }

(* Verbs whose effects are the same once or twice: safe to resend even
   when the first copy may have been executed.  RELOAD rescans to the
   same fixpoint; QUERY/ANSWER are pure reads.  BUILD is absent — a
   resent BUILD can kill and restart a half-finished build — and QUIT
   is absent because resending it to a *different* server after
   failover would shut down a healthy one.  INGEST is absent too:
   durable is not idempotent — the first copy may have been logged and
   acknowledged into a dead socket, and a blind resend would append the
   record twice. *)
let idempotent_verbs =
  [ "PING"; "HEALTH"; "LIST"; "STAT"; "QUERY"; "ANSWER"; "JOBS"; "RELOAD" ]

let idempotent line = List.mem (Protocol.verb line) idempotent_verbs

let close t =
  match t.conn with
  | None -> ()
  | Some c ->
    Transport.close_quietly c.fd;
    t.conn <- None

(* ------------------------------------------------------------------ *)
(* Connect + failover cursor                                          *)
(* ------------------------------------------------------------------ *)

(* Try every endpoint once, starting at the cursor; stick (cursor stays)
   on success so a healthy server keeps its traffic. *)
let connect t =
  let n = Array.length t.endpoints in
  let rec go tried last_err =
    if tried >= n then Error (Io ("connect: " ^ last_err))
    else
      let i = (t.cursor + tried) mod n in
      match Transport.connect ~timeout:t.config.connect_timeout t.endpoints.(i) with
      | Ok fd ->
        t.cursor <- i;
        t.last_endpoint <- Some t.endpoints.(i);
        let c = { fd; reader = Transport.reader fd } in
        t.conn <- Some c;
        Ok c
      | Error msg ->
        go (tried + 1) (t.endpoints.(i) ^ ": " ^ msg)
  in
  match t.conn with
  | Some c ->
    t.last_endpoint <- Some t.endpoints.(t.cursor);
    Ok c
  | None -> go 0 "no endpoints"

(* ------------------------------------------------------------------ *)
(* The retry loop                                                      *)
(* ------------------------------------------------------------------ *)

let backoff t attempt =
  (* attempt 1 failed -> base, doubling, capped; jitter in [0.5, 1.0]
     so synchronized clients don't stampede a restarting server *)
  let raw =
    Float.min t.config.backoff_cap
      (t.config.backoff_base *. (2. ** float_of_int (attempt - 1)))
  in
  let jitter = 0.5 +. (Random.State.float t.rng 1.0 /. 2.0) in
  Unix.sleepf (raw *. jitter)

(* The server answering [error overloaded ...] is a transient shed, not
   an answer to the question asked: worth retrying elsewhere for
   idempotent requests. *)
let is_overloaded_response line = Protocol.error_class line = Some "overloaded"

(* The server answering [error ingest-deferred ...] shed a MUTATION —
   and, by the protocol's contract, retained nothing of it.  That is
   what makes the resend safe even though mutations are not idempotent:
   there is no first copy to duplicate.  The verbs this applies to. *)
let mutation_verbs = [ "INGEST"; "DELETE"; "UPDATE" ]

let is_deferred_response line =
  Protocol.error_class line = Some "ingest-deferred"

(* The [retry-after=<ms>] token of an [error ingest-deferred] line —
   how long the server asks this client to back off before resending.
   [None] when absent or malformed (older servers). *)
let retry_after_ms line =
  match Option.bind (Protocol.field "retry-after" line) int_of_string_opt with
  | Some ms when ms >= 0 -> Some ms
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-synopsis circuit breaker                                        *)
(* ------------------------------------------------------------------ *)

let breaker_enabled t = t.config.breaker_threshold > 0

(* What counts against the breaker: the server reporting a worker
   crash for this synopsis, or the request timing out client-side (a
   wedged worker looks exactly like this from here).  Server-side
   errors like [not-found] or [poisoned] are cheap, definitive answers
   — no point failing fast on those — and transport errors are the
   failover loop's business, not the breaker's. *)
let breaker_failure = function
  | Error (Deadline _) -> true
  | Error (Io _ | Bad_response _ | Breaker_open _) -> false
  | Ok line -> Protocol.error_class line = Some "worker-crash"

(* The endpoint the next connect will try first: the live connection's
   target when one exists, otherwise wherever the failover cursor
   points.  This is who a breaker gate must consult — the whole point
   of per-endpoint keys is that an open breaker on one member must not
   shed requests headed for another. *)
let next_endpoint t = t.endpoints.(t.cursor)

let breaker_state ?endpoint t name =
  let endpoint = match endpoint with Some e -> e | None -> next_endpoint t in
  Option.map
    (fun b ->
      match b.state with
      | Closed -> `Closed
      | Open _ -> `Open
      | Half_open -> `Half_open)
    (Hashtbl.find_opt t.breakers (endpoint, name))

(* Admit the request, or fail fast?  An elapsed cooldown admits exactly
   one half-open probe (the client is single-threaded per [t], so "the
   next request" is the probe). *)
let breaker_gate t ~endpoint name =
  match Hashtbl.find_opt t.breakers (endpoint, name) with
  | None -> Ok ()
  | Some b -> (
    match b.state with
    | Closed | Half_open -> Ok ()
    | Open { until } ->
      let now = Unix.gettimeofday () in
      if now >= until then begin
        b.state <- Half_open;
        Ok ()
      end
      else
        Error
          (Breaker_open
             (Printf.sprintf
                "synopsis %S at %s: failing fast for another %.2fs after %d \
                 consecutive worker-crash/deadline failures"
                name endpoint (until -. now) b.consecutive)))

let breaker_note t ~endpoint name result =
  let b =
    match Hashtbl.find_opt t.breakers (endpoint, name) with
    | Some b -> b
    | None ->
      let b = { state = Closed; consecutive = 0 } in
      Hashtbl.add t.breakers (endpoint, name) b;
      b
  in
  if breaker_failure result then begin
    b.consecutive <- b.consecutive + 1;
    let trip () =
      (* jittered cooldown in [1.0, 1.5) x the configured value, from
         the seeded rng: synchronized clients don't re-probe a
         recovering server in lockstep, and tests replay exactly *)
      let jitter = 1.0 +. (Random.State.float t.rng 1.0 /. 2.0) in
      b.state <-
        Open { until = Unix.gettimeofday () +. (t.config.breaker_cooldown *. jitter) }
    in
    match b.state with
    | Half_open -> trip () (* the probe failed: straight back to open *)
    | Closed when b.consecutive >= t.config.breaker_threshold -> trip ()
    | Closed | Open _ -> ()
  end
  else begin
    (* any definitive response — including server-side errors — proves
       the path works again *)
    b.consecutive <- 0;
    b.state <- Closed
  end

let request_unchecked t line =
  let retryable = t.config.retry_unsafe || idempotent line in
  (* re-established below by the first successful connect: a request
     that never reached any endpoint must not be attributed to one *)
  t.last_endpoint <- None;
  let t0 = Unix.gettimeofday () in
  (* Deadline propagation: time burned here — connect timeouts, backoff
     sleeps, earlier failed attempts — comes out of the caller's
     [-deadline] before the line is forwarded.  Sending it verbatim
     would let a retry grant the server more budget than the caller has
     left, so a request that already spent 4 of its 5 seconds failing
     over could still occupy a server for 5 more. *)
  let payload () =
    let elapsed = Unix.gettimeofday () -. t0 in
    Protocol.with_remaining_deadline line ~elapsed ^ "\n"
  in
  let rec attempt k ~may_retry_midflight =
    let fail err =
      (* the stream may hold a half response: reconnect from scratch *)
      close t;
      if k < t.config.attempts && may_retry_midflight then begin
        backoff t k;
        (* rotate so the retry prefers the next endpoint — the current
           one just failed us *)
        t.cursor <- (t.cursor + 1) mod Array.length t.endpoints;
        attempt (k + 1) ~may_retry_midflight
      end
      else
        let tag msg = Printf.sprintf "%s (attempt %d/%d)" msg k t.config.attempts in
        (* [Deadline] and [Io] stay apart: only the former maps to exit 4 *)
        Error
          (match err with
          | `Deadline step -> Deadline (tag step)
          | `Closed -> Io (tag "connection closed")
          | `Closed_mid_line -> Bad_response (tag "connection closed mid-line")
          | `Failed msg -> Io (tag msg))
    in
    match connect t with
    | Error (Io msg) when k < t.config.attempts ->
      (* nothing was ever sent: always safe to retry, even BUILD *)
      backoff t k;
      t.cursor <- (t.cursor + 1) mod Array.length t.endpoints;
      ignore msg;
      attempt (k + 1) ~may_retry_midflight
    | Error e -> Error e
    | Ok c -> (
      let deadline = Unix.gettimeofday () +. t.config.request_timeout in
      match
        match Transport.send c.fd (payload ()) ~deadline with
        | Ok () -> Transport.read_line c.reader ~deadline
        | Error err ->
          (* a server shedding at accept writes its reason and closes,
             usually before this write lands: the reason is the answer *)
          Result.value (Transport.read_step c.reader) ~default:None
          |> Option.to_result ~none:err
      with
      | Error err -> fail err
      | Ok response ->
        if is_overloaded_response response && retryable && k < t.config.attempts
        then begin
          (* don't camp on a shedding server *)
          close t;
          backoff t k;
          t.cursor <- (t.cursor + 1) mod Array.length t.endpoints;
          attempt (k + 1) ~may_retry_midflight
        end
        else if
          is_deferred_response response
          && List.mem (Protocol.verb line) mutation_verbs
          && k < t.config.attempts
        then begin
          (* write-pressure shed: the server retained nothing, so the
             resend cannot duplicate the mutation.  Honor retry-after
             with upward jitter (never resend early), keep the
             connection AND the cursor: a mutation targets one
             server's WAL — failing over would write elsewhere. *)
          (match retry_after_ms response with
          | Some ms when ms > 0 ->
            let jitter = 1.0 +. (Random.State.float t.rng 1.0 /. 2.0) in
            Unix.sleepf (float_of_int ms /. 1000. *. jitter)
          | Some _ | None -> backoff t k);
          attempt (k + 1) ~may_retry_midflight
        end
        else Ok response)
  in
  attempt 1 ~may_retry_midflight:retryable

let request t line =
  match if breaker_enabled t then Protocol.query_target line else None with
  | None when Protocol.verb line = "FETCH" ->
    (* the one multi-line response: its chunk lines would answer the
       requests that follow on this connection *)
    Ok
      (Protocol.error_line ~cls:"bad-request"
         "FETCH streams a multi-line response the line client does not \
          relay; peer repair pulls snapshots itself")
  | None -> request_unchecked t line
  | Some name -> (
    (* gate against the endpoint this request will actually dial first;
       failover mid-request may still land elsewhere, and the outcome
       is then attributed to the endpoint of the final attempt *)
    match breaker_gate t ~endpoint:(next_endpoint t) name with
    | Error e -> Error e
    | Ok () ->
      let result = request_unchecked t line in
      (match t.last_endpoint with
      | Some endpoint -> breaker_note t ~endpoint name result
      | None -> () (* no connect ever landed: no endpoint to blame *));
      result)
