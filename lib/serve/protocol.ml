type opts = {
  deadline : float option;
  max_nodes : int option;
  tier : int option;
}

let no_opts = { deadline = None; max_nodes = None; tier = None }

type request =
  | Ping
  | Health
  | List
  | Reload of { force : bool }
  | Stat of string
  | Query of opts * string * Twig.Syntax.t
  | Answer of opts * string * Twig.Syntax.t
  | Build of { name : string; xml : string; budget : int }
  | Ingest of { name : string; xml : string }
  | Delete of { name : string; path : string }
  | Update of { name : string; path : string; xml : string }
  | Jobs
  | Cancel of string
  | Scrub
  | Fetch of string
  | Repair
  | Quit

(* One request per line: an upper-case verb, then [-key=value] options,
   then operands.  Parsing is total; every rejection names its cause. *)

let split_words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

let verbs =
  [ "PING"; "HEALTH"; "LIST"; "RELOAD"; "STAT"; "QUERY"; "ANSWER"; "BUILD";
    "INGEST"; "DELETE"; "UPDATE"; "JOBS"; "CANCEL"; "SCRUB"; "FETCH";
    "REPAIR"; "QUIT" ]

let verb line =
  match split_words line with
  | [] -> ""
  | v :: _ -> String.uppercase_ascii v

let parse_opt opts tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "malformed option %S (want -key=value)" tok)
  | Some eq ->
    let key = String.sub tok 1 (eq - 1) in
    let value = String.sub tok (eq + 1) (String.length tok - eq - 1) in
    (match key with
    | "deadline" -> (
      match float_of_string_opt value with
      | Some s when Float.is_finite s ->
        Ok { opts with deadline = Some s }
      | _ -> Error (Printf.sprintf "bad deadline %S (want seconds)" value))
    | "max-nodes" -> (
      match int_of_string_opt value with
      | Some n when n >= 1 -> Ok { opts with max_nodes = Some n }
      | _ -> Error (Printf.sprintf "bad max-nodes %S (want a positive integer)" value)
      )
    | "tier" -> (
      (* minimum degradation tier: 0 = finest; a server clamps it to
         the coarsest rung the target actually has *)
      match int_of_string_opt value with
      | Some n when n >= 0 -> Ok { opts with tier = Some n }
      | _ -> Error (Printf.sprintf "bad tier %S (want a non-negative integer)" value))
    | _ -> Error (Printf.sprintf "unknown option -%s" key))

let rec parse_opts opts = function
  | tok :: rest when String.length tok > 1 && tok.[0] = '-' -> (
    match parse_opt opts tok with
    | Ok opts -> parse_opts opts rest
    | Error msg -> Error msg)
  | rest -> Ok (opts, rest)

let parse_query_text text =
  match Twig.Parse.query text with
  | q -> Ok q
  | exception e -> (
    match Twig.Parse.error_to_string e with
    | Some msg -> Error (Printf.sprintf "bad query %S: %s" text msg)
    | None -> Error (Printf.sprintf "bad query %S" text))

let parse_targeted verb make words =
  match parse_opts no_opts words with
  | Error msg -> Error msg
  | Ok (_, []) -> Error (Printf.sprintf "%s needs a synopsis name and a query" verb)
  | Ok (_, [ _ ]) -> Error (Printf.sprintf "%s needs a query after the name" verb)
  | Ok (opts, name :: query_words) ->
    Result.map
      (fun q -> make opts name q)
      (parse_query_text (String.concat " " query_words))

(* Job names become catalog file names ([<name>.ts]): keep them to a
   filename-safe alphabet so a request can never escape the catalog
   directory or collide with the hidden checkpoint journals. *)
let valid_job_name name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       name

let parse_build words =
  match words with
  | [ name; xml; budget ] ->
    if not (valid_job_name name) then
      Error
        (Printf.sprintf "bad job name %S (want [A-Za-z0-9_-]+)" name)
    else (
      match Xmldoc.Limits.parse_bytes budget with
      | Ok b when b > 0 -> Ok (Build { name; xml; budget = b })
      | Ok _ -> Error (Printf.sprintf "bad budget %S (must be positive)" budget)
      | Error msg -> Error (Printf.sprintf "bad budget %S: %s" budget msg))
  | _ -> Error "BUILD takes a job name, an XML path and a byte budget"

let parse line =
  match split_words line with
  | [] -> Error "empty request"
  | verb :: rest -> (
    match (String.uppercase_ascii verb, rest) with
    | "PING", [] -> Ok Ping
    | "HEALTH", [] -> Ok Health
    | "LIST", [] -> Ok List
    | "QUIT", [] -> Ok Quit
    | "RELOAD", [] -> Ok (Reload { force = false })
    | "RELOAD", [ "-force" ] -> Ok (Reload { force = true })
    | "STAT", [ name ] -> Ok (Stat name)
    | "STAT", _ -> Error "STAT takes exactly one synopsis name"
    | "QUERY", words -> parse_targeted "QUERY" (fun o n q -> Query (o, n, q)) words
    | "ANSWER", words -> parse_targeted "ANSWER" (fun o n q -> Answer (o, n, q)) words
    | "BUILD", words -> parse_build words
    | "INGEST", name :: (_ :: _ as xml_words) ->
      (* same filename-safe alphabet as BUILD: the name becomes hidden
         WAL/level/manifest file names next to the catalog *)
      if not (valid_job_name name) then
        Error (Printf.sprintf "bad job name %S (want [A-Za-z0-9_-]+)" name)
      else Ok (Ingest { name; xml = String.concat " " xml_words })
    | "INGEST", _ -> Error "INGEST takes a synopsis name and an XML fragment"
    | "DELETE", [ name; path ] ->
      if not (valid_job_name name) then
        Error (Printf.sprintf "bad job name %S (want [A-Za-z0-9_-]+)" name)
      else if not (Ingest.valid_path path) then
        Error
          (Printf.sprintf
             "bad path predicate %S (want slash-joined [A-Za-z0-9_-] segments)"
             path)
      else Ok (Delete { name; path })
    | "DELETE", _ -> Error "DELETE takes a synopsis name and a path predicate"
    | "UPDATE", name :: path :: (_ :: _ as xml_words) ->
      if not (valid_job_name name) then
        Error (Printf.sprintf "bad job name %S (want [A-Za-z0-9_-]+)" name)
      else if not (Ingest.valid_path path) then
        Error
          (Printf.sprintf
             "bad path predicate %S (want slash-joined [A-Za-z0-9_-] segments)"
             path)
      else Ok (Update { name; path; xml = String.concat " " xml_words })
    | "UPDATE", _ ->
      Error "UPDATE takes a synopsis name, a path predicate and an XML fragment"
    | "JOBS", [] -> Ok Jobs
    | "CANCEL", [ name ] -> Ok (Cancel name)
    | "CANCEL", _ -> Error "CANCEL takes exactly one job name"
    | "SCRUB", [] -> Ok Scrub
    | "REPAIR", [] -> Ok Repair
    | "FETCH", [ name ] ->
      (* same filename-safe alphabet as BUILD: a fetch must never be
         able to name a path outside the catalog directory *)
      if valid_job_name name then Ok (Fetch name)
      else Error (Printf.sprintf "bad snapshot name %S (want [A-Za-z0-9_-]+)" name)
    | "FETCH", _ -> Error "FETCH takes exactly one synopsis name"
    | ("PING" | "HEALTH" | "LIST" | "QUIT" | "RELOAD" | "JOBS" | "SCRUB" | "REPAIR"), _
      ->
      Error (Printf.sprintf "%s takes no operands" (String.uppercase_ascii verb))
    | v, _ ->
      let last = List.length verbs - 1 in
      Error
        (Printf.sprintf "unknown verb %S (want %s or %s)" v
           (String.concat ", " (List.filteri (fun i _ -> i < last) verbs))
           (List.nth verbs last)))

(* Deadline propagation.  A relay (the retrying client, the replica
   coordinator) that burned wall-clock connecting, backing off or
   queueing must forward the caller's [-deadline] MINUS that elapsed
   time — forwarding it verbatim would grant a downstream server more
   budget than the caller has left.  Rewriting only touches tokens in
   the option zone (between the verb and the first operand), so a
   query that happens to contain the substring is never mangled. *)

let deadline_prefix = "-deadline="

let is_deadline_opt tok =
  String.length tok > String.length deadline_prefix
  && String.sub tok 0 (String.length deadline_prefix) = deadline_prefix

let request_deadline line =
  match split_words line with
  | [] -> None
  | _verb :: rest ->
    let rec scan = function
      | tok :: rest when String.length tok > 1 && tok.[0] = '-' ->
        if is_deadline_opt tok then (
          let v =
            String.sub tok (String.length deadline_prefix)
              (String.length tok - String.length deadline_prefix)
          in
          match float_of_string_opt v with
          | Some d when Float.is_finite d -> Some d
          | _ -> None)
        else scan rest
      | _ -> None
    in
    scan rest

let with_remaining_deadline line ~elapsed =
  if elapsed <= 0.0 then line
  else
    match split_words line with
    | [] -> line
    | verb :: rest ->
      let changed = ref false in
      (* rewrite only inside the leading option zone *)
      let rec go in_opts = function
        | [] -> []
        | tok :: rest when in_opts && String.length tok > 1 && tok.[0] = '-' ->
          let tok' =
            if is_deadline_opt tok then
              let v =
                String.sub tok (String.length deadline_prefix)
                  (String.length tok - String.length deadline_prefix)
              in
              match float_of_string_opt v with
              | Some d when Float.is_finite d ->
                changed := true;
                (* clamp at zero: a relay that already burned the whole
                   budget forwards "no time left", never a negative
                   deadline (whose meaning is the receiver's to define)
                   — and the flag itself is always preserved *)
                Printf.sprintf "%s%g" deadline_prefix
                  (Float.max 0. (d -. elapsed))
              | _ -> tok
            else tok
          in
          tok' :: go true rest
        | tok :: rest -> tok :: go false rest
      in
      let rewritten = go true rest in
      if !changed then String.concat " " (verb :: rewritten) else line

(* Degradation-level propagation.  A browned-out server answers from a
   coarser ladder tier; pool workers re-parse the raw forwarded line
   against their own catalog copy, so the parent's current level must
   travel in-band: [-tier=<n>] is raised to (never lowered below) the
   server level, inserted into the option zone when absent.  Same
   option-zone-only discipline as the deadline rewrite. *)

let tier_prefix = "-tier="

let is_tier_opt tok =
  String.length tok > String.length tier_prefix
  && String.sub tok 0 (String.length tier_prefix) = tier_prefix

let with_tier line ~level =
  if level <= 0 then line
  else
    match split_words line with
    | [] -> line
    | verb :: rest when
        (match String.uppercase_ascii verb with
        | "QUERY" | "ANSWER" -> true
        | _ -> false) ->
      let seen = ref false in
      let rec go in_opts = function
        | [] -> []
        | tok :: rest when in_opts && String.length tok > 1 && tok.[0] = '-' ->
          let tok' =
            if is_tier_opt tok then (
              seen := true;
              let v =
                String.sub tok (String.length tier_prefix)
                  (String.length tok - String.length tier_prefix)
              in
              match int_of_string_opt v with
              | Some t when t >= level -> tok
              | Some _ -> Printf.sprintf "%s%d" tier_prefix level
              | None -> tok)
            else tok
          in
          tok' :: go true rest
        | tok :: rest -> tok :: go false rest
      in
      let rewritten = go true rest in
      let rewritten =
        if !seen then rewritten
        else Printf.sprintf "%s%d" tier_prefix level :: rewritten
      in
      String.concat " " (verb :: rewritten)
    | _ -> line

(* Verbs whose effect is bound to ONE server: a build runs on the
   machine that accepted it, RELOAD rescans one catalog directory,
   CANCEL kills one server's job, JOBS lists them, QUIT hangs up one
   connection.  The anti-entropy verbs are equally single-target:
   SCRUB fscks one catalog directory, REPAIR pulls into one member,
   and FETCH streams one member's snapshot file (and is multi-line —
   the scatter-gather machinery assumes one response line).  A replica
   group must not spray these across members — the coordinator refuses
   them, and a replica-mode client requires an explicit target. *)
let single_target_verbs =
  [ "BUILD"; "INGEST"; "DELETE"; "UPDATE"; "RELOAD"; "CANCEL"; "JOBS"; "QUIT";
    "SCRUB"; "FETCH"; "REPAIR" ]

let single_target line = List.mem (verb line) single_target_verbs

let query_target line =
  match split_words line with
  | verb :: rest
    when (match String.uppercase_ascii verb with
         | "QUERY" | "ANSWER" -> true
         | _ -> false) -> (
    match parse_opts no_opts rest with
    | Ok (_, name :: _) -> Some name
    | _ -> None)
  | _ -> None

(* Responses are single lines too; anything woven into one (fault
   messages above all) is flattened first. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let error_line ~cls message =
  Printf.sprintf "error %s %s" cls (one_line message)

let fault_line fault =
  error_line ~cls:(Xmldoc.Fault.class_name fault) (Xmldoc.Fault.to_string fault)

let yes_no b = if b then "yes" else "no"

let degraded_token = function
  | None -> "no"
  | Some stop -> Xmldoc.Budget.stop_to_string stop

(* Reading responses: both readers stop at their match and copy only
   the value, so the fields ahead of an ANSWER's tree never cost it. *)

let rec word_end line i =
  if i >= String.length line || line.[i] = ' ' then i else word_end line (i + 1)

let field key line =
  let k = String.length key in
  let rec matches i j = j = k || (line.[i + j] = key.[j] && matches i (j + 1)) in
  let rec find i =
    if i + k >= String.length line then None
    else if line.[i + k] = '=' && matches i 0 then
      let v = i + k + 1 in
      Some (String.sub line v (word_end line v - v))
    else find (word_end line i + 1)
  in
  find 0

let error_class line =
  if String.starts_with ~prefix:"error " line then
    Some (String.sub line 6 (word_end line 6 - 6))
  else None
