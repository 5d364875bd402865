(* The repository benchmark: workloads against the real
   [treesketch serve] binary over its Unix socket, through one
   [Serve.Client] connection in a closed loop.

     perfbench --exe PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1

   - read-xmark: XMark-TX built to 32 KB; every query of the §6.1
     workload once as QUERY and once as ANSWER, in a seeded order.
   - live-imdb: IMDB-TX built to 32 KB as the base, then a seeded
     sequence of about 3 reads to 1 write (INGEST, 1 in 10 a DELETE or
     UPDATE) while the level stack grows.

   Every workload builds its synopsis through the BUILD verb (build_s)
   and acknowledges a write stream (the write metrics): read-xmark
   sends its stream to a separate ingest-only name in a phase of its
   own after the reads, so its reads never meet a write or a level.
   The server runs with one pool worker, no deadline and no compaction,
   so no timer or background job changes what a timed request sees.

   A run checks what the server said: every response must be a
   well-formed [ok] line for its verb; read responses must equal an
   in-process {!Serve.Query_exec.run} over the same snapshot
   (read-xmark) or over the level stack loaded from the served
   directory (live-imdb, closing pass); STAT must show the levels and
   records the benchmark itself counted.  Any failure exits non-zero.

   --seconds sets the length of live-imdb's sequence; read-xmark always
   sends each query the same number of times.  With --trace 0 the
   workload is replayed from scratch a few times and the last stdout
   line carries the end-to-end metrics; with --trace 1 the same request
   sequence is replayed once through each layer's public entry point,
   innermost first, and the last line carries the per-layer metrics.
   All files live under --work. *)

module F = Fixture
module Q = Serve.Query_exec
module Client = Serve.Client

let now = Unix.gettimeofday

type workload =
  | Read_xmark
  | Live_imdb

let workload_of_string = function
  | "read-xmark" -> Some Read_xmark
  | "live-imdb" -> Some Live_imdb
  | _ -> None

let data_of = function
  | Read_xmark -> F.xmark
  | Live_imdb -> F.imdb

(* The side name read-xmark sends its write stream to. *)
let journal = "journal"
let flush_every = Serve.Server.default_config.flush_records

type args = {
  exe : string;
  work : string;
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
  inject : string option;  (** self-test fault: wrong-est | drop *)
}

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type phase = {
  pname : string;
  mutable attempted : int;
  mutable failed : int;
}

let phases : phase list ref = ref []

let phase name =
  match List.find_opt (fun p -> p.pname = name) !phases with
  | Some p -> p
  | None ->
    let p = { pname = name; attempted = 0; failed = 0 } in
    phases := !phases @ [ p ];
    p

let failures = ref 0

let fail (p : phase) fmt =
  Printf.ksprintf
    (fun msg ->
      p.failed <- p.failed + 1;
      incr failures;
      if !failures <= 20 then Printf.printf "FAIL %s: %s\n%!" p.pname msg)
    fmt

let attempt (p : phase) = p.attempted <- p.attempted + 1

let total f = List.fold_left (fun acc p -> acc + f p) 0 !phases

(* ------------------------------------------------------------------ *)
(* Response fields                                                     *)
(* ------------------------------------------------------------------ *)

let starts_with s pre =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* First index of [needle] in [s], without allocating: responses run
   to megabytes and the client's garbage lands in timed requests. *)
let find_sub s needle =
  let n = String.length needle and m = String.length s in
  let rec matches i j = j = n || (s.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec go i = if i + n > m then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* [key=value] from the response head (before any [tree=] payload). *)
let field resp key =
  let head =
    match find_sub resp " tree=" with
    | Some i -> String.sub resp 0 i
    | None -> resp
  in
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' head)

let tree_of resp =
  match find_sub resp " tree=" with
  | Some i -> Some (String.sub resp (i + 6) (String.length resp - i - 6))
  | None -> None

(* Wall-clock staleness is the one field two equal stacks may differ
   in. *)
let mask_staleness resp =
  match find_sub resp " staleness=" with
  | None -> resp
  | Some i ->
    let j =
      match String.index_from_opt resp (i + 1) ' ' with
      | Some j -> j
      | None -> String.length resp
    in
    String.sub resp 0 i ^ " staleness=*" ^ String.sub resp j (String.length resp - j)

let expected_prefix = function
  | F.Read (F.Query, _) -> "ok query "
  | F.Read (F.Answer, _) -> "ok answer "
  | F.Write (F.Ingest _) -> "ok ingest "
  | F.Write (F.Delete _) -> "ok delete "
  | F.Write (F.Update _) -> "ok update "

let well_formed op resp =
  starts_with resp (expected_prefix op)
  && (not (String.contains resp '\n'))
  &&
  let has k = field resp k <> None in
  match op with
  | F.Read (F.Query, _) ->
    has "degraded" && has "classes" && has "empty"
    && Option.is_some (Option.bind (field resp "est") float_of_string_opt)
  | F.Read (F.Answer, _) ->
    has "degraded"
    && (field resp "empty" = Some "yes"
       || (has "truncated"
          && Option.is_some (Option.bind (field resp "nodes") int_of_string_opt)
          && find_sub resp " tree=" <> None))
  | F.Write _ ->
    has "name" && Option.is_some (Option.bind (field resp "seq") int_of_string_opt)

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

let client_config =
  {
    Client.default_config with
    connect_timeout = 5.;
    request_timeout = 120.;
    attempts = 1;
    breaker_threshold = 0;
  }

(* Self-test hook: rewrite or drop a response the client sees. *)
let tamper : (string -> string option) ref = ref (fun r -> Some r)

let request client line =
  let t0 = now () in
  let r = Client.request client line in
  let dt = now () -. t0 in
  let r =
    match r with
    | Ok s -> (
      match !tamper s with Some s -> Ok s | None -> Error "response dropped")
    | Error e -> Error (Client.error_to_string e)
  in
  (r, dt)

(* A bare socket: one line out, one line in. *)
module Raw = struct
  type t = {
    fd : Unix.file_descr;
    ic : in_channel;
    oc : out_channel;
  }

  let connect socket =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

  let request t line =
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Set-up and BUILD                                                    *)
(* ------------------------------------------------------------------ *)

type env = {
  args : args;
  fx : F.t;
  srv : Proc.server;
  client : Client.t;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* Fresh run directory: documents, the query workload, an empty
   catalog and a started server answering PING. *)
let set_up args ~dir ~workers =
  Proc.tidy dir;
  mkdir_p dir;
  let fx = F.make (data_of args.workload) ~dir in
  let catalog = Filename.concat dir "catalog" in
  mkdir_p catalog;
  let srv =
    Proc.start ~exe:args.exe ~catalog
      ~socket:(Filename.concat dir "s.sock")
      ~log:(Filename.concat dir "server.log") ~workers
  in
  (fx, srv)

let job_state jobs name =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = name ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' jobs)

(* BUILD through the job supervisor; returns the seconds from sending
   BUILD until JOBS reports done and STAT shows the name resident. *)
let build_verb ~send ph fx =
  let name = fx.F.data.F.name in
  let t0 = now () in
  attempt ph;
  match send (Printf.sprintf "BUILD %s %s %s" name fx.F.xml_path F.budget) with
  | Error e ->
    fail ph "BUILD: %s" e;
    None
  | Ok r when not (starts_with r "ok build ") ->
    fail ph "BUILD answered %S" r;
    None
  | Ok _ ->
    let give_up = t0 +. 150. in
    let rec poll () =
      if now () > give_up then (
        fail ph "BUILD did not finish within 150 s";
        None)
      else
        match send "JOBS" with
        | Ok r when starts_with r "ok jobs " -> (
          match job_state r name with
          | Some "done" -> stat ()
          | Some ("running" | "backoff") ->
            Proc.sleep 0.002;
            poll ()
          | s ->
            fail ph "BUILD job ended %s" (Option.value s ~default:"missing");
            None)
        | Ok r ->
          fail ph "JOBS answered %S" r;
          None
        | Error e ->
          fail ph "JOBS: %s" e;
          None
    and stat () =
      match send ("STAT " ^ name) with
      | Ok r when starts_with r "ok stat " && field r "classes" <> None ->
        Some (now () -. t0)
      | Ok r when starts_with r "ok stat " || starts_with r "error not-found" ->
        Proc.sleep 0.002;
        if now () > give_up then (
          fail ph "STAT never showed %s resident" name;
          None)
        else stat ()
      | Ok r ->
        fail ph "STAT answered %S" r;
        None
      | Error e ->
        fail ph "STAT: %s" e;
        None
    in
    poll ()

(* ------------------------------------------------------------------ *)
(* Reference answers and accuracy                                      *)
(* ------------------------------------------------------------------ *)

let caps =
  {
    Q.deadline = None;
    max_answer_nodes = Serve.Server.default_config.max_answer_nodes;
    max_work = Serve.Server.default_config.max_work;
    max_heap_words = max_int;
  }

let reference ?levels synopsis kind q =
  let budget = Q.budget_for caps Serve.Protocol.no_opts in
  (Q.run ?levels ~budget kind synopsis q).Q.response

let load_snapshot path =
  match Sketch.Serialize.load_any_res path with
  | Ok (Sketch.Serialize.Single s) -> s
  | Ok (Sketch.Serialize.Ladder a) -> snd a.(0)
  | Error f -> failwith (Xmldoc.Fault.to_string f)

(* §6.1: mean |r - e| / max(r, s) with s the 10th percentile of the
   true counts, over [(truth, estimate)] pairs. *)
let sel_rel_error pairs =
  let sanity =
    let a = Stats.sorted (List.map fst pairs) in
    Float.max 1. (a.(min (Array.length a - 1) (int_of_float (0.1 *. float (Array.length a)))))
  in
  Stats.mean
    (List.map
       (fun (actual, estimate) ->
         Sketch.Selectivity.relative_error ~actual ~estimate ~sanity)
       pairs)

(* Answer trees label each node [q<var>#<label>]; '#' is not an XML
   name character, so served trees and exact nesting trees are both
   compared with it spelled '.'. *)
let xml_name label =
  String.map (fun c -> if c = '#' then '.' else c) (Xmldoc.Label.to_string label)

let rec relabel t =
  Xmldoc.Tree.make
    (Xmldoc.Label.of_string (xml_name (Xmldoc.Tree.label t)))
    (List.map relabel (Array.to_list (Xmldoc.Tree.children t)))

(* ESD of a served ANSWER tree against the exact nesting tree's
   summary. *)
let answer_esd ~doc pairs =
  let root_only =
    Sketch.Stable.build
      (relabel
         (Xmldoc.Tree.make (Twig.Eval.nesting_label 0 (Xmldoc.Tree.label doc)) []))
  in
  Stats.mean
    (List.map
       (fun (truth, resp) ->
         let approx =
           match tree_of resp with
           | None -> root_only
           | Some xml -> (
             let xml = String.map (fun c -> if c = '#' then '.' else c) xml in
             match Xmldoc.Parser.of_string_res xml with
             | Ok t -> Sketch.Stable.build t
             | Error f -> failwith ("served answer tree: " ^ Xmldoc.Fault.to_string f))
         in
         Metric.Esd.between_synopses truth approx)
       pairs)

(* Exact selectivities of every query, and the exact nesting trees of
   the scored subset (the first [esd_queries] queries with a non-empty
   nesting tree). *)
let exact doc queries =
  let idx = Twig.Doc.of_tree doc in
  let truths = Array.map (Twig.Eval.selectivity idx) queries in
  let scored =
    List.filter_map
      (fun i ->
        match (Twig.Eval.run idx queries.(i)).Twig.Eval.nesting with
        | Some nt -> Some (i, Sketch.Stable.build (relabel nt))
        | None -> None)
      (List.init (min F.esd_queries (Array.length queries)) Fun.id)
  in
  (truths, scored)

(* ------------------------------------------------------------------ *)
(* Determinism: quantities that must repeat exactly                    *)
(* ------------------------------------------------------------------ *)

let repeats : (string * string * string) list ref = ref []

let repeat name ~source v = repeats := !repeats @ [ (name, source, v) ]

(* Counts kept per source while the run goes, handed to [repeat] at
   its end.  [~by:0] registers a source that saw none. *)
let tallies : ((string * string) * int ref) list ref = ref []

let tally ?(by = 1) name ~source =
  match List.assoc_opt (name, source) !tallies with
  | Some r -> r := !r + by
  | None -> tallies := !tallies @ [ ((name, source), ref by) ]

let tallied name ~source =
  match List.assoc_opt (name, source) !tallies with Some r -> !r | None -> 0

let is_degraded resp = field resp "degraded" <> Some "no"

(* What a layer's response to a read or a write shows: reads the caps
   degraded; write acks paced with [backpressure=] and writes refused
   with [error ingest-deferred]. *)
let note_response ~source op resp =
  let flag b = if b then 1 else 0 in
  match op with
  | F.Read _ -> tally "core.eval.degraded" ~source ~by:(flag (is_degraded resp))
  | F.Write _ ->
    tally "serve.write_pressure.paced" ~source ~by:(flag (field resp "backpressure" <> None));
    tally "serve.write_pressure.deferred" ~source
      ~by:(flag (starts_with resp "error ingest-deferred"))

(* Quantities whose value is fixed, not only repeated. *)
let required = [ ("serve.write_pressure.paced", "0"); ("serve.write_pressure.deferred", "0") ]

(* Every quantity must carry one value across its sources, and either
   have two sources or a required value: a lone source compared with
   itself proves nothing. *)
let check_repeats () =
  List.iter (fun ((n, source), r) -> repeat n ~source (string_of_int !r)) !tallies;
  let ph = phase "determinism" in
  let names = List.sort_uniq compare (List.map (fun (n, _, _) -> n) !repeats) in
  List.iter
    (fun n ->
      let vs = List.filter (fun (m, _, _) -> m = n) !repeats in
      attempt ph;
      match vs with
      | [] -> ()
      | (_, _, v0) :: _ -> (
        let sources = String.concat "," (List.map (fun (_, s, _) -> s) vs) in
        if List.exists (fun (_, _, v) -> v <> v0) vs then
          fail ph "%s differs: %s" n
            (String.concat " " (List.map (fun (_, s, v) -> s ^ "=" ^ v) vs))
        else
          match List.assoc_opt n required with
          | Some want when v0 <> want -> fail ph "%s=%s, must be %s" n v0 want
          | None when List.length vs < 2 -> fail ph "%s has one source (%s)" n sources
          | _ -> Printf.printf "repeat %s=%s sources=%s\n" n v0 sources))
    names

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = {
  mname : string;
  value : float;
  unit_ : string;
  n : int option;  (** samples behind the value, for timings *)
}

let metric ?n mname unit_ value = { mname; value; unit_; n }

let emit ~trace metrics =
  let ph = phase "report" in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then fail ph "metric %s is not a number" m.mname;
      Printf.printf "metric %s=%.6g %s%s\n" m.mname m.value m.unit_
        (match m.n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    metrics;
  List.iter
    (fun p ->
      Printf.printf "phase %s attempted=%d succeeded=%d failed=%d\n" p.pname
        p.attempted (p.attempted - p.failed) p.failed)
    !phases;
  let attempted = max 1 (total (fun p -> p.attempted)) in
  let failed = total (fun p -> p.failed) in
  Printf.printf "failed_share=%.6g (%d of %d)%s\n"
    (float failed /. float attempted)
    failed attempted
    (if trace then " [traced run]" else "");
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
             (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "0")
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body;
  failed = 0

(* ------------------------------------------------------------------ *)
(* The untraced run                                                    *)
(* ------------------------------------------------------------------ *)

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* Acked sequence numbers per catalog and name must advance by exactly
   one. *)
let last_seq : (string * string, int) Hashtbl.t = Hashtbl.create 4

let check_seq ph ~catalog ~name resp =
  match Option.bind (field resp "seq") int_of_string_opt with
  | None -> ()
  | Some seq ->
    (match Hashtbl.find_opt last_seq (catalog, name) with
    | Some prev when seq <> prev + 1 ->
      fail ph "%s acked seq=%d after seq=%d" name seq prev
    | _ -> ());
    Hashtbl.replace last_seq (catalog, name) seq

(* One timed request: [Some resp] when it is a well-formed [ok] line
   for its verb, and the seconds it took. *)
let run_op env ph ~name op =
  let line = F.line env.fx ~name op in
  attempt ph;
  let r, dt = request env.client line in
  (match (op, r) with F.Write _, Ok resp -> note_response ~source:"served" op resp | _ -> ());
  ( (match r with
    | Error e ->
      fail ph "%s: %s" (clip line) e;
      None
    | Ok resp when not (well_formed op resp) ->
      fail ph "%s answered %S" (clip line) (clip resp);
      None
    | Ok resp ->
      (match op with
      | F.Write _ -> check_seq ph ~catalog:env.srv.Proc.catalog ~name resp
      | F.Read _ -> ());
      Some resp),
    dt )

(* STAT must show the level stack the benchmark itself counted: one
   level per [flush_every] acknowledged mutations, all records in
   levels but the unflushed tail. *)
let check_stat env ph ~name ~writes =
  attempt ph;
  let levels = writes / flush_every in
  let want =
    [
      ("levels", string_of_int levels);
      ("level_records", string_of_int (levels * flush_every));
      ("wal", string_of_int (writes mod flush_every));
    ]
  in
  match fst (request env.client ("STAT " ^ name)) with
  | Ok r when starts_with r "ok stat " ->
    List.iter
      (fun (k, v) ->
        if field r k <> Some v then
          fail ph "STAT %s: %s=%s, benchmark counted %s" name k
            (Option.value (field r k) ~default:"absent")
            v)
      want;
    levels
  | Ok r ->
    fail ph "STAT %s answered %S" name (clip r);
    levels
  | Error e ->
    fail ph "STAT %s: %s" name e;
    levels

(* Wall time of each stage, printed as it ends. *)
let stage name f =
  let t0 = now () in
  let r = f () in
  Printf.printf "stage %s %.3fs\n%!" name (now () -. t0);
  r

let est_of resp =
  Option.value (Option.bind (field resp "est") float_of_string_opt) ~default:nan

type outcome = {
  setups : float list;  (** seconds of each set-up *)
  builds : float list;  (** seconds of each BUILD *)
  query : float list;
  answer : float list;
  write : float list;
  walls : float list;  (** each replay's seconds in its rated stage *)
  rated : int;  (** requests in each replay's rated stage *)
  rss_mb : float;
  disk_kb : float;
  sel_err : float;
  esd : float;
}

let finish_server env ~tag =
  let rss = Proc.peak_rss_mb env.srv in
  let before = Proc.dir_bytes env.srv.Proc.catalog in
  Client.close env.client;
  Proc.stop env.srv;
  let after = Proc.dir_bytes env.srv.Proc.catalog in
  repeat "disk_kb" ~source:(tag ^ "-live") (string_of_int before);
  repeat "disk_kb" ~source:(tag ^ "-drained") (string_of_int after);
  (rss, float before /. 1024.)

(* How a run holds its figures steady on a noisy host, where a fixed
   CPU loop swings by as much as 70 % within a few seconds.  The whole
   workload is replayed from scratch several times (set-up, a fresh
   server, BUILD, the timed requests, then one more BUILD on a server
   of its own), so every figure draws on samples spread across the run:
   setup_s is the median set-up, build_s the fastest BUILD, each
   request's latency its fastest send over the replays, and ops_per_s
   the closed loop's rate over every replay's timed stage (requests
   completed over wall time).  Each replay sends every request once, so
   a cost paid once per state change, such as the level reload after a
   flush, is in every replay's timings.  Every replay must answer each
   request as the first did: a BUILD on a fresh server repeats its
   work exactly.  (A BUILD child inherits its server's label table and
   TSBUILD's merge order depends on label numbering, so a second BUILD
   in the same server need not.) *)
let replays = function Read_xmark -> 5 | Live_imdb -> 3

(* The write stream read-xmark sends to the journal name after its
   reads: five flushes' worth, as many as a 10 s live-imdb run makes. *)
let read_writes = 5 * flush_every

(* Length of the live sequence: four requests per write, and a whole
   number of flush batches of writes, one batch per two measured
   seconds (10 s: 1280 requests, 320 writes, 5 levels).  Whole batches
   leave the server's drain nothing to flush, so the catalog it leaves
   is the catalog it served, whatever --seconds is. *)
let live_ops seconds = 4 * flush_every * max 1 ((seconds + 1) / 2)

(* read-xmark's write stream, or live-imdb's whole sequence. *)
let stream_of args ~n =
  match args.workload with
  | Read_xmark -> Array.map (fun w -> F.Write w) (F.writes ~seed:args.seed read_writes)
  | Live_imdb -> F.live ~seed:args.seed ~ops:(live_ops args.seconds) ~n_queries:n

let write_name args fx = match args.workload with Read_xmark -> journal | Live_imdb -> fx.F.data.F.name

let target args fx = function F.Write _ -> write_name args fx | F.Read _ -> fx.F.data.F.name

(* The timed stages of replay [r], each request with its index in the
   workload's fixed order.  read-xmark sends its reads in the order of
   pass [r], then its write stream in a stage of its own, so no read
   meets a write, a flush or a level; ops_per_s is the read stage's.
   live-imdb sends its sequence. *)
type stage_plan = {
  sname : string;
  requests : (int * F.op) array;
  rated : bool;
}

let stages_of args ~n ~stream r =
  let indexed from ops = Array.mapi (fun j op -> (from + j, op)) ops in
  match args.workload with
  | Read_xmark ->
    [
      {
        sname = "reads";
        requests =
          Array.map
            (fun (kind, q) -> ((if kind = F.Query then q else n + q), F.Read (kind, q)))
            (F.pass ~seed:args.seed ~pass:r n);
        rated = true;
      };
      { sname = "journal"; requests = indexed (2 * n) stream; rated = false };
    ]
  | Live_imdb -> [ { sname = "serve"; requests = indexed 0 stream; rated = true } ]

type replay = {
  env : env;  (** its server still running *)
  setup_s : float;
  builds : float list;
  ops : F.op array;  (** every request, in the fixed order *)
  results : (string option * float) array;
      (** each request's response (staleness masked) and seconds *)
  wall : float;  (** seconds in the rated stage *)
  rated_n : int;
}

(* BUILD on a fresh server over its own empty catalog under [dir]. *)
let extra_build args fx ~dir =
  Proc.tidy dir;
  mkdir_p dir;
  let srv =
    Proc.start ~exe:args.exe ~catalog:dir ~socket:(dir ^ ".sock") ~log:(dir ^ ".log") ~workers:1
  in
  let c = Client.create ~config:client_config [ srv.Proc.socket ] in
  let t = build_verb ~send:(fun l -> fst (request c l)) (phase "build") fx in
  Client.close c;
  Proc.stop srv;
  Proc.tidy dir;
  t

(* One replay from scratch under run/<r>/.  [stream] is computed by the
   first replay and reused. *)
let replay args ~stream r =
  let t0 = now () in
  let fx, srv = set_up args ~dir:(Printf.sprintf "run/%d" r) ~workers:1 in
  let setup_s = now () -. t0 in
  let env = { args; fx; srv; client = Client.create ~config:client_config [ srv.Proc.socket ] } in
  let build_s = build_verb ~send:(fun l -> fst (request env.client l)) (phase "build") fx in
  let n = Array.length fx.F.queries in
  let stream =
    match !stream with
    | Some s -> s
    | None ->
      let s = stream_of args ~n in
      stream := Some s;
      s
  in
  let stages = stages_of args ~n ~stream r in
  let size = List.fold_left (fun acc st -> acc + Array.length st.requests) 0 stages in
  let ops = Array.make size (F.Read (F.Query, 0)) and results = Array.make size (None, nan) in
  let wall = ref nan and rated_n = ref 0 in
  let ph = phase "serve" in
  List.iter
    (fun st ->
      let t1 = now () in
      stage (Printf.sprintf "%s%d" st.sname r) (fun () ->
          Array.iter
            (fun (i, op) ->
              ops.(i) <- op;
              let resp, dt = run_op env ph ~name:(target args fx op) op in
              results.(i) <- (Option.map mask_staleness resp, dt))
            st.requests);
      if st.rated then begin
        wall := now () -. t1;
        rated_n := Array.length st.requests
      end)
    stages;
  let writes = Array.fold_left (fun acc op -> match op with F.Write _ -> acc + 1 | F.Read _ -> acc) 0 stream in
  let levels = check_stat env (phase "stat") ~name:(write_name args fx) ~writes in
  (* without compaction every flush adds one level *)
  repeat "serve.ingest.levels_final" ~source:(Printf.sprintf "stat%d" r) (string_of_int levels);
  repeat "serve.ingest.flushes" ~source:(Printf.sprintf "stat%d" r) (string_of_int levels);
  let extra = extra_build args fx ~dir:(Printf.sprintf "run/%d/extra" r) in
  { env; setup_s; builds = Option.to_list build_s @ Option.to_list extra; ops; results; wall = !wall; rated_n = !rated_n }

(* Every replay, the last one's server left running.  Returns it, the
   first replay's responses, each request's fastest time and the
   figures of every replay. *)
let replay_all args =
  let ph = phase "serve" in
  let stream = ref None in
  let first = replay args ~stream 0 in
  let best = Array.map snd first.results in
  let rec more r prev acc =
    if r = replays args.workload then (prev, List.rev acc)
    else begin
      let rss, _ = finish_server prev.env ~tag:(Printf.sprintf "replay%d" (r - 1)) in
      let rp = replay args ~stream r in
      Array.iteri
        (fun i (resp, dt) ->
          best.(i) <- Float.min best.(i) dt;
          match (resp, fst first.results.(i)) with
          | Some a, Some b when a <> b ->
            let op = rp.ops.(i) in
            fail ph "replay %d: %s answered otherwise than replay 0"
              r (clip (F.line rp.env.fx ~name:(target args rp.env.fx op) op))
          | _ -> ())
        rp.results;
      (* only the first replay's responses are read later *)
      more (r + 1) { rp with results = [||] } ((prev, rss) :: acc)
    end
  in
  let last, earlier = more 1 first [] in
  (first, best, last, earlier)

(* Flushes the server of replay [r] logged for [name]. *)
let logged_flushes r ~name =
  let event = Printf.sprintf "event=ingest-flush name=%s " name in
  match Proc.read_file (Printf.sprintf "run/%d/server.log" r) with
  | None -> -1
  | Some log ->
    List.length (List.filter (fun l -> find_sub l event <> None) (String.split_on_char '\n' log))

(* The figures of every replay; call once every server has stopped. *)
let summarize first best last earlier ~rss_mb ~disk_kb ~sel_err ~esd =
  let all = List.map fst earlier @ [ last ] in
  List.iteri
    (fun r rp ->
      repeat "serve.ingest.flushes" ~source:(Printf.sprintf "log%d" r)
        (string_of_int (logged_flushes r ~name:(write_name rp.env.args rp.env.fx))))
    all;
  let of_kind p = List.filteri (fun i _ -> p first.ops.(i)) (Array.to_list best) in
  {
    setups = List.map (fun rp -> rp.setup_s) all;
    builds = List.concat_map (fun rp -> rp.builds) all;
    query = of_kind (function F.Read (F.Query, _) -> true | _ -> false);
    answer = of_kind (function F.Read (F.Answer, _) -> true | _ -> false);
    write = of_kind (function F.Write _ -> true | F.Read _ -> false);
    walls = List.map (fun rp -> rp.wall) all;
    rated = first.rated_n;
    rss_mb = Stats.median (List.map snd earlier @ [ rss_mb ]);
    disk_kb;
    sel_err;
    esd;
  }

(* read-xmark: served answers against the in-process evaluator over the
   served snapshot. *)
let run_reads args =
  let first, best, last, earlier = replay_all args in
  let fx = last.env.fx in
  let name = fx.F.data.F.name in
  let n = Array.length fx.F.queries in
  let served = Array.map fst first.results in
  let rss_mb, disk_kb = finish_server last.env ~tag:"last" in
  let truths, scored = stage "exact" (fun () -> exact fx.F.doc fx.F.queries) in
  let vph = phase "verify" in
  let synopsis =
    load_snapshot (Filename.concat last.env.srv.Proc.catalog (name ^ Serve.Catalog.snapshot_extension))
  in
  let reference_of = Array.make (2 * n) "" in
  stage "reference" (fun () ->
      Array.iteri
        (fun q query ->
          List.iter
            (fun (kind, i) ->
              attempt vph;
              let r = mask_staleness (reference synopsis kind query) in
              reference_of.(i) <- r;
              if served.(i) <> Some r then
                fail vph "%s differs from Query_exec.run" (clip (F.read_line fx ~name kind q)))
            [ (F.Query, q); (F.Answer, n + q) ])
        fx.F.queries);
  let accuracy source line =
    let sel_err = sel_rel_error (List.init n (fun q -> (truths.(q), est_of (line q)))) in
    let esd = answer_esd ~doc:fx.F.doc (List.map (fun (q, truth) -> (truth, line (n + q))) scored) in
    let degraded = List.length (List.filter (fun i -> is_degraded (line i)) (List.init (2 * n) Fun.id)) in
    repeat "sel_rel_error" ~source (Printf.sprintf "%.9g" sel_err);
    repeat "answer_esd" ~source (Printf.sprintf "%.9g" esd);
    repeat "core.eval.degraded" ~source (string_of_int degraded);
    (sel_err, esd)
  in
  let sel_err, esd = accuracy "served" (fun i -> Option.value served.(i) ~default:"") in
  ignore (accuracy "reference" (fun i -> reference_of.(i)));
  summarize first best last earlier ~rss_mb ~disk_kb ~sel_err ~esd

(* live-imdb: a closing verification pass, twice, on the last replay's
   server, against Query_exec.run over the level stack loaded from the
   served directory. *)
let run_live args =
  let first, best, last, earlier = replay_all args in
  let env = last.env in
  let fx = env.fx in
  let name = fx.F.data.F.name in
  let n = Array.length fx.F.queries in
  let vph = phase "verify" in
  let verify_ops =
    Array.append
      (Array.init n (fun q -> F.Read (F.Query, q)))
      (Array.init (min F.esd_queries n) (fun q -> F.Read (F.Answer, q)))
  in
  let closing () =
    Array.map
      (fun op ->
        match run_op env vph ~name op with
        | Some r, _ -> mask_staleness r
        | None, _ -> "")
      verify_ops
  in
  let pass1 = closing () in
  let pass2 = closing () in
  Array.iteri
    (fun i r ->
      if r <> pass2.(i) then
        fail vph "closing passes disagree on %s" (clip (F.line fx ~name verify_ops.(i))))
    pass1;
  (* the stack the server serves, loaded from the same directory *)
  let cat = Serve.Catalog.create env.srv.Proc.catalog in
  ignore (Serve.Catalog.refresh cat);
  let entry = Serve.Catalog.find cat name in
  let manifest_levels =
    string_of_int (match entry with Some e -> Array.length e.Serve.Catalog.levels | None -> -1)
  in
  repeat "serve.ingest.levels_final" ~source:"manifest" manifest_levels;
  let rss_mb, disk_kb = finish_server env ~tag:"last" in
  let writes =
    Array.to_list first.ops |> List.filter_map (function F.Write w -> Some w | F.Read _ -> None)
  in
  let model = F.model_doc fx.F.doc writes in
  let truths, scored = stage "exact" (fun () -> exact model fx.F.queries) in
  let accuracy source lines =
    let sel_err = sel_rel_error (List.init n (fun q -> (truths.(q), est_of lines.(q)))) in
    let esd = answer_esd ~doc:model (List.map (fun (q, truth) -> (truth, lines.(n + q))) scored) in
    repeat "sel_rel_error" ~source (Printf.sprintf "%.9g" sel_err);
    repeat "answer_esd" ~source (Printf.sprintf "%.9g" esd);
    repeat "core.eval.degraded" ~source
      (string_of_int (Array.fold_left (fun acc r -> if is_degraded r then acc + 1 else acc) 0 lines));
    (sel_err, esd)
  in
  let sel_err, esd = accuracy "served" pass1 in
  (match entry with
  | None -> fail vph "%s not loadable from the served directory" name
  | Some e ->
    let want =
      stage "reference" (fun () ->
          Array.map
            (function
              | F.Read (kind, q) ->
                mask_staleness
                  (reference ~levels:(e.Serve.Catalog.levels, 0.) e.Serve.Catalog.synopsis kind
                     fx.F.queries.(q))
              | F.Write _ -> "")
            verify_ops)
    in
    Array.iteri
      (fun i w ->
        attempt vph;
        if pass1.(i) <> w then
          fail vph "%s differs from Query_exec.run over the stack" (clip (F.line fx ~name verify_ops.(i))))
      want;
    ignore (accuracy "reference" want));
  summarize first best last earlier ~rss_mb ~disk_kb ~sel_err ~esd

let end_to_end o =
  let ms xs p = 1000. *. Stats.require "latency" xs p in
  let n xs = List.length xs in
  let samples what unit_ xs =
    Printf.printf "%s samples=%s %s\n" what (String.concat "," (List.map (Printf.sprintf "%.4f") xs)) unit_
  in
  List.iter
    (fun (what, xs) -> print_endline (Stats.describe_ms what xs))
    [ ("query", o.query); ("answer", o.answer); ("write", o.write); ("build", o.builds) ];
  samples "setup_s" "s" o.setups;
  samples "build_s" "s" o.builds;
  samples "ops_per_s" "1/s" (List.map (fun w -> float o.rated /. w) o.walls);
  Printf.printf "latencies: each request's fastest of %d replays\n" (n o.walls);
  [
    metric "setup_s" "s" (Stats.median o.setups) ~n:(n o.setups);
    metric "query_p50_ms" "ms" (ms o.query 0.5) ~n:(n o.query);
    metric "query_p90_ms" "ms" (ms o.query 0.9) ~n:(n o.query);
    metric "answer_p50_ms" "ms" (ms o.answer 0.5) ~n:(n o.answer);
    metric "answer_p90_ms" "ms" (ms o.answer 0.9) ~n:(n o.answer);
    metric "ops_per_s" "1/s" (float (o.rated * n o.walls) /. Stats.sum o.walls) ~n:(o.rated * n o.walls);
    metric "write_p50_ms" "ms" (ms o.write 0.5) ~n:(n o.write);
    metric "build_s" "s" (List.fold_left Float.min infinity o.builds) ~n:(n o.builds);
    metric "server_rss_mb" "MB" o.rss_mb ~n:(n o.walls);
    metric "disk_kb" "KB" o.disk_kb;
    metric "sel_rel_error" "fraction" o.sel_err ~n:F.n_queries;
    metric "answer_esd" "ESD" o.esd;
  ]

(* ------------------------------------------------------------------ *)
(* The traced run: one replay per layer, innermost first               *)
(* ------------------------------------------------------------------ *)

let span = Tracer.span
let count = Tracer.count

let budget_bytes =
  match Xmldoc.Limits.parse_bytes F.budget with Ok b -> b | Error e -> failwith e

let ok_or_fail what = function
  | Ok v -> v
  | Error f -> failwith (what ^ ": " ^ Xmldoc.Fault.to_string f)

let copy_file src dst =
  match Proc.read_file src with
  | None -> failwith ("cannot read " ^ src)
  | Some text -> Out_channel.with_open_bin dst (fun oc -> output_string oc text)

(* Each TSBUILD merge joins two live clusters, so a build's merges are
   the nodes its synopsis has fewer than the stable summary. *)
let merges_between stable synopsis =
  string_of_int (Sketch.Synopsis.num_nodes stable - Sketch.Synopsis.num_nodes synopsis)

(* Build layers: parser, stable summary, the raw TSBUILD loop, the
   checkpointed build, snapshot save and load.  (The server's BUILD is
   not a source of the merge count: TSBUILD's merge order depends on
   the label numbering of the process that runs it.) *)
let trace_build_layers fx ~dir =
  let tree =
    ok_or_fail "parse"
      (span "xml.parser" ~req:(-1) (fun () -> Xmldoc.Parser.of_file_res fx.F.xml_path))
  in
  count "xml.parser.elements" (float (Xmldoc.Tree.size tree));
  let stable = span "core.stable" ~req:(-1) (fun () -> Sketch.Stable.build tree) in
  count "core.stable.nodes" (float (Sketch.Synopsis.num_nodes stable));
  let marks = ref [] in
  let t0 = now () in
  let synopsis =
    span "core.build" ~req:(-1) (fun () ->
        let cl = Sketch.Cluster.of_stable stable in
        ignore
          (Sketch.Build.compress_ctl cl ~budget:budget_bytes
             ~ctl:(Xmldoc.Budget.unlimited ())
             ~on_merge:(fun () -> marks := now () :: !marks));
        Sketch.Cluster.to_synopsis cl)
  in
  let t1 = now () in
  let merges = List.length !marks in
  count "core.build.merges" (float merges);
  count "core.build.final_bytes" (float (Sketch.Synopsis.size_bytes synopsis));
  (* the time after the merge that opens the last tenth *)
  let late_from =
    match List.nth_opt !marks ((merges + 9) / 10) with Some t -> t | None -> t0
  in
  count "core.build.late_merge_share" ((t1 -. late_from) /. Float.max 1e-9 (t1 -. t0));
  repeat "core.build.merges" ~source:"compress_ctl" (string_of_int merges);
  let checkpoint = Filename.concat dir "trace.ckpt" in
  let outcome =
    ok_or_fail "checkpointed build"
      (span "core.build.checkpointed" ~req:(-1) (fun () ->
           Sketch.Build.build_checkpointed_res ~checkpoint_every:Serve.Jobs.default_config.checkpoint_every
             ~on_checkpoint:(fun _ -> count "core.serialize.checkpoints" 1.)
             ~checkpoint stable ~budget:budget_bytes))
  in
  let path = Filename.concat dir "trace.ts" in
  ok_or_fail "save"
    (span "core.serialize.save" ~req:(-1) (fun () ->
         Sketch.Serialize.save_atomic path outcome.Sketch.Build.synopsis));
  repeat "core.build.merges" ~source:"checkpointed" (merges_between stable outcome.Sketch.Build.synopsis);
  ignore (ok_or_fail "load" (span "core.serialize.load" ~req:(-1) (fun () -> Sketch.Serialize.load_any_res path)));
  count "core.serialize.snapshot_bytes" (float (Unix.stat path).Unix.st_size)

(* The core calls behind one read, as Query_exec.run makes them: level
   masks, one evaluation per stack member, then selectivity or
   expansion and printing, all under one budget.  The read counts as
   degraded when that budget stopped, as the response's [degraded=]
   reports it. *)
let core_read ~req kind base levels q =
  let budget = Q.budget_for caps Serve.Protocol.no_opts in
  let stack =
    match levels with
    | None -> [ base ]
    | Some ls ->
      let n = Array.length ls in
      base
      :: List.init n (fun i ->
             let s, _ = ls.(i) in
             let newer = List.concat (List.init (n - i - 1) (fun j -> snd ls.(i + 1 + j))) in
             if newer = [] then s
             else span "core.build.prune" ~req (fun () -> Sketch.Build.prune_paths s newer))
  in
  let answers =
    List.map
      (fun s ->
        let a = span "core.eval" ~req (fun () -> Sketch.Eval.eval ~budget s q) in
        count "core.eval.answer_nodes" (float (Sketch.Synopsis.num_nodes a.Sketch.Eval.synopsis));
        a)
      stack
  in
  (match kind with
  | F.Query ->
    List.iter
      (fun a -> ignore (span "core.selectivity" ~req (fun () -> Sketch.Selectivity.of_answer q a)))
      answers
  | F.Answer ->
    if not (List.for_all (fun a -> a.Sketch.Eval.empty) answers) then begin
      let parts =
        List.filter_map
          (fun a ->
            if a.Sketch.Eval.empty then None
            else begin
              let p = span "core.expand" ~req (fun () -> Sketch.Expand.partial ~budget a.Sketch.Eval.synopsis) in
              count "core.expand.tree_nodes" (float p.Sketch.Expand.nodes);
              if p.Sketch.Expand.truncated then count "core.expand.truncated" 1.;
              Some p
            end)
          answers
      in
      let tree =
        match parts with
        | [ p ] -> p.Sketch.Expand.tree
        | ps ->
          Xmldoc.Tree.make
            (List.hd ps).Sketch.Expand.tree.Xmldoc.Tree.label
            (List.concat_map (fun p -> Array.to_list p.Sketch.Expand.tree.Xmldoc.Tree.children) ps)
      in
      let text = span "xml.printer" ~req (fun () -> Xmldoc.Printer.to_string tree) in
      count "xml.printer.bytes" (float (String.length text))
    end);
  let degraded = Xmldoc.Budget.stopped budget <> None in
  if degraded then count "core.eval.degraded" 1.;
  tally "core.eval.degraded" ~source:"core" ~by:(if degraded then 1 else 0)

let wal_op = function
  | F.Ingest xml -> (Serve.Wal.Insert, xml)
  | F.Delete p -> (Serve.Wal.Delete, p)
  | F.Update (p, xml) -> (Serve.Wal.Update, p ^ " " ^ xml)

let traced args =
  let tph = phase "trace" in
  let dir = Filename.concat (Sys.getcwd ()) "trace" in
  Proc.tidy dir;
  mkdir_p dir;
  let fx = F.make (data_of args.workload) ~dir in
  let name = fx.F.data.F.name in
  let n = Array.length fx.F.queries in
  let live = args.workload = Live_imdb in
  let ops, wname =
    if live then (F.live ~seed:args.seed ~ops:(live_ops args.seconds) ~n_queries:n, name)
    else
      ( Array.append
          (Array.map (fun (kind, q) -> F.Read (kind, q)) (F.pass ~seed:args.seed ~pass:0 n))
          (Array.map (fun w -> F.Write w) (F.writes ~seed:args.seed read_writes)),
        journal )
  in
  let target = function F.Read _ -> name | F.Write _ -> wname in
  let lines = Array.map (fun op -> F.line fx ~name:(target op) op) ops in
  let reads = Array.fold_left (fun acc op -> match op with F.Read _ -> acc + 1 | F.Write _ -> acc) 0 ops in
  let nops = Array.length ops in
  Tracer.reset ();
  Tracer.recording := true;
  stage "trace-build" (fun () -> trace_build_layers fx ~dir);
  (* every layer must answer each request as the in-process evaluator
     does (staleness masked) *)
  let expected = Array.make nops "" in
  let check layer i resp =
    attempt tph;
    note_response ~source:layer ops.(i) resp;
    if not (well_formed ops.(i) resp) then fail tph "%s: %s answered %S" layer (clip lines.(i)) (clip resp)
    else begin
      let d = Digest.string (mask_staleness resp) in
      if expected.(i) = "" then expected.(i) <- d
      else if expected.(i) <> d then fail tph "%s: %s disagrees with inner layers" layer (clip lines.(i))
    end
  in
  let catalog_dir k =
    let d = Filename.concat dir (Printf.sprintf "c%d" k) in
    mkdir_p d;
    d
  in
  let server k workers =
    Proc.start ~exe:args.exe ~catalog:(catalog_dir k)
      ~socket:(Printf.sprintf "trace/s%d.sock" k)
      ~log:(Filename.concat dir "server.log") ~workers
  in
  (* BUILD verb (layer 6 of the build) on the layer-4 server *)
  let s4 = server 4 0 in
  let c4 = Client.create ~config:client_config [ s4.Proc.socket ] in
  let build_s =
    span "serve.build_verb" ~req:(-1) (fun () ->
        build_verb ~send:(fun l -> fst (request c4 l)) (phase "build") fx)
  in
  Client.close c4;
  let snapshot = Filename.concat s4.Proc.catalog (name ^ Serve.Catalog.snapshot_extension) in
  List.iter
    (fun k -> copy_file snapshot (Filename.concat (catalog_dir k) (Filename.basename snapshot)))
    [ 3; 5; 6; 7 ];
  let base = load_snapshot snapshot in
  (* layers 1-2: core calls and Query_exec.run; writes through a scratch
     WAL and a scratch Ingest engine *)
  let adir = catalog_dir 1 in
  let eng =
    ok_or_fail "ingest open"
      (Serve.Ingest.open_ ~dir:adir ~name:wname
         ?root_label:(if live then Some (Sketch.Synopsis.label base base.Sketch.Synopsis.root) else None)
         ~level_budget:Serve.Server.default_config.level_budget ~flush_records:flush_every ())
  in
  let wal, _, _ = ok_or_fail "wal open" (Serve.Wal.open_ ~dir:adir ~name:"probe" ()) in
  let user_bytes = ref 0 and wseq = ref 0 in
  stage "trace-inprocess" (fun () ->
      Array.iteri
        (fun i op ->
          match op with
          | F.Read (kind, q) ->
            let query = fx.F.queries.(q) in
            let levels =
              if live && Serve.Ingest.level_count eng > 0 then Some (Serve.Ingest.level_stack eng) else None
            in
            span "core" ~req:i (fun () -> core_read ~req:i kind base levels query);
            count "serve.query_exec.levels" (float (match levels with Some l -> Array.length l | None -> 0));
            let r =
              span "serve.query_exec" ~req:i (fun () ->
                  (Q.run ?levels:(Option.map (fun l -> (l, 0.)) levels)
                     ~budget:(Q.budget_for caps Serve.Protocol.no_opts)
                     kind base query).Q.response)
            in
            check "query_exec" i r
          | F.Write w ->
            let wop, payload = wal_op w in
            incr wseq;
            user_bytes := !user_bytes + String.length payload;
            (match
               span "serve.wal.append" ~req:i (fun () ->
                   Serve.Wal.append wal { Serve.Wal.seq = !wseq; ts = now (); op = wop; payload })
             with
            | Ok () -> ()
            | Error _ -> fail tph "scratch WAL append failed");
            (match w with
            | F.Ingest xml | F.Update (_, xml) ->
              ignore (span "xml.parser.fragment" ~req:i (fun () -> Xmldoc.Parser.of_string_res xml))
            | F.Delete _ -> ());
            span "serve.ingest.write" ~req:i (fun () ->
                let r =
                  span "serve.ingest" ~req:i (fun () ->
                      match w with
                      | F.Ingest xml -> Serve.Ingest.ingest eng ~xml
                      | F.Delete path -> Serve.Ingest.delete eng ~path
                      | F.Update (path, xml) -> Serve.Ingest.update eng ~path ~xml)
                in
                (match r with Ok _ -> () | Error _ -> fail tph "scratch ingest refused %s" (clip lines.(i)));
                if Serve.Ingest.should_flush eng then
                  ignore (ok_or_fail "flush" (span "serve.ingest.flush" ~req:i (fun () -> Serve.Ingest.flush eng)))))
        ops);
  count "serve.ingest.levels_final" (float (Serve.Ingest.level_count eng));
  count "serve.ingest.delta_bytes"
    (float
       (Array.fold_left
          (fun acc f ->
            if Filename.check_suffix f ".delta" then acc + (Unix.stat (Filename.concat adir f)).Unix.st_size
            else acc)
          0 (Sys.readdir adir)));
  count "serve.wal.bytes_per_user_byte" (float (Serve.Wal.bytes wal) /. float (max 1 !user_bytes));
  Serve.Wal.close wal;
  Serve.Ingest.close eng;
  let flushes = Tracer.calls "serve.ingest.flush" in
  repeat "serve.ingest.flushes" ~source:"ingest" (string_of_int flushes);
  repeat "serve.ingest.levels_final" ~source:"ingest"
    (string_of_int (int_of_float (Tracer.counter "serve.ingest.levels_final")));
  (* the final STAT of a served layer must show the same stack *)
  let stat_levels source resp =
    match resp with
    | Some r when starts_with r "ok stat " ->
      let levels = Option.value (field r "levels") ~default:"0" in
      repeat "serve.ingest.levels_final" ~source levels;
      repeat "serve.ingest.flushes" ~source levels
    | Some r -> fail tph "%s: STAT answered %S" source (clip r)
    | None -> fail tph "%s: STAT failed" source
  in
  (* layer 3: the server's line handler in-process, pool off, with
     protocol parse, a shadow catalog refresh and write admission timed
     beside it *)
  let srv3 =
    Serve.Server.create ~log:ignore
      ~config:
        {
          Serve.Server.default_config with
          deadline = None;
          compact_levels = 0;
          pool = { Serve.Pool.default_config with workers = 0 };
        }
      (catalog_dir 3)
  in
  let shadow = Serve.Catalog.create (catalog_dir 3) in
  ignore (Serve.Catalog.refresh shadow);
  let wp = Serve.Write_pressure.create ~dir:(catalog_dir 3) () in
  (* level files opened by the shadow refresh, counted through the I/O
     shim with a zero-delay rule *)
  Xmldoc.Io_fault.arm [ Xmldoc.Io_fault.rule ~path:".delta" Xmldoc.Io_fault.Open (Xmldoc.Io_fault.Delay 0.) ];
  stage "trace-handler" (fun () ->
      Array.iteri
        (fun i op ->
          let line = lines.(i) in
          ignore (span "serve.protocol.parse" ~req:i (fun () -> Serve.Protocol.parse line));
          let before = Xmldoc.Io_fault.injected () in
          ignore (span "serve.catalog.refresh" ~req:i (fun () -> Serve.Catalog.refresh shadow));
          count "serve.catalog.level_loads" (float (Xmldoc.Io_fault.injected () - before));
          (match op with
          | F.Write _ ->
            span "serve.write_pressure.admit" ~req:i (fun () ->
                Serve.Write_pressure.observe wp ~wal_bytes:0 ~depth:0 ~lag:0.;
                ignore (Serve.Write_pressure.admit wp))
          | F.Read _ -> ());
          let resp, _ = span "serve.server" ~req:i (fun () -> Serve.Server.handle_line srv3 line) in
          check "handle_line" i resp)
        ops);
  Xmldoc.Io_fault.disarm ();
  stat_levels "handle_line" (Some (fst (Serve.Server.handle_line srv3 ("STAT " ^ wname))));
  (* layers 4-5: a bare socket to the real server, pool off then on *)
  let raw_layer srv layer =
    let conn = Raw.connect srv.Proc.socket in
    Fun.protect ~finally:(fun () -> Raw.close conn) (fun () ->
        stage ("trace-" ^ layer) (fun () ->
            Array.iteri
              (fun i _ -> check layer i (span layer ~req:i (fun () -> Raw.request conn lines.(i))))
              ops);
        stat_levels layer (Some (Raw.request conn ("STAT " ^ wname))))
  in
  raw_layer s4 "serve.socket.w0";
  Proc.stop s4;
  let s5 = server 5 1 in
  raw_layer s5 "serve.socket.w1";
  Proc.stop s5;
  (* layer 6: Serve.Client, traced and then untraced for the overhead *)
  let client_layer k ~recording =
    let srv = server k 1 in
    let c = Client.create ~config:client_config [ srv.Proc.socket ] in
    let layer = if recording then "serve.client" else "serve.client.untraced" in
    Tracer.recording := recording;
    let t0 = now () in
    stage ("trace-" ^ layer) (fun () ->
        Array.iteri
          (fun i _ ->
            match span "serve.client" ~req:i (fun () -> fst (request c lines.(i))) with
            | Ok r -> check layer i r
            | Error e ->
              attempt tph;
              fail tph "%s: %s: %s" layer (clip lines.(i)) e)
          ops);
    let dt = now () -. t0 in
    Tracer.recording := true;
    stat_levels layer (Result.to_option (fst (request c ("STAT " ^ wname))));
    Client.close c;
    Proc.stop srv;
    dt
  in
  let traced_s = client_layer 6 ~recording:true in
  let untraced_s = client_layer 7 ~recording:false in
  Tracer.recording := false;
  (* every layer saw every request it serves *)
  List.iter
    (fun (layer, want) ->
      attempt tph;
      let got = Tracer.calls layer in
      if got <> want then fail tph "%s: %d spans for %d requests" layer got want)
    [
      ("core", reads); ("serve.query_exec", reads); ("serve.wal.append", nops - reads);
      ("serve.ingest.write", nops - reads); ("serve.server", nops); ("serve.socket.w0", nops);
      ("serve.socket.w1", nops); ("serve.client", nops);
    ];
  Tracer.write (Filename.concat dir "spans.tsv");
  (* ---- per-layer metrics ---- *)
  let is_kind k i = match ops.(i) with F.Read (k', _) -> k' = k | F.Write _ -> false in
  let is_read i = match ops.(i) with F.Read _ -> true | F.Write _ -> false in
  let is_write i = not (is_read i) in
  let p50 xs = Stats.median xs and p90 what xs = Stats.require what xs 0.9 in
  let ms v = 1000. *. v and us v = 1e6 *. v in
  let self ?only outer inner = Tracer.self ?only ~outer ~inner () in
  let c name = Tracer.counter name in
  let busy = Tracer.busy in
  let build_span name = Stats.sum (Tracer.durations name) in
  let pool_q = self ~only:(is_kind F.Query) "serve.socket.w1" "serve.socket.w0" in
  let pool_a = self ~only:(is_kind F.Answer) "serve.socket.w1" "serve.socket.w0" in
  let client_q = self ~only:(is_kind F.Query) "serve.client" "serve.socket.w1" in
  let client_a = self ~only:(is_kind F.Answer) "serve.client" "serve.socket.w1" in
  let cnt = "count" in
  [
    metric "core.eval.p50_ms" "ms" (ms (p50 (Tracer.durations "core.eval"))) ~n:(Tracer.calls "core.eval");
    metric "core.eval.busy_s" "s" (busy "core.eval");
    metric "core.eval.calls" cnt (float (Tracer.calls "core.eval"));
    metric "core.eval.degraded" cnt (c "core.eval.degraded");
    metric "core.eval.answer_nodes" cnt (c "core.eval.answer_nodes");
    metric "core.selectivity.busy_s" "s" (busy "core.selectivity");
    metric "core.expand.busy_s" "s" (busy "core.expand");
    metric "core.expand.tree_nodes" cnt (c "core.expand.tree_nodes");
    metric "core.expand.truncated" cnt (c "core.expand.truncated");
    metric "xml.printer.busy_s" "s" (busy "xml.printer");
    metric "xml.printer.bytes" "bytes" (c "xml.printer.bytes");
    metric "serve.query_exec.self_ms_p50" "ms" (ms (p50 (self "serve.query_exec" "core"))) ~n:reads;
    metric "serve.query_exec.levels_mean" cnt (c "serve.query_exec.levels" /. float (max 1 reads));
    metric "core.build.prune_calls" cnt (float (Tracer.calls "core.build.prune"));
    metric "core.build.prune_busy_s" "s" (busy "core.build.prune");
    metric "serve.catalog.refresh_ms_p50" "ms" (ms (p50 (Tracer.durations "serve.catalog.refresh"))) ~n:nops;
    metric "serve.catalog.level_loads" cnt (c "serve.catalog.level_loads");
    metric "serve.catalog.level_loads_per_flush" "ratio"
      (c "serve.catalog.level_loads" /. float (max 1 flushes));
    metric "serve.protocol.parse_us_p50" "us" (us (p50 (Tracer.durations "serve.protocol.parse"))) ~n:nops;
    metric "serve.server.read_self_ms_p50" "ms"
      (ms (p50 (self ~only:is_read "serve.server" "serve.query_exec"))) ~n:reads;
    metric "serve.server.write_self_ms_p50" "ms"
      (ms (p50 (self ~only:is_write "serve.server" "serve.ingest.write"))) ~n:(nops - reads);
    metric "serve.socket.self_ms_p50" "ms" (ms (p50 (self "serve.socket.w0" "serve.server"))) ~n:nops;
    metric "serve.pool.query_self_ms_p50" "ms" (ms (p50 pool_q)) ~n:(List.length pool_q);
    metric "serve.pool.answer_self_ms_p50" "ms" (ms (p50 pool_a)) ~n:(List.length pool_a);
    metric "serve.pool.answer_self_ms_p90" "ms" (ms (p90 "pool answer self" pool_a)) ~n:(List.length pool_a);
    metric "serve.client.query_self_ms_p50" "ms" (ms (p50 client_q)) ~n:(List.length client_q);
    metric "serve.client.answer_self_ms_p50" "ms" (ms (p50 client_a)) ~n:(List.length client_a);
    metric "serve.client.answer_self_ms_p90" "ms" (ms (p90 "client answer self" client_a))
      ~n:(List.length client_a);
    metric "serve.wal.append_ms_p50" "ms" (ms (p50 (Tracer.durations "serve.wal.append"))) ~n:(nops - reads);
    metric "serve.wal.append_ms_p90" "ms" (ms (p90 "wal append" (Tracer.durations "serve.wal.append")))
      ~n:(nops - reads);
    metric "serve.wal.bytes_per_user_byte" "ratio" (c "serve.wal.bytes_per_user_byte");
    metric "serve.ingest.self_ms_p50" "ms" (ms (p50 (self "serve.ingest" "serve.wal.append"))) ~n:(nops - reads);
    metric "serve.ingest.flush_ms_p50" "ms" (ms (p50 (Tracer.durations "serve.ingest.flush"))) ~n:flushes;
    metric "serve.ingest.flushes" cnt (float flushes);
    metric "serve.ingest.levels_final" cnt (c "serve.ingest.levels_final");
    metric "serve.ingest.delta_bytes" "bytes" (c "serve.ingest.delta_bytes");
    metric "serve.write_pressure.admit_us_p50" "us" (us (p50 (Tracer.durations "serve.write_pressure.admit")))
      ~n:(nops - reads);
    metric "serve.write_pressure.paced" cnt
      (float (tallied "serve.write_pressure.paced" ~source:"serve.client"));
    metric "serve.write_pressure.deferred" cnt
      (float (tallied "serve.write_pressure.deferred" ~source:"serve.client"));
    metric "xml.parser.busy_s" "s" (busy "xml.parser" +. busy "xml.parser.fragment");
    metric "xml.parser.elements" cnt (c "xml.parser.elements");
    metric "xml.parser.fragment_us_p50" "us" (us (p50 (Tracer.durations "xml.parser.fragment")))
      ~n:(Tracer.calls "xml.parser.fragment");
    metric "core.stable.busy_s" "s" (busy "core.stable");
    metric "core.stable.nodes" cnt (c "core.stable.nodes");
    metric "core.build.busy_s" "s" (build_span "core.build");
    metric "core.build.merges" cnt (c "core.build.merges");
    metric "core.build.late_merge_share" "fraction" (c "core.build.late_merge_share");
    metric "core.build.final_bytes" "bytes" (c "core.build.final_bytes");
    metric "core.serialize.checkpoints" cnt (c "core.serialize.checkpoints");
    metric "core.serialize.checkpoint_busy_s" "s"
      (build_span "core.build.checkpointed" -. build_span "core.build");
    metric "core.serialize.save_ms" "ms" (ms (build_span "core.serialize.save"));
    metric "core.serialize.load_ms" "ms" (ms (build_span "core.serialize.load"));
    metric "core.serialize.snapshot_bytes" "bytes" (c "core.serialize.snapshot_bytes");
    metric "serve.jobs.self_s" "s"
      (Option.value build_s ~default:nan -. build_span "core.build.checkpointed");
    metric "trace.overhead_share" "fraction" ((traced_s -. untraced_s) /. untraced_s);
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Self-test faults: a wrong [est=] on the first QUERY response, or the
   response to the first timed read lost on the way to the client. *)
let install_fault fault =
  let once pick change =
    let done_ = ref false in
    tamper :=
      fun r ->
        if !done_ || not (pick r) then Some r
        else begin
          done_ := true;
          change r
        end
  in
  match fault with
  | None -> ()
  | Some "wrong-est" ->
    once
      (fun r -> starts_with r "ok query ")
      (fun r ->
        match find_sub r " est=" with
        | None -> Some r
        | Some i ->
          let j = Option.value (String.index_from_opt r (i + 1) ' ') ~default:(String.length r) in
          Some (String.sub r 0 i ^ " est=123456.5" ^ String.sub r j (String.length r - j)))
  | Some "drop" -> once (fun r -> starts_with r "ok query " || starts_with r "ok answer ") (fun _ -> None)
  | Some other -> failwith ("unknown --inject fault " ^ other)

let host_line label steal0 =
  Printf.printf "host %s nproc=%d loadavg=%s steal_ticks=%d\n%!" label (Proc.nproc ())
    (Proc.loadavg ()) (Proc.steal_ticks () - steal0)

let parse_args () =
  let exe = ref "" and work = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10 and trace = ref 0 and inject = ref "" in
  let spec =
    [
      ("--exe", Arg.Set_string exe, "PATH treesketch binary");
      ("--work", Arg.Set_string work, "DIR working directory");
      ("--workload", Arg.Set_string workload, "NAME read-xmark | live-imdb");
      ("--seed", Arg.Set_int seed, "N request-sequence seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer replay");
      ("--inject", Arg.Set_string inject, "FAULT self-test: wrong-est | drop");
    ]
  in
  let usage = "perfbench --exe PATH --work DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match workload_of_string !workload with
  | Some w when !exe <> "" && !work <> "" && !seconds >= 1 ->
    {
      exe = !exe;
      work = !work;
      workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      inject = (if !inject = "" then None else Some !inject);
    }
  | _ ->
    prerr_endline usage;
    exit 2

let () =
  let args = parse_args () in
  (match Proc.stray_servers () with
  | [] -> ()
  | pids ->
    Printf.eprintf
      "perfbench: refusing to start: treesketch serve from an earlier run still alive (pid %s)\n"
      (String.concat "," (List.map string_of_int pids));
    exit 3);
  let bail _ =
    Proc.stop_all ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  at_exit Proc.stop_all;
  mkdir_p args.work;
  Unix.chdir args.work;
  let args = { args with work = "." } in
  install_fault args.inject;
  let steal0 = Proc.steal_ticks () in
  host_line "start" 0;
  let metrics =
    match
      if args.trace then traced args
      else
        end_to_end
          (match args.workload with
          | Live_imdb -> run_live args
          | Read_xmark -> run_reads args)
    with
    | m -> m
    | exception e ->
      Proc.stop_all ();
      let ph = phase "run" in
      attempt ph;
      fail ph "%s" (Printexc.to_string e);
      []
  in
  Proc.stop_all ();
  (* documents, catalogs and sockets go; server logs and spans stay *)
  List.iter (Proc.tidy ~keep:[ "server.log"; "spans.tsv" ]) [ "run"; "trace" ];
  host_line "end" steal0;
  check_repeats ();
  exit (if emit ~trace:args.trace metrics && metrics <> [] then 0 else 1)
