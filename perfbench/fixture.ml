(* Benchmark inputs: documents, query workloads, request sequences and
   the reference model of the live workload.

   The documents and their §6.1 query workloads are fixed per data set,
   generated exactly as the figure benches do (document seed 7,
   workload seed 8, 200 positive queries, the first 60 scored for
   ESD) — they play the part of the paper's fixed data sets.  The run's
   [--seed] draws everything a client controls: the request order of
   every pass, which queries a live run reads, and the whole write
   stream (fragments of a second, seeded IMDB document, the paths its
   deletes and updates target, and where they fall). *)

module Tree = Xmldoc.Tree
module Label = Xmldoc.Label

let doc_seed = 7
let query_seed = 8
let n_queries = 200
let esd_queries = 60
let budget = "32KB"

(* TX scales of bench/config.ml ([tx_scales]). *)
type dataset = {
  ds : Datagen.Datasets.dataset;
  scale : float;
  name : string;  (** catalog name of the synopsis *)
}

let xmark = { ds = Datagen.Datasets.Xmark; scale = 9.0; name = "xmark" }
let imdb = { ds = Datagen.Datasets.Imdb; scale = 3.0; name = "imdb" }

type t = {
  data : dataset;
  doc : Tree.t;
  xml_path : string;  (** absolute path of the document on disk *)
  queries : Twig.Syntax.t array;
  query_text : string array;
}

let make data ~dir =
  let doc = Datagen.Datasets.generate ~seed:doc_seed ~scale:data.scale data.ds in
  let xml_path = Filename.concat dir (data.name ^ ".xml") in
  Xmldoc.Printer.to_file xml_path doc;
  (* on disk before anything is timed: the document's writeback must
     not land in the measured phase, where every write ack waits for
     an fsync of the same file system *)
  List.iter
    (fun path ->
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd))
    [ xml_path; dir ];
  let stable = Sketch.Stable.build doc in
  let queries =
    Array.of_list (Workload.positive ~seed:query_seed ~n:n_queries stable)
  in
  { data; doc; xml_path; queries; query_text = Array.map Twig.Syntax.to_string queries }

(* ---- requests ---- *)

type kind = Serve.Query_exec.kind =
  | Query
  | Answer

type write =
  | Ingest of string
  | Delete of string
  | Update of string * string

type op =
  | Read of kind * int  (** query index *)
  | Write of write

let read_line t ~name kind q =
  Printf.sprintf "%s %s %s"
    (match kind with Query -> "QUERY" | Answer -> "ANSWER")
    name t.query_text.(q)

let write_line ~name = function
  | Ingest xml -> Printf.sprintf "INGEST %s %s" name xml
  | Delete path -> Printf.sprintf "DELETE %s %s" name path
  | Update (path, xml) -> Printf.sprintf "UPDATE %s %s %s" name path xml

let line t ~name = function
  | Read (kind, q) -> read_line t ~name kind q
  | Write w -> write_line ~name w

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* One pass of a read workload: every query once as QUERY and once as
   ANSWER, in an order drawn from (seed, pass). *)
let pass ~seed ~pass n =
  shuffle
    (Random.State.make [| seed; pass; 0x9a55 |])
    (Array.init (2 * n) (fun i -> ((if i < n then Query else Answer), i mod n)))

(* The write stream: one-line movie/tvseries fragments of an IMDB
   document generated from the run's seed.  One write in ten is a
   DELETE or UPDATE of a [fragment/child] label path. *)
let writes ~seed n =
  let doc =
    Datagen.Datasets.generate ~seed:(seed + 1000) ~scale:(Float.max 1.0 (float n /. 1000.))
      Datagen.Datasets.Imdb
  in
  let frags = Tree.children doc in
  let rng = Random.State.make [| seed; 0x3a7e |] in
  let next = ref 0 in
  let take () =
    let f = frags.(!next mod Array.length frags) in
    incr next;
    Serve.Protocol.one_line (Xmldoc.Printer.to_string f)
  in
  let path () =
    let f = frags.(Random.State.int rng (Array.length frags)) in
    let kids = Tree.children f in
    let child =
      if Array.length kids = 0 then Tree.label f
      else Tree.label kids.(Random.State.int rng (Array.length kids))
    in
    Label.to_string (Tree.label f) ^ "/" ^ Label.to_string child
  in
  Array.init n (fun k ->
      if k mod 10 = 9 then
        if k / 10 mod 2 = 0 then Delete (path ())
        else
          let p = path () in
          Update (p, take ())
      else Ingest (take ()))

(* The live workload: [ops] requests on one connection, about 3 reads
   to 1 write, reads 3 QUERY to 1 ANSWER.  Each kind of read walks
   seeded permutations of the whole query workload, so every run reads
   (nearly) the same multiset of queries, in its own order. *)
let live ~seed ~ops ~n_queries =
  let ws = writes ~seed ((ops + 3) / 4) in
  let rng = Random.State.make [| seed; 0x11fe |] in
  let walk () =
    let order = ref [||] and pos = ref 0 in
    fun () ->
      if !pos >= Array.length !order then begin
        order := shuffle rng (Array.init n_queries Fun.id);
        pos := 0
      end;
      incr pos;
      !order.(!pos - 1)
  in
  let next_query = walk () and next_answer = walk () in
  let w = ref 0 and r = ref 0 in
  Array.init ops (fun k ->
      if k mod 4 = 3 then begin
        let x = ws.(!w) in
        incr w;
        Write x
      end
      else begin
        incr r;
        if !r mod 4 = 0 then Read (Answer, next_answer ()) else Read (Query, next_query ())
      end)

(* ---- the reference model of a live run ----

   The base document plus every inserted fragment in sequence order,
   with each DELETE/UPDATE pruning the fragments inserted before it
   ([a/b] removes every [b] child of an [a]-rooted fragment; [a] alone
   removes the fragment).  The base is never masked. *)

let parse_path p = List.map Label.of_string (String.split_on_char '/' p)

let rec prune labels tree =
  match labels with
  | [] -> Some tree
  | [ l ] -> if Label.equal (Tree.label tree) l then None else Some tree
  | l :: rest ->
    if Label.equal (Tree.label tree) l then
      Some
        (Tree.make (Tree.label tree)
           (List.filter_map (prune rest) (Array.to_list (Tree.children tree))))
    else Some tree

let parse_fragment xml =
  match Xmldoc.Parser.of_string_res xml with
  | Ok t -> t
  | Error f -> failwith ("write-stream fragment: " ^ Xmldoc.Fault.to_string f)

(* [frags] newest first. *)
let model_apply frags = function
  | Ingest xml -> parse_fragment xml :: frags
  | Delete p -> List.filter_map (prune (parse_path p)) frags
  | Update (p, xml) ->
    parse_fragment xml :: List.filter_map (prune (parse_path p)) frags

let model_doc base writes =
  let frags = List.fold_left model_apply [] writes in
  Tree.make (Tree.label base) (Array.to_list (Tree.children base) @ List.rev frags)
