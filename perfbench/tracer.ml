(* In-memory spans for the traced run.

   A span is one call through one layer's public entry point: a name,
   start and end, the enclosing span and the request id it served.
   Spans stay in memory while the replay runs and are written out when
   it ends, so recording costs a clock read and a cons per call.
   Counters are recorded at the same boundaries. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** enclosing span id, -1 at top level *)
  t0 : float;
  t1 : float;
}

let recording = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  next_id := 0;
  open_ids := [];
  Hashtbl.reset counters

let span name ~req f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      spans := { id; name; req; parent; t0; t1 } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let count name v =
  if !recording then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

let named name = List.filter (fun s -> s.name = name) !spans
let calls name = List.length (named name)
let durations name = List.map (fun s -> s.t1 -. s.t0) (named name)
let busy name = Stats.sum (durations name)

(* Total time under [name] per request id (a request may make several
   calls, e.g. one evaluation per level). *)
let per_req name =
  let h = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace h s.req
        (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt h s.req) ~default:0.))
    (named name);
  h

(* Per-request self time of layer [outer] over layer [inner]: for each
   request both layers served, outer minus inner. *)
let self ?(only = fun _ -> true) ~outer ~inner () =
  let o = per_req outer and i = per_req inner in
  Hashtbl.fold
    (fun req t acc ->
      match Hashtbl.find_opt i req with
      | Some ti when only req -> (t -. ti) :: acc
      | _ -> acc)
    o []

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tname\treq\tparent\tstart\tend\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\n" s.id s.name s.req
            s.parent s.t0 s.t1)
        (List.rev !spans))
