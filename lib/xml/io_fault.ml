type site =
  | Read
  | Write
  | Open
  | Close
  | Stat
  | Accept
  | Connect
  | Fsync
  | Rename
  | Fork

let site_name = function
  | Read -> "read"
  | Write -> "write"
  | Open -> "open"
  | Close -> "close"
  | Stat -> "stat"
  | Accept -> "accept"
  | Connect -> "connect"
  | Fsync -> "fsync"
  | Rename -> "rename"
  | Fork -> "fork"

type fault =
  | Eintr
  | Eio
  | Enospc
  | Eagain
  | Short
  | Short_at of int
  | Delay of float

type rule = {
  site : site;
  fault : fault;
  prob : float;
  limit : int;
  path_substring : string option;
}

let rule ?(prob = 1.0) ?(limit = max_int) ?path site fault =
  { site; fault; prob; limit; path_substring = path }

type armed_rule = { r : rule; mutable fired : int }

type plan = {
  rng : Random.State.t;
  rules : armed_rule list;
  plan_seed : int;
  mutable total : int;
}

(* One global plan behind one mutex: the serving runtime taps from
   several threads, and determinism requires every draw to come from
   the single seeded state in a serialized order. *)
let lock = Mutex.create ()

let active : plan option ref = ref None

let arm ?(seed = 0) rules =
  Mutex.protect lock (fun () ->
      active :=
        Some
          {
            rng = Random.State.make [| seed |];
            rules = List.map (fun r -> { r; fired = 0 }) rules;
            plan_seed = seed;
            total = 0;
          })

let disarm () = Mutex.protect lock (fun () -> active := None)

let armed () = !active <> None

let seed () =
  Mutex.protect lock (fun () ->
      match !active with Some p -> Some p.plan_seed | None -> None)

let injected () =
  Mutex.protect lock (fun () ->
      match !active with Some p -> p.total | None -> 0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let applies ar site path =
  ar.r.site = site
  && ar.fired < ar.r.limit
  && match ar.r.path_substring with
     | None -> true
     | Some sub -> contains path sub

(* What one tap/cap decided to do.  Decisions are taken under the lock
   (the rng draw must be serialized); sleeping and raising happen
   outside it. *)
type action =
  | Raise of Unix.error
  | Sleep of float
  | Cut of int

let draw plan site path ~want_cut ~len =
  let actions = ref [] in
  List.iter
    (fun ar ->
      if applies ar site path && Random.State.float plan.rng 1.0 < ar.r.prob then begin
        let act =
          match ar.r.fault with
          | Eintr -> Some (Raise Unix.EINTR)
          | Eio -> Some (Raise Unix.EIO)
          | Enospc -> Some (Raise Unix.ENOSPC)
          | Eagain -> Some (Raise Unix.EAGAIN)
          | Delay s -> Some (Sleep s)
          | Short ->
            if want_cut && len > 0 then Some (Cut (Random.State.int plan.rng len))
            else None
          | Short_at n -> if want_cut then Some (Cut (min (max n 0) len)) else None
        in
        match act with
        | Some a ->
          ar.fired <- ar.fired + 1;
          plan.total <- plan.total + 1;
          actions := a :: !actions
        | None -> ()
      end)
    plan.rules;
  List.rev !actions

let decide site ~path ~want_cut ~len =
  Mutex.protect lock (fun () ->
      match !active with
      | None -> []
      | Some plan -> draw plan site path ~want_cut ~len)

(* Delays apply before a raise (the slow failing disk); the first
   raising rule wins; cuts only matter to [cap]. *)
let run_actions site ~path actions =
  List.iter (function Sleep s -> Unix.sleepf s | Raise _ | Cut _ -> ()) actions;
  List.iter
    (function
      | Raise e -> raise (Unix.Unix_error (e, site_name site, path))
      | Sleep _ | Cut _ -> ())
    actions

let tap site ~path =
  if !active <> None then
    run_actions site ~path (decide site ~path ~want_cut:false ~len:0)

let tap_retrying site ~path =
  if !active <> None then begin
    let rec go tries =
      match tap site ~path with
      | () -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) when tries > 0 ->
        go (tries - 1)
    in
    go 10
  end

let cap site ~path len =
  if !active = None then len
  else begin
    let actions = decide site ~path ~want_cut:true ~len in
    run_actions site ~path actions;
    List.fold_left
      (fun acc a -> match a with Cut n -> min acc n | Raise _ | Sleep _ -> acc)
      len actions
  end

let read_file ?(limits = Limits.default) path =
  match
    tap_retrying Open ~path;
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        if len > limits.Limits.max_bytes then
          Error
            (Fault.Limit_exceeded
               { what = "bytes"; actual = len; limit = limits.Limits.max_bytes })
        else begin
          tap_retrying Read ~path;
          (* an injected short read observes a prefix, as a file caught
             mid-write would: every caller's parser or checksum must
             reject it, never accept it partially *)
          Ok (really_input_string ic (cap Read ~path len))
        end)
  with
  | result -> result
  | exception Sys_error message -> Error (Fault.Io_error { path; message })
  | exception End_of_file ->
    Error (Fault.Io_error { path; message = "unexpected end of file" })
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Fault.Io_error { path; message = fn ^ ": " ^ Unix.error_message e })
