(* Server processes and host context.

   Every server the benchmark starts is registered here and drained on
   every exit path: SIGTERM (the server's graceful drain), a bounded
   wait, SIGKILL as the last resort, then every descendant it had —
   pool workers, BUILD job children — is waited out too. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          match input ic chunk 0 4096 with
          | 0 -> Some (Buffer.contents buf)
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Sys_error _ -> Some (Buffer.contents buf)
        in
        go ())

let proc_pids () =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries -> List.filter_map int_of_string_opt (Array.to_list entries)

(* Fields after the parenthesised command name of /proc/<pid>/stat:
   state is field 0, ppid field 1. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
      Some
        (String.split_on_char ' '
           (String.trim (String.sub s (i + 1) (String.length s - i - 1)))))

let alive pid =
  match stat_fields pid with
  | Some (state :: _) -> state <> "Z" && state <> "X"
  | _ -> false

let parent pid =
  match stat_fields pid with
  | Some (_ :: ppid :: _) -> int_of_string_opt ppid
  | _ -> None

let descendants root =
  let all = proc_pids () in
  let rec grow acc frontier =
    match frontier with
    | [] -> acc
    | _ ->
      let next =
        List.filter
          (fun p ->
            (not (List.mem p acc))
            && match parent p with Some pp -> List.mem pp frontier | None -> false)
          all
      in
      grow (acc @ next) next
  in
  grow [] [ root ]

let cmdline pid =
  match read_file (Printf.sprintf "/proc/%d/cmdline" pid) with
  | None -> []
  | Some s -> List.filter (fun a -> a <> "") (String.split_on_char '\000' s)

(* A [treesketch serve] still alive from an earlier run steals a core
   from every later one on a small host. *)
let stray_servers () =
  let self = Unix.getpid () in
  List.filter
    (fun pid ->
      pid <> self && alive pid
      &&
      match cmdline pid with
      | exe :: "serve" :: _ ->
        let base = Filename.basename exe in
        base = "treesketch" || base = "treesketch.exe"
      | _ -> false)
    (proc_pids ())

let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match String.split_on_char ' ' rest with
          | v :: _ -> Option.value (int_of_string_opt v) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

let sleep s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_gone ?(timeout = 10.) pid =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    if not (alive pid) then true
    else if Unix.gettimeofday () > give_up then false
    else (
      sleep 0.01;
      go ())
  in
  go ()

type server = {
  pid : int;
  socket : string;
  catalog : string;
  mutable stopped : bool;
}

let live : server list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Drain one server: SIGTERM, wait for its exit (SIGKILL after 20 s),
   then make sure none of its children outlives it. *)
let stop srv =
  if not srv.stopped then begin
    srv.stopped <- true;
    let kids = descendants srv.pid in
    kill_quietly srv.pid Sys.sigterm;
    let give_up = Unix.gettimeofday () +. 20. in
    let rec wait () =
      if reap srv.pid then ()
      else if Unix.gettimeofday () > give_up then begin
        kill_quietly srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid)
      end
      else (
        sleep 0.005;
        wait ())
    in
    (try wait () with Unix.Unix_error _ -> ());
    List.iter
      (fun k ->
        if not (wait_gone ~timeout:5. k) then begin
          kill_quietly k Sys.sigkill;
          ignore (wait_gone ~timeout:5. k)
        end)
      kids;
    live := List.filter (fun s -> s != srv) !live
  end

let stop_all () = List.iter stop !live

(* Remove everything under [path] except files named in [keep]. *)
let rec tidy ?(keep = []) path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> tidy ~keep (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ ->
    if not (List.mem (Filename.basename path) keep) then
      try Unix.unlink path with Unix.Unix_error _ -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.lstat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

let ping socket =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error _ -> false
        | () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try
             output_string oc "PING\n";
             flush oc;
             input_line ic = "pong"
           with Sys_error _ | End_of_file -> false))

(* Start [exe serve] over [catalog] on a Unix socket with [workers]
   pool workers; returns once it answers PING. *)
let start ~exe ~catalog ~socket ~log ~workers =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [|
      exe; "serve"; "--catalog"; catalog; "--socket"; socket; "--workers";
      string_of_int workers; "--deadline"; "0"; "--compact-levels"; "0";
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process exe args null logfd logfd in
  Unix.close null;
  Unix.close logfd;
  let srv = { pid; socket; catalog; stopped = false } in
  live := srv :: !live;
  let give_up = Unix.gettimeofday () +. 30. in
  let rec await () =
    if ping socket then ()
    else if reap pid then begin
      srv.stopped <- true;
      failwith (Printf.sprintf "server exited during start-up (see %s)" log)
    end
    else if Unix.gettimeofday () > give_up then
      failwith "server did not answer PING within 30 s"
    else (
      sleep 0.002;
      await ())
  in
  await ();
  srv

(* Peak resident set of the server plus its live descendants (the pool
   worker), MB. *)
let peak_rss_mb srv =
  let kb =
    List.fold_left
      (fun acc p -> acc + status_kb p "VmHWM")
      0
      (srv.pid :: descendants srv.pid)
  in
  float kb /. 1024.

(* ---- host context: diagnostics printed beside each run ---- *)

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with a :: _ -> a | [] -> "?")
  | None -> "?"

(* Aggregate steal ticks from /proc/stat (the 8th cpu column). *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> 0
  | Some s -> (
    match String.split_on_char '\n' s with
    | first :: _ -> (
      match List.filter (fun f -> f <> "") (String.split_on_char ' ' first) with
      | "cpu" :: fields when List.length fields >= 8 ->
        Option.value (int_of_string_opt (List.nth fields 7)) ~default:0
      | _ -> 0)
    | [] -> 0)

let nproc () = Domain.recommended_domain_count ()
