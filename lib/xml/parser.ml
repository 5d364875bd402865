exception Error of { line : int; column : int; message : string }

(* Hand-rolled scanner over a string.  Position tracking is maintained
   lazily: we record only the byte offset and recover line/column when
   raising.  Element structure is parsed with an explicit stack (not
   recursive descent) so nesting depth is bounded by [Limits.max_depth],
   never by the OCaml call stack. *)

type state = {
  src : string;
  mutable pos : int;
  limits : Limits.t;
  mutable elements : int;
  start : float;
}

let position st upto =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min upto (String.length st.src) - 1 do
    if st.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let fail st message =
  let line, column = position st st.pos in
  raise (Error { line; column; message })

let limit_fail what actual limit =
  raise (Fault.Fault (Limit_exceeded { what; actual; limit }))

let eof st = st.pos >= String.length st.src

let peek st = st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 128

let is_name_char c =
  is_name_start c
  || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let expect st c =
  if eof st || peek st <> c then
    fail st (Printf.sprintf "expected %C" c)
  else advance st

let scan_name st =
  if eof st || not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Skip until the terminator string [stop] is found (inclusive). *)
let skip_until st stop =
  let n = String.length stop in
  let limit = String.length st.src - n in
  let rec search i =
    if i > limit then fail st (Printf.sprintf "unterminated construct, expected %S" stop)
    else if String.sub st.src i n = stop then st.pos <- i + n
    else search (i + 1)
  in
  search st.pos

(* Attributes: name = "value" | name = 'value'.  Values are discarded. *)
let skip_attributes st =
  let rec loop () =
    skip_spaces st;
    if eof st then fail st "unterminated start tag"
    else
      match peek st with
      | '>' | '/' -> ()
      | _ ->
        let _name = scan_name st in
        skip_spaces st;
        if (not (eof st)) && peek st = '=' then begin
          advance st;
          skip_spaces st;
          (match if eof st then '\000' else peek st with
          | ('"' | '\'') as quote ->
            advance st;
            (try
               while peek st <> quote do
                 advance st
               done
             with Invalid_argument _ -> fail st "unterminated attribute value");
            advance st
          | _ -> fail st "expected a quoted attribute value")
        end;
        loop ()
  in
  loop ()

(* Skip non-element content between tags: text, comments, CDATA and
   processing instructions.  Returns when positioned at a '<' that opens
   an element start/end tag, or at end of input.  Iterative: a run of a
   million consecutive comments must not consume stack. *)
let skip_misc st =
  let continue_ = ref true in
  while !continue_ do
    while (not (eof st)) && peek st <> '<' do
      advance st
    done;
    if eof st || st.pos + 1 >= String.length st.src then continue_ := false
    else
      match st.src.[st.pos + 1] with
      | '!' ->
        if
          st.pos + 3 < String.length st.src
          && String.sub st.src st.pos 4 = "<!--"
        then begin
          st.pos <- st.pos + 4;
          skip_until st "-->"
        end
        else if
          st.pos + 8 < String.length st.src
          && String.sub st.src st.pos 9 = "<![CDATA["
        then begin
          st.pos <- st.pos + 9;
          skip_until st "]]>"
        end
        else begin
          (* DOCTYPE or other declaration: skip to the matching '>'.
             Internal subsets in brackets are handled by nesting count. *)
          let depth = ref 0 in
          (try
             while
               not (peek st = '>' && !depth = 0)
             do
               (match peek st with
               | '[' -> incr depth
               | ']' -> decr depth
               | _ -> ());
               advance st
             done
           with Invalid_argument _ -> fail st "unterminated declaration");
          advance st
        end
      | '?' ->
        st.pos <- st.pos + 2;
        skip_until st "?>"
      | _ -> continue_ := false
  done

(* One frame per open element; [children] accumulates in reverse. *)
type frame = {
  name : string;
  mutable children : Tree.t list;
}

let budget_element st =
  st.elements <- st.elements + 1;
  if st.elements > st.limits.Limits.max_elements then
    limit_fail "elements" st.elements st.limits.Limits.max_elements;
  if st.elements land 511 = 0 && Limits.expired st.limits then
    raise
      (Fault.Fault
         (Deadline { stage = "XML parse"; elapsed = Limits.now () -. st.start }))

(* Parse the document's single element tree, positioned at its '<'.
   Explicit-stack loop: the outer iteration consumes one start tag (or
   self-closing element), the inner one pops any run of close tags. *)
let parse_document st =
  let stack = ref [] in
  let depth = ref 0 in
  let finished = ref None in
  let complete tree =
    match !stack with
    | [] -> finished := Some tree
    | f :: _ -> f.children <- tree :: f.children
  in
  while !finished = None do
    (* positioned at the '<' of a start tag *)
    expect st '<';
    let name = scan_name st in
    skip_attributes st;
    if eof st then fail st "unterminated start tag";
    budget_element st;
    if peek st = '/' then begin
      advance st;
      expect st '>';
      complete (Tree.leaf (Label.of_string name))
    end
    else begin
      expect st '>';
      stack := { name; children = [] } :: !stack;
      incr depth;
      if !depth > st.limits.Limits.max_depth then
        limit_fail "depth" !depth st.limits.Limits.max_depth
    end;
    (* pop close tags until the next start tag, or the root closes *)
    let scanning = ref true in
    while !scanning && !finished = None do
      skip_misc st;
      match !stack with
      | [] -> assert false (* [complete] on the root sets [finished] *)
      | f :: rest ->
        if eof st then fail st (Printf.sprintf "missing </%s>" f.name)
        else if st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '/'
        then begin
          st.pos <- st.pos + 2;
          let close = scan_name st in
          if close <> f.name then
            fail st
              (Printf.sprintf "mismatched tags: <%s> closed by </%s>" f.name close);
          skip_spaces st;
          expect st '>';
          stack := rest;
          decr depth;
          complete (Tree.make (Label.of_string f.name) (List.rev f.children))
        end
        else scanning := false
    done
  done;
  Option.get !finished

let of_string_res ?(limits = Limits.default) src =
  if String.length src > limits.Limits.max_bytes then
    Stdlib.Error
      (Fault.Limit_exceeded
         { what = "bytes"; actual = String.length src; limit = limits.Limits.max_bytes })
  else begin
    let st = { src; pos = 0; limits; elements = 0; start = Limits.now () } in
    match
      skip_misc st;
      if eof st then fail st "no root element";
      let root = parse_document st in
      skip_misc st;
      if not (eof st) then fail st "content after the root element";
      root
    with
    | root -> Ok root
    | exception Error { line; column; message } ->
      Stdlib.Error (Fault.Parse_error { line; column; message })
    | exception Fault.Fault f -> Stdlib.Error f
  end

let raise_fault = function
  | Fault.Parse_error { line; column; message } ->
    raise (Error { line; column; message })
  | f -> raise (Fault.Fault f)

let of_string ?limits src =
  match of_string_res ?limits src with
  | Ok t -> t
  | Stdlib.Error f -> raise_fault f

let of_file_res ?limits path =
  Result.bind (Io_fault.read_file ?limits path) (of_string_res ?limits)

let of_file ?limits path =
  match of_file_res ?limits path with
  | Ok t -> t
  | Stdlib.Error (Fault.Io_error { message; _ }) -> raise (Sys_error message)
  | Stdlib.Error f -> raise_fault f

let error_to_string = function
  | Error { line; column; message } ->
    Some (Fault.to_string (Parse_error { line; column; message }))
  | Fault.Fault f -> Some (Fault.to_string f)
  | _ -> None
