(* Minimal fixed-width table rendering for the benchmark reports. *)

let rule width = print_endline (String.make width '-')

let header title =
  print_newline ();
  rule 78;
  Printf.printf "%s\n" title;
  rule 78

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let row cells widths =
  List.iter2 (fun cell w -> Printf.printf "%-*s" w cell) cells widths;
  print_newline ()

let table ~columns ~widths rows =
  row columns widths;
  rule (List.fold_left ( + ) 0 widths);
  List.iter (fun r -> row r widths) rows

let seconds t = Printf.sprintf "%.1fs" t

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let avg = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* answers an embedding search cut short ({!Sketch.Eval.answer.degraded}) *)
let degraded answers =
  List.length (List.filter (fun (a : Sketch.Eval.answer) -> a.degraded) answers)
