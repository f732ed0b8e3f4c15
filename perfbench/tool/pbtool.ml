(* The benchmark's in-process helper: input generation, reference
   answers, and the traced per-layer run. perfbench/run.py drives it;
   see perfbench/README.md. *)

let usage =
  "pbtool gen WORKLOAD --seed N [--round R] --out DIR\n\
   pbtool refjobs WORKLOAD --out DIR\n\
   pbtool refs --engine naive|delta --cache DIR < JOBS\n\
   pbtool trace WORKLOAD --seed N --out DIR --spans FILE --workers W --job K"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name args =
    match opt name args with
    | Some v -> v
    | None -> prerr_endline usage; exit 124
  in
  let int_opt name args d =
    match opt name args with Some v -> int_of_string v | None -> d
  in
  let read_stdin_lines () =
    let rec go acc =
      match input_line stdin with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  match args with
  | "gen" :: workload :: rest ->
      print_endline
        (Gen.manifest ~workload ~seed:(int_of_string (req "--seed" rest))
           ~round:(int_opt "--round" rest 0) ~out:(req "--out" rest))
  | "refjobs" :: workload :: rest ->
      let out = req "--out" rest in
      Inputs.mkdir_p out;
      List.iter
        (fun (s, i) -> Printf.printf "%s\t%s\n" s i)
        (Gen.ref_jobs workload ~out)
  | "refs" :: rest ->
      Refs.main ~engine_id:(req "--engine" rest) ~cache:(req "--cache" rest)
        ~jobs:(read_stdin_lines ())
  | "trace" :: workload :: rest ->
      Trace.main ~workload ~seed:(int_of_string (req "--seed" rest))
        ~out:(req "--out" rest) ~spans_path:(req "--spans" rest)
        ~workers:(int_of_string (req "--workers" rest))
        ~job:(int_of_string (req "--job" rest))
  | _ -> prerr_endline usage; exit 124
