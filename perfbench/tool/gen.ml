(* [pbtool gen]: write a workload's input files and its manifest. The
   manifest is JSON; every spec in it is relative to the output
   directory, where structcast is run. *)

open Inputs

let q = Core.Report.quote

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let pair (spec, inst) = Printf.sprintf "[%s,%s]" (q spec) (q inst)

let write_cgen out name ~n ~seed =
  let path = Filename.concat out name in
  if not (Sys.file_exists path) then write_file path (cgen ~n ~seed);
  name

let cold_round ~seed r =
  Array.to_list
    (shuffle (rng seed (Printf.sprintf "cold/%d" r)) (Array.of_list cold_jobs))

let write_cold out =
  List.map
    (fun n ->
      (write_cgen out (Printf.sprintf "cold-%d.c" n) ~n ~seed:program_seed, n))
    cold_sizes

let cold ~seed ~out =
  let files = write_cold out in
  let rounds = List.init max_rounds (cold_round ~seed) in
  Printf.sprintf "{\"files\":%s,\"rounds\":%s}"
    (json_list
       (fun (spec, n) -> Printf.sprintf "{\"spec\":%s,\"size\":%d}" (q spec) n)
       files)
    (json_list (json_list pair) rounds)

(* The script of session [s] in round [round]. *)
let session_script ~seed ~round ~base s inst =
  if inst = known_defect_instance then
    edit_script ~seed:known_defect_script_seed ~n:0 ~session:s base
  else
    let pass = rng seed (Printf.sprintf "edit-pool/%d" (round / edit_pool)) in
    let slots = shuffle pass (Array.init edit_pool Fun.id) in
    edit_script ~seed:program_seed ~n:slots.(round mod edit_pool) ~session:s base

let edit ~seed ~round ~out =
  let base = cgen ~n:edit_size ~seed:program_seed in
  write_file (Filename.concat out "edit-base.c") base;
  let sessions =
    List.mapi
      (fun s inst ->
        mkdir_p (Filename.concat out (Printf.sprintf "r%d/s%d" round s));
        let versions =
          List.mapi
            (fun k (kind, src) ->
              let spec = version_path ~round ~session:s k in
              write_file (Filename.concat out spec) src;
              Printf.sprintf "{\"spec\":%s,\"kind\":%s}" (q spec)
                (q (kind_name kind)))
            (session_script ~seed ~round ~base s inst)
        in
        Printf.sprintf "{\"instance\":%s,\"known_defect\":%b,\"versions\":[%s]}"
          (q inst) (inst = known_defect_instance) (String.concat "," versions))
      instances
  in
  Printf.sprintf "{\"base\":\"edit-base.c\",\"sessions\":[%s]}"
    (String.concat "," sessions)

(* The request pools. Everything here is fixed by the program seed, so
   the naive-engine references computed for it stay valid across runs. *)
let serve_pools ~out =
  (* Cgen files first, smallest first, so each larger one can
     warm-start from a cached ancestor and the fleet's last busy
     moments are the corpus's short jobs *)
  let setup =
    List.concat_map
      (fun n ->
        let spec =
          write_cgen out (Printf.sprintf "base-%d.c" n) ~n ~seed:program_seed
        in
        List.map (fun i -> (spec, i)) instances)
      serve_base_sizes
    @ List.concat_map
        (fun (p : Suite.program) -> List.map (fun i -> (p.Suite.name, i)) instances)
        Suite.programs
  in
  let base =
    read_file (Filename.concat out (Printf.sprintf "base-%d.c" variant_base))
  in
  let variants =
    List.concat
      (List.init variant_pool (fun v ->
           let spec = Printf.sprintf "variant-%02d.c" v in
           let path = Filename.concat out spec in
           if not (Sys.file_exists path) then
             write_file path
               (additive_variant ~seed:program_seed ~idx:v base);
           List.map (fun i -> (spec, i)) instances))
  in
  let fresh =
    List.concat
      (List.init fresh_pool (fun f ->
           let spec =
             write_cgen out (Printf.sprintf "fresh-%02d.c" f) ~n:fresh_size
               ~seed:(program_seed + 1 + f)
           in
           List.map (fun i -> (spec, i)) instances))
  in
  (setup, variants, fresh)

(* The timed blocks; see [Inputs.serve_blocks]. *)
let serve_rounds ~seed ~out =
  let setup, variants, fresh = serve_pools ~out in
  let r = rng seed "serve" in
  let per_file = List.length instances in
  let files pool =
    Array.of_list (List.map fst (List.filteri (fun i _ -> i mod per_file = 0) pool))
  in
  let variants = shuffle r (files variants) and fresh = shuffle r (files fresh) in
  let deal pool k kind =
    List.concat
      (List.init block_files (fun j ->
           List.map (fun i -> (pool.((k * block_files) + j), i, kind)) instances))
  in
  List.init serve_blocks (fun k ->
      Array.to_list
        (shuffle r
           (Array.of_list
              (List.map (fun (s, i) -> (s, i, "hit")) setup
              @ deal variants k "variant"
              @ deal fresh k "fresh"))))

let serve ~seed ~out =
  let setup, _, _ = serve_pools ~out in
  Printf.sprintf "{\"setup\":%s,\"traced_blocks\":%d,\"rounds\":%s}"
    (json_list pair setup) traced_blocks
    (json_list
       (json_list (fun (s, i, k) ->
            Printf.sprintf "[%s,%s,%s]" (q s) (q i) (q k)))
       (serve_rounds ~seed ~out))

(* Every (spec, instance) whose answer the workload checks against a
   naive-engine reference. *)
let ref_jobs workload ~out =
  match workload with
  | "cold-scale" ->
      ignore (write_cold out);
      cold_jobs
  | "serve-mix" ->
      let setup, variants, fresh = serve_pools ~out in
      setup @ variants @ fresh
  | w -> failwith ("no reference set for workload " ^ w)

let manifest ~workload ~seed ~round ~out =
  mkdir_p out;
  match workload with
  | "cold-scale" -> cold ~seed ~out
  | "edit-stream" -> edit ~seed ~round ~out
  | "serve-mix" -> serve ~seed ~out
  | w -> failwith ("unknown workload " ^ w)
