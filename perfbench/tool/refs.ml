(* [pbtool refs]: reference answers, computed in-process apart from the
   binary under test.

   A job line is [spec TAB instance]; a spec is a file relative to the
   working directory or an embedded corpus program. The answer line is
   [spec TAB instance TAB json], where json is the stats-free report
   ([Report.json_of_result ~timing:false ~solver_stats:false]): the
   fields that are a pure function of the fixpoint.

   With [--engine naive] the reference comes from the reference
   worklist, and is accepted only when the concrete interpreter's
   pointer observations are all covered by it. With [--engine delta]
   it is a plain from-scratch analysis (the edit-stream reference).

   References are kept in the cache directory under a key that digests
   this executable, the engine, the instance and the source text; an
   entry whose recorded key does not match is refused and recomputed. *)

let self_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let compute ~engine ~oracle ~name ~instance source =
  let strategy = Inputs.strategy_of instance in
  let diags = Cfront.Diag.create () in
  let prog = Norm.Lower.compile ~diags ~file:name source in
  let r = Core.Analysis.run ~engine ~strategy prog in
  let r = { r with Core.Analysis.diags = Cfront.Diag.diagnostics diags } in
  (if oracle then
     let obs = Interp.Eval.run prog in
     match Interp.Oracle.uncovered r.Core.Analysis.solver obs with
     | [] -> ()
     | u :: _ as us ->
         failwith
           (Fmt.str "%s/%s: reference misses %d observed pointer values, e.g. %a"
              name instance (List.length us) Interp.Oracle.pp_observation u));
  Core.Report.json_of_result ~timing:false ~solver_stats:false ~name r

let cached ~cache:dir ~key f =
  let path = Filename.concat dir (key ^ ".ref") in
  let stored =
    if Sys.file_exists path then
      match String.split_on_char '\n' (Inputs.read_file path) with
      | k :: json :: _ when k = key -> Some json
      | _ ->
          prerr_endline ("refs: refusing stale cache entry " ^ path);
          None
    else None
  in
  match stored with
  | Some json -> json
  | None ->
      let json = f () in
      Inputs.mkdir_p dir;
      let tmp = path ^ ".tmp" in
      Inputs.write_file tmp (key ^ "\n" ^ json ^ "\n");
      Sys.rename tmp path;
      json

let main ~engine_id ~cache ~jobs =
  let engine, oracle =
    match engine_id with
    | "naive" -> (`Naive, true)
    | "delta" -> (`Delta, false)
    | e -> failwith ("refs: unknown engine " ^ e)
  in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ spec; instance ] ->
          let name, source = Inputs.source_of spec in
          let key =
            Digest.to_hex
              (Digest.string
                 (String.concat "\000"
                    [ Lazy.force self_digest; engine_id; instance; name; source ]))
          in
          let json =
            cached ~cache ~key (fun () ->
                compute ~engine ~oracle ~name ~instance source)
          in
          Printf.printf "%s\t%s\t%s\n%!" spec instance json
      | [ "" ] -> ()
      | _ -> failwith ("refs: bad job line " ^ line))
    jobs
