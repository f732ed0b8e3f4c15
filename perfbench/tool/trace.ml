(* [pbtool trace]: the traced run. It calls each layer's public functions
   in-process on one round of a workload's inputs and times those calls
   from outside the layer. Spans (name, start, end, parent, operation)
   are kept in memory and written as JSON lines at the end; summed
   counters go to standard output as one JSON object. perfbench/traced.py
   turns both into per-layer metrics and a Chrome trace.

   Operation spans ["analyze"], ["setup"], ["edit"] and ["request"] hold
   only calls the binary makes on the same job,
   so the binary's wall time minus their layer spans is time no layer
   accounts for. ["probe"] spans hold measurement-only calls (a separate
   align, a scratch solve, a separate encode and decode). *)

open Cfront

type span = { name : string; t0 : float; t1 : float; id : int; parent : int; op : int }

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_op = ref 0
let clock = Unix.gettimeofday

let record ~name ~t0 ~t1 ~id ~parent ~op =
  spans := { name; t0; t1; id; parent; op } :: !spans

let span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = clock () in
  let finish () =
    stack := List.tl !stack;
    record ~name ~t0 ~t1:(clock ()) ~id ~parent ~op:!cur_op
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* An operation: a top-level span with a fresh operation id. *)
let op_counter = ref 0

let op name f =
  incr op_counter;
  cur_op := !op_counter;
  span name f

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let addi name n = add name (float_of_int n)

(* The CLI's budget with --timeout-ms 0 --max-steps 0: cell budgets at
   their defaults, step and time budgets off. *)
let budget =
  { Core.Budget.default with Core.Budget.max_steps = None; timeout_s = None }

let resolve rel = if Sys.file_exists rel then Some (Inputs.read_file rel) else None

(* Front end and lowering, one span per layer call. *)
let compile ~name src =
  let diags = Diag.create () in
  let toks = span "cfront.preproc" (fun () -> Preproc.run ~resolve ~file:name src) in
  addi "cfront.tokens" (List.length toks);
  let ast = span "cfront.parse" (fun () -> Parser.parse_tokens ~diags toks) in
  let tast = span "cfront.typecheck" (fun () -> Typecheck.check ~diags ~file:name ast) in
  let prog = span "norm.lower" (fun () -> Norm.Lower.lower tast) in
  addi "norm.stmts" (Norm.Nast.stmt_count prog);
  (prog, diags)

let solve name ?track ~strategy prog =
  let a0 = Gc.allocated_bytes () in
  let t = span name (fun () -> Core.Solver.run ~budget ?track ~strategy prog) in
  add "core.alloc_mwords" ((Gc.allocated_bytes () -. a0) /. 8e6);
  t

let core_counts (m : Core.Metrics.summary) =
  addi "core.visits" m.Core.Metrics.solver_visits;
  addi "core.facts_consumed" m.Core.Metrics.facts_consumed;
  addi "core.copy_edges" m.Core.Metrics.copy_edges;
  addi "core.cycles_found" m.Core.Metrics.cycles_found;
  addi "core.cells_unified" m.Core.Metrics.cells_unified;
  addi "core.wasted_propagations" m.Core.Metrics.wasted_propagations

(* Metrics.summarize and Report.json_of_result, as the binary calls them
   for one answer. *)
let answer ~name ~diags (t : Core.Solver.t) =
  let m = span "core.summarize" (fun () -> Core.Metrics.summarize t) in
  let r =
    { Core.Analysis.solver = t; metrics = m; time_s = 0.;
      degraded = Core.Solver.degradations t; diags = Diag.diagnostics diags }
  in
  ignore (span "core.report" (fun () -> Core.Report.json_of_result ~name r));
  m

(* ------------------------------------------------------------------ *)

(* One job per process, as the binary runs it. *)
let cold ~seed ~job =
  let spec, inst = List.nth (Gen.cold_round ~seed 0) job in
  op "analyze" (fun () ->
      let name, src = Inputs.source_of spec in
      let prog, diags = compile ~name src in
      let t = solve "core.solve" ~strategy:(Inputs.strategy_of inst) prog in
      core_counts (answer ~name ~diags t))

(* Job [k] below the session count replays session [k] as watch does
   it, in a process of its own like the binary's session; job [n + k]
   replays the same edits apart from that path: each aligned with
   Progdiff.align onto the previous aligned program and solved from
   scratch, the denominator of incr.warm_to_scratch. *)
let edit ~job =
  let base = Inputs.read_file "edit-base.c" in
  let n = List.length Inputs.instances in
  let s = job mod n in
  let strategy = Inputs.strategy_of (List.nth Inputs.instances s) in
  let name = Printf.sprintf "work-%d.c" s in
  let version k = Inputs.read_file (Inputs.version_path ~round:0 ~session:s k) in
  if job < n then begin
    let t =
      op "setup" (fun () ->
          let prog, _ = compile ~name base in
          ref (solve "core.solve_tracked" ~track:true ~strategy prog))
    in
    core_counts (Core.Metrics.summarize !t);
    for k = 0 to Inputs.edits_per_session - 1 do
      let src = version k in
      op "edit" (fun () ->
          let prog, diags = compile ~name src in
          let t', st =
            span "incr.reanalyze" (fun () -> Incr.Engine.reanalyze ~diags !t prog)
          in
          addi "incr.stmts_added" st.Incr.Engine.stmts_added;
          addi "incr.stmts_removed" st.Incr.Engine.stmts_removed;
          addi "incr.facts_retracted" st.Incr.Engine.facts_retracted;
          addi "incr.stmts_replayed" st.Incr.Engine.stmts_replayed;
          addi "incr.warm_visits" st.Incr.Engine.warm_visits;
          if st.Incr.Engine.fallback then add "incr.fallbacks" 1.;
          ignore (answer ~name ~diags t');
          t := t')
    done
  end
  else begin
    let cur = ref (fst (compile ~name base)) in
    for k = 0 to Inputs.edits_per_session - 1 do
      op "probe" (fun () ->
          let prog, _ = compile ~name (version k) in
          let aligned, _ =
            span "incr.align" (fun () -> Incr.Progdiff.align ~base:!cur prog)
          in
          let scratch = solve "core.solve" ~strategy aligned in
          core_counts (Core.Metrics.summarize scratch);
          cur := aligned)
    done
  end

(* serve-mix: the set-up pass plus the first [Inputs.traced_blocks]
   timed blocks. *)
let serve_requests ~seed ~out =
  let setup, _, _ = Gen.serve_pools ~out in
  let timed = Gen.serve_rounds ~seed ~out in
  setup
  @ List.concat_map (List.map (fun (s, i, _) -> (s, i)))
      (List.filteri (fun i _ -> i < Inputs.traced_blocks) timed)

let job ~idx ~store (spec, inst) =
  Server.Job.make ~idx ~strategy:inst ~layout:"ilp32" ~budget ~store_dir:store
    ~domains:1 ~engine:"delta" spec

(* The store and front-end layers, in-process, against store A. *)
let serve_layers ~seed ~out =
  let reqs = serve_requests ~seed ~out in
  let st = Store.open_store "store-a" in
  let hits = ref 0 and n = ref 0 in
  List.iter
    (fun (spec, inst) ->
      incr n;
      let strategy = Inputs.strategy_of inst in
      let served, cfg, name, prog, diags =
        op "request" (fun () ->
            let name, src = Inputs.source_of spec in
            let prog, diags = compile ~name src in
            let diags = Diag.diagnostics diags in
            let cfg =
              { Store.Codec.strategy_id = inst; engine = `Delta; layout_id = "ilp32";
                arith = `Spread; budget }
            in
            let t0 = clock () in
            let served =
              span "store.serve" (fun () ->
                  Store.serve st ~want:`Json ~diags ~name ~strategy_id:inst
                    ~engine:`Delta ~layout:Layout.ilp32 ~layout_id:"ilp32" ~budget
                    ~cold:(fun () ->
                      solve "core.solve_tracked" ~track:true ~strategy prog)
                    prog)
            in
            (match served.Store.sv_origin with
            | `Hit ->
                incr hits;
                add "store.serve_hit_ms" ((clock () -. t0) *. 1e3)
            | `Ancestor _ -> add "store.ancestor_warm_starts" 1.
            | `Cold -> ());
            (served, cfg, name, prog, diags))
      in
      (* Store.serve computes the key itself; here it is timed apart *)
      let key =
        op "probe" (fun () ->
            let diags_fp = String.concat "" (List.map Core.Report.json_of_diag diags) in
            span "store.key" (fun () -> Store.Codec.key cfg ~name ~diags_fp prog))
      in
      match served.Store.sv_result with
      | Some r when served.Store.sv_origin <> `Hit ->
          add "store.misses" 1.;
          core_counts r.Core.Analysis.metrics;
          op "probe" (fun () ->
              match
                span "store.encode" (fun () ->
                    Store.Codec.encode r.Core.Analysis.solver ~config:cfg ~name
                      ~key ~report_json:served.Store.sv_json)
              with
              | Ok bytes ->
                  add "store.snapshot_kb" (float_of_int (String.length bytes) /. 1024.);
                  ignore (span "store.decode" (fun () -> Store.Codec.decode bytes))
              | Error _ -> ())
      | _ -> ())
    reqs;
  add "store.hits" (float_of_int !hits);
  add "store.hit_share" (float_of_int !hits /. float_of_int !n)

(* The server layer, in a process of its own so the layers pass's heap
   does not weigh on it: each request goes once through Worker.execute
   in-process (store C) and once through the supervisor's submit, step
   and outcome (store B, forked workers), back to back, so that drift in
   the host's speed hits both alike. *)
let serve_server ~seed ~out ~workers =
  let reqs = serve_requests ~seed ~out in
  let cfg = { Server.Supervisor.default_config with Server.Supervisor.workers } in
  let sup = Server.Supervisor.create cfg in
  List.iteri
    (fun i r ->
      op "execute" (fun () ->
          ignore
            (span "server.execute" (fun () ->
                 Server.Worker.execute (job ~idx:(i + 1) ~store:"store-c" r)
                   ~attempt:1 ~rung:0 ~faults:Server.Faults.none)));
      let j = job ~idx:(i + 1) ~store:"store-b" r in
      op "submit" (fun () ->
          span "server.request" (fun () ->
              Server.Supervisor.submit sup j;
              while Server.Supervisor.find_outcome sup j.Server.Job.id = None do
                ignore (Server.Supervisor.step sup)
              done)))
    reqs;
  addi "server.queue_peak" (Server.Supervisor.fleet sup).Core.Metrics.queue_peak;
  Server.Supervisor.shutdown sup

let main ~workload ~seed ~out ~spans_path ~workers ~job =
  Inputs.mkdir_p out;
  Sys.chdir out;
  (match workload with
  | "cold-scale" -> cold ~seed ~job
  | "edit-stream" -> edit ~job
  | "serve-mix" when job = 0 -> serve_layers ~seed ~out:"."
  | "serve-mix" -> serve_server ~seed ~out:"." ~workers
  | w -> failwith ("unknown workload " ^ w));
  add "core.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.);
  let oc = open_out spans_path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%s,\"t0\":%.6f,\"t1\":%.6f,\"id\":%d,\"parent\":%d,\"op\":%d}\n"
        (Core.Report.quote s.name) s.t0 s.t1 s.id s.parent s.op)
    (List.rev !spans);
  close_out oc;
  let kv =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s:%.17g" (Core.Report.quote k) v :: acc)
      counters []
  in
  print_string ("{" ^ String.concat "," (List.sort compare kv) ^ "}");
  print_newline ()
