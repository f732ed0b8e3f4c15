(* Seeded inputs of the three workloads.

   Program content comes from a fixed program seed, so the work a
   workload does is the same whatever run seed is chosen: Cgen's cost at
   one size varies up to 9x between generator seeds, which would swamp
   any run-to-run comparison. The run seed draws the order of the
   analyses, which pooled edit scripts each edit-stream round takes,
   and the serve request sequence. *)

let instances = Core.Analysis.strategy_ids

let cgen ~n ~seed =
  Cgen.generate
    ~cfg:{ Cgen.n_structs = 5; n_stmts = n; cast_rate = 0.6; with_calls = true }
    ~seed ()

let program_seed = 2026

(* cold-scale: 8x in size; CIS takes over a second at the top size *)
let cold_sizes = [ 400; 800; 1600; 3200 ]

(* cold-scale: rounds of the same 16 analyses, order drawn per round *)
let max_rounds = 100

let cold_jobs =
  List.concat_map
    (fun n -> List.map (fun i -> (Printf.sprintf "cold-%d.c" n, i)) instances)
    cold_sizes

(* edit-stream: the watched file, ~900 normalized statements, and one
   session per instance. Short sessions, many of them: an edit's cost
   depends on whether the incremental engine plans a scratch solve, and
   that choice is correlated within a session.

   The incremental engine's warm answers drift from a scratch analysis
   after some retractions, on some scripts and not on others (mostly
   under Collapse on Cast, rarely under Offsets). A failure that comes
   and goes with the seed would make the failed share differ between
   runs, so no script depends on the run seed:
   - the Collapse on Cast session always takes one fixed script on
     which the answers to edits 2 to 9 differ from the scratch analysis:
     those 8 edits are counted as failed, 8 of every round's 36, in
     every run;
   - the other sessions take their scripts from a pool of [edit_pool]
     rounds' worth, fixed by the program seed, none of which drifts
     today (perfbench/README.md). Rounds go through the pool in a
     seeded order, a fresh one each pass. The pool is about as long as
     a run, so that every run edits with nearly the same scripts: the
     cost of a script varies widely (planned scratch solves cluster in
     some). *)
let edit_size = 300
let edits_per_session = 9
let known_defect_instance = "collapse-on-cast"
let known_defect_script_seed = 28
let edit_pool = 6

let version_path ~round ~session k =
  Printf.sprintf "r%d/s%d/v%02d.c" round session k

(* serve-mix: a block is every set-up request once as an exact repeat,
   plus [block_files] variants and [block_files] first-seen programs
   under every instance, in seeded order. The timed phase sends whole
   blocks until its time is up. The pools hold [serve_blocks] blocks'
   worth, more than a run sends, so no block repeats a variant or a
   first-seen program; the seed decides which block gets which. The
   traced run takes the first [traced_blocks]. *)
let serve_base_sizes = [ 200; 400; 800; 1600 ]
let variant_base = 200
let fresh_size = 80
let block_files = 6
let serve_blocks = 16
let traced_blocks = 1
let variant_pool = block_files * serve_blocks
let fresh_pool = block_files * serve_blocks

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A spec is a file relative to the working directory or an embedded
   corpus program. *)
let source_of spec =
  match Suite.find spec with
  | Some p -> (p.Suite.name, p.Suite.source)
  | None -> (Filename.basename spec, read_file spec)

let strategy_of id =
  match Core.Analysis.strategy_of_id id with
  | Some s -> s
  | None -> failwith ("unknown instance " ^ id)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* A version is usable only when it compiles with no error diagnostic. *)
let compiles_clean ~file src =
  let diags = Cfront.Diag.create () in
  match Norm.Lower.compile ~diags ~file src with
  | exception Cfront.Diag.Error _ -> false
  | _ -> not (Cfront.Diag.has_errors diags)

(* ------------------------------------------------------------------ *)
(* Line-level edits of main's body                                     *)
(* ------------------------------------------------------------------ *)

(* Split a Cgen source into (prefix lines up to and including the main
   header, main's statement lines, the closing brace onwards). *)
let split_main src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  let hdr = ref (-1) in
  Array.iteri (fun i l -> if l = "void main(void) {" then hdr := i) lines;
  let close = ref (-1) in
  for i = n - 1 downto 0 do
    if !close < 0 && lines.(i) = "}" then close := i
  done;
  if !hdr < 0 || !close <= !hdr then failwith "split_main: no main body";
  ( Array.to_list (Array.sub lines 0 (!hdr + 1)),
    Array.to_list (Array.sub lines (!hdr + 1) (!close - !hdr - 1)),
    Array.to_list (Array.sub lines !close (n - !close)) )

let join (pre, body, post) = String.concat "\n" (pre @ body @ post)

type edit_kind = Insert | Delete | Replace

let kind_name = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Replace -> "replace"

(* One single-line edit of [body]; the caller retries on an unclean
   compile with the next draw of the same generator. *)
let apply_edit rng kind body =
  let a = Array.of_list body in
  let n = Array.length a in
  let pick () = Random.State.int rng n in
  match kind with
  | Insert ->
      let src = a.(pick ()) and at = Random.State.int rng (n + 1) in
      List.concat
        [ Array.to_list (Array.sub a 0 at); [ src ];
          Array.to_list (Array.sub a at (n - at)) ]
  | Delete ->
      let at = pick () in
      List.filteri (fun i _ -> i <> at) body
  | Replace ->
      let at = pick () and src = a.(pick ()) in
      List.mapi (fun i l -> if i = at then src else l) body

(* Script [n] of session [s]: [edits_per_session] versions, each one
   single-line edit away from the one before; kinds in equal shares,
   order shuffled. *)
let edit_script ~seed ~n ~session base =
  let rng = rng seed (Printf.sprintf "edit/%d/%d" n session) in
  let per = edits_per_session / 3 in
  let kinds =
    shuffle rng
      (Array.concat
         [ Array.make per Insert; Array.make per Delete;
           Array.make (edits_per_session - (2 * per)) Replace ])
  in
  let pre, body, post = split_main base in
  let cur = ref body in
  Array.to_list kinds
  |> List.map (fun k ->
         let rec attempt tries =
           let body' = apply_edit rng k !cur in
           let src = join (pre, body', post) in
           if body' <> !cur && compiles_clean ~file:"edit.c" src then begin
             cur := body';
             (k, src)
           end
           else if tries > 50 then failwith "edit_script: no clean edit"
           else attempt (tries + 1)
         in
         attempt 0)

(* An additive variant: [k] existing statement lines appended to the end
   of main. Appending after every existing statement keeps earlier
   temporaries' keys, so the base program's fixpoint is a cached
   ancestor of the variant. *)
let additive_variant ~seed ~idx base =
  let rng = rng seed (Printf.sprintf "variant/%d" idx) in
  let pre, body, post = split_main base in
  let a = Array.of_list body in
  let k = 3 + Random.State.int rng 6 in
  let extra = List.init k (fun _ -> a.(Random.State.int rng (Array.length a))) in
  join (pre, body @ extra, post)
