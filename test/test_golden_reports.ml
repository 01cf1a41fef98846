(* [golden] prints the report ([Explorer.pp_report]) of every case `jaaru
   list` prints, at its own config on one domain, plus three deeper runs; dune
   diffs it against golden_reports.expected, pinning report bytes across
   commits. [matrix GROUP] runs every case of the group under each row of
   [settings] it applies to and requires the reference report: a row that
   can change which executions a first-bug run explores (jobs > 1, fleet)
   against the exhaustive jobs-1 run, any other against the case's own.
   Adding or removing an output-neutral layer changes that one list.
   Usage: golden | matrix explorer|deep|pbt | matrix cli JAARU_CLI_EXE *)
open Jaaru

(* --- cases ------------------------------------------------------------------ *)

type subject =
  | Scenario of Explorer.scenario * Config.t
  | Pbt of (string list * int * int * int)  (** structures, seed, count, max_cmds *)
  | Command of string list  (** `jaaru check` arguments *)

type case = { name : string; subject : subject }

let scenario name scn config = { name; subject = Scenario (scn, config) }
let exhaustive config = { config with Config.stop_at_first_bug = false }
let buffered config = { config with Config.evict_policy = Config.Buffered }
let analyzed config = { (exhaustive config) with Config.analyze = true }
let pmdk1 = List.hd (Pmdk.Workloads.fig12_cases ())
let cceh1 = List.hd (Recipe.Workloads.fig13_cases ())

(* Nested crashes, explored exhaustively. *)
let pmdk_mf2 =
  scenario "pmdk-1 max_failures=2 exhaustive" pmdk1.scenario
    { (exhaustive pmdk1.config) with Config.max_failures = 2 }

(* The cases in `jaaru list` order, then three deeper runs. *)
let golden =
  let open Pmdk.Workloads in
  List.map (fun c -> scenario c.id c.scenario c.config)
    (fig12_cases () @ fixed_cases () @ checksum_cases () @ skiplist_cases ())
  @ List.map
      (fun (c : Recipe.Workloads.case) -> scenario c.id c.scenario c.config)
      Recipe.Workloads.(fig13_cases () @ fixed_cases () @ concurrent_cases ())
  @ [
      pmdk_mf2;
      (* Two writer threads under buffered eviction with every analysis pass
         on: store-buffer cut decisions branch, and distinct crash points
         persist identical states. *)
      (let c = Recipe.Workloads.(find (concurrent_cases ()) "P-CLHT-concurrent") in
       scenario "P-CLHT-concurrent buffered analyze" c.scenario (buffered (analyzed c.config)));
      (* Nested buffered crashes: pins the size of the search over the
         crashes' store-buffer cuts. *)
      (let c = Recipe.Workloads.(find (concurrent_cases ()) "P-CLHT-concurrent") in
       scenario "P-CLHT-concurrent max_failures=2" c.scenario
         { c.config with Config.max_failures = 2 });
    ]

(* A long pre-failure program and a one-load recovery, the shape where
   snapshots replace most of each replay (the bench `snapshot` sweep). *)
let bulk_load n =
  Explorer.scenario ~name:(Printf.sprintf "bulk-load-%d" n)
    ~pre:(fun ctx ->
      for i = 0 to n - 1 do
        Ctx.store64 ctx ~label:"load" (0x1000 + (64 * i)) (i + 1);
        Ctx.clflush ctx ~label:"persist" (0x1000 + (64 * i)) 8;
        Ctx.sfence ctx ~label:"order" ()
      done)
    ~post:(fun ctx -> ignore (Ctx.load64 ctx ~label:"probe" 0x1000))

let hand_built =
  let d = Config.default and no_failure c = { c with Config.max_failures = 0 } in
  let open Scenarios in
  let clht ?ks0 ?ks1 racy = Recipe.Workloads.concurrent_scenario ?ks0 ?ks1 ~racy () in
  [
    scenario "flush-loop" flush_loop d;
    scenario "flush-loop buffered" flush_loop (buffered d);
    scenario "flush-loop analyze" flush_loop (analyzed d);
    scenario "multi-failure" flush_loop { d with Config.max_failures = 2 };
    scenario "explicit-crash" explicit_crash (no_failure d);
    scenario "explicit-crash buffered" explicit_crash (no_failure (buffered d));
    scenario "bulk-load-32" (bulk_load 32) d;
    scenario "bulk-load-64" (bulk_load 64) d;
    scenario "P-CLHT n=3" (Recipe.Workloads.fixed_scenario "P-CLHT" 3)
      { d with Config.max_steps = 200_000 };
    scenario "P-CLHT-small buffered analyze"
      (clht ~ks0:[ 3 ] ~ks1:[ 11 ] false)
      (buffered (analyzed d));
    scenario "P-CLHT-racy buffered analyze" (clht true) (buffered (analyzed d));
    scenario "CCEH-1 analyze" cceh1.scenario (analyzed cceh1.config);
  ]

(* PBT runs (structures, seed, count, max_cmds): the default clean sweep and
   the shrunk witness of a seeded bug. *)
let pbt_cases =
  let pbt name p = { name; subject = Pbt p } in
  let seeded = "pmdk-hashmap-atomic!missing-entry-flush" in
  [
    pbt "pbt sweep seed=9" (List.map Pbt.Structures.id (Pbt.Structures.all ()), 9, 25, 6);
    pbt "pbt hashmap-atomic+p-clht seed=11" ([ "pmdk-hashmap-atomic"; "recipe-p-clht" ], 11, 4, 4);
    pbt "pbt seeded witness seed=9" ([ seeded ], 9, 50, 6);
    pbt "pbt seeded witness seed=7" ([ seeded ], 7, 50, 6);
  ]

(* Real CLI runs: a deepened PMDK tree and a paper RECIPE structure. *)
let cli_deep =
  { name = "cli pmdk-1 max_failures=2"; subject = Command [ "pmdk-1"; "--max-failures"; "2" ] }

let commands = [ cli_deep; { name = "cli P-CLHT-1"; subject = Command [ "P-CLHT-1" ] } ]
let cases = golden @ hand_built @ pbt_cases @ commands

(* --- settings --------------------------------------------------------------- *)

type transform = Config of (Config.t -> Config.t) | Argv of (string list -> string list)

type how =
  | Explore  (** [Explorer.run], or [Pbt.Driver] for a PBT case *)
  | Resume_chain  (** wall-budget sessions, each resumed from the last checkpoint *)
  | Coordinator of int  (** the in-process fleet coordinator with this many workers *)
  | Cli  (** run the CLI with [--report-out] *)
  | Sigterm_resume  (** SIGTERM the CLI mid-run, then run the resume command it prints *)

type setting = {
  name : string;
  transform : transform;
  applies : case -> bool;
  how : how;
  neutral : bool;  (** [false] for the negative control, which must differ *)
}

let jobs n c = { c with Config.jobs = n }
let snapshot_off c = { c with Config.snapshot = false }
let off_j4 c = snapshot_off (jobs 4 c)
let named names (c : case) = List.mem c.name names
let deep c = c == pmdk_mf2
let cli c = match c.subject with Command _ -> true | _ -> false

(* The in-process cases but the deep one, whose jobs-4 and snapshot-off runs
   are the resume chains'. *)
let shallow c = not (cli c || deep c)

(* Cases whose exhaustive tree is too large for a test (step-limit bugs run
   every execution to [max_steps]) stay out of the rows that need it. *)
let exhaustible c = shallow c && not (named [ "pmdk-6"; "CCEH-2"; "P-ART-3"; "P-CLHT-3" ] c)

(* The cases that get jobs 2 and snapshots off at jobs 2 and 4: the
   hand-built scenarios and the first PMDK and RECIPE cases. *)
let crossed c = List.memq c hand_built || named [ pmdk1.id; cceh1.id ] c
let pbt c = match c.subject with Pbt _ -> true | _ -> false

let check_argv args = ("check" :: args) @ [ "--exhaustive" ]
let chaos =
  [ "--fleet-chaos"; "kill:0.3,hang:0.1,torn:0.2"; "--fleet-chaos-seed"; "7" ]
  @ [ "--heartbeat-timeout"; "1" ]

let fleet ?(extra = []) workers args =
  ("fleet" :: List.hd args :: "--fleet-workers" :: string_of_int workers :: List.tl args) @ extra

let row ?(neutral = true) ?(how = Explore) name transform applies =
  { name; transform; applies; how; neutral }

let settings =
  [
    row "jobs=2" (Config (jobs 2)) crossed;
    row "jobs=4" (Config (jobs 4)) exhaustible;
    row "snapshot=off" (Config snapshot_off) shallow;
    row "snapshot=off jobs=2" (Config (fun c -> snapshot_off (jobs 2 c))) crossed;
    row "snapshot=off jobs=4" (Config off_j4) (fun c -> crossed c || pbt c);
    row ~how:Resume_chain "resume-chain" (Config Fun.id) deep;
    row ~how:Resume_chain "resume-chain snapshot=off" (Config snapshot_off) deep;
    row ~how:Resume_chain "resume-chain jobs=4" (Config (jobs 4)) deep;
    row ~how:Resume_chain "resume-chain jobs=4 snapshot=off" (Config off_j4) deep;
    row ~how:(Coordinator 1) "fleet in-process workers=1" (Config Fun.id) deep;
    row ~how:(Coordinator 2) "fleet in-process workers=2" (Config Fun.id) deep;
    row ~how:(Coordinator 4) "fleet in-process workers=4" (Config Fun.id) deep;
    row ~how:Cli "cli fleet workers=2" (Argv (fleet 2)) cli;
    row ~how:Cli "cli fleet workers=4" (Argv (fleet 4)) cli;
    row ~how:Cli "cli fleet workers=2 chaos" (Argv (fleet ~extra:chaos 2)) cli;
    row ~how:Cli "cli fleet workers=4 chaos" (Argv (fleet ~extra:chaos 4)) cli;
    row ~how:Sigterm_resume "cli check jobs=4 snapshot=off, SIGTERM, printed resume command"
      (Argv (fun args -> check_argv args @ [ "--jobs"; "4"; "--snapshot"; "off" ]))
      (fun c -> c == cli_deep);
    (* Negative control: one more failure is not neutral, so a comparator
       that calls this equal is vacuous. *)
    row ~neutral:false "negative control: max_failures+1"
      (Config (fun c -> { c with Config.max_failures = c.Config.max_failures + 1 }))
      (named [ pmdk1.id ]);
  ]

(* --- running ---------------------------------------------------------------- *)

let jaaru = match Sys.argv with [| _; _; _; exe |] -> Unix.realpath exe | _ -> ""

let with_temp f =
  let path = Filename.temp_file "jaaru_matrix" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What one run produced, compared structurally: an in-process outcome (bug
   traces included), PBT reports, or a CLI [--report-out] file. *)
type result =
  | Outcome of Explorer.outcome
  | Pbt_reports of Pbt.Driver.report list
  | Report_text of string

let render = function
  | Outcome o -> Format.asprintf "%a@." Explorer.pp_report o
  | Pbt_reports rs -> String.concat "" (List.map (Format.asprintf "%a@." Pbt.Driver.pp_report) rs)
  | Report_text s -> s

let show_diff reference candidate =
  with_temp (fun a ->
      with_temp (fun b ->
          Out_channel.with_open_bin a (fun oc -> output_string oc (render reference));
          Out_channel.with_open_bin b (fun oc -> output_string oc (render candidate));
          let labels = "--label reference --label candidate" in
          ignore (Sys.command (Printf.sprintf "diff -u %s %s %s >&2" labels a b))))

let outcome o = Outcome (Explorer.comparable_outcome o)

(* Runs the CLI. Its exit status is the case's verdict, so only the report
   counts. *)
let run_cli ~report argv =
  let cmd = String.concat " " (List.map Filename.quote (jaaru :: argv)) in
  let code = Sys.command (Printf.sprintf "%s --report-out %s > /dev/null 2>&1" cmd report) in
  match read_file report with
  | "" -> failwith (Printf.sprintf "%s exited %d without a report" cmd code)
  | text -> Report_text text

(* Wall-budget sessions chained through one checkpoint until one completes
   (each finishes at least one replay). The chain must be cut at least once,
   or it proved nothing. *)
let resume_chain config scn =
  with_temp (fun path ->
      let rec go resume sessions =
        let config = { config with Config.wall_budget = Some 0.1 } in
        let o = Explorer.run ~config ?resume ~checkpoint:path scn in
        if o.Explorer.stats.Stats.interrupted then go (Some (Checkpoint.load path)) (sessions + 1)
        else if sessions = 1 then failwith "the first session was never interrupted"
        else outcome o
      in
      go None 1)

let coordinator ~workers config scn =
  let scratch = Filename.temp_dir "jaaru_matrix" "" in
  let fleet = { (Fleet.Coordinator.default ~scratch) with workers; worker_argv = None } in
  let finally () = ignore (Sys.command ("rm -rf " ^ Filename.quote scratch)) in
  let r = Fun.protect ~finally (fun () -> Fleet.Coordinator.run ~fleet ~config ~scenario:scn) in
  if r.checkpoint.frontier <> [] || r.fleet.quarantined <> [] then
    failwith "shards left unexplored";
  outcome r.outcome

(* The rest of the first line of [path] that starts with [prefix]. *)
let line_after ~prefix path =
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then Some (String.sub l n (String.length l - n)) else None)
    (String.split_on_char '\n' (read_file path))

(* SIGTERM a real `jaaru check` once it is exploring, then continue it by
   running the command it printed, word for word (this build's binary stands
   in for `jaaru`). A run that finishes before the signal lands is retried
   with a shorter delay. *)
let sigterm_resume ~report argv =
  with_temp @@ fun ckpt ->
  with_temp @@ fun out ->
  let argv = argv @ [ "--checkpoint"; ckpt; "--checkpoint-every"; "0.1"; "--report-out"; report ] in
  let rec attempt = function
    | [] -> failwith "every run finished before SIGTERM landed"
    | delay :: later -> (
        let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
        let pid = Unix.create_process jaaru (Array.of_list (jaaru :: argv)) Unix.stdin fd fd in
        Unix.close fd;
        (* The header prints just before exploration starts. *)
        while line_after ~prefix:"config:" out = None do
          if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
            failwith ("jaaru exited before exploring:\n" ^ read_file out);
          Unix.sleepf 0.005
        done;
        Unix.sleepf delay;
        Unix.kill pid Sys.sigterm;
        ignore (Unix.waitpid [] pid);
        match line_after ~prefix:"run interrupted; continue with: jaaru " out with
        | None -> attempt later
        | Some rest ->
            let cmd = Printf.sprintf "%s %s > %s 2>&1" (Filename.quote jaaru) rest out in
            let code = Sys.command cmd in
            if code <> 0 then
              failwith (Printf.sprintf "`jaaru %s` exited %d:\n%s" rest code (read_file out));
            Report_text (read_file report))
  in
  attempt [ 0.3; 0.1; 0.02 ]

let run_pbt config (structures, seed, count, max_cmds) =
  Pbt_reports
    (List.map
       (fun id ->
         let a = Option.get (Pbt.Structures.find id) in
         Pbt.Driver.comparable_report (Pbt.Driver.run_structure ~config ~seed ~count ~max_cmds a))
       structures)

(* A case's reference runs, computed on first use: its own config at jobs 1,
   or the exhaustive jobs-1 run. *)
let references = Hashtbl.create 64

let reference ~exhaustive:exh (c : case) =
  let exh =
    match c.subject with Scenario (_, config) -> exh && config.stop_at_first_bug | _ -> exh
  in
  match Hashtbl.find_opt references (c.name, exh) with
  | Some r -> r
  | None ->
      let r =
        match c.subject with
        | Scenario (scn, config) ->
            let config = jobs 1 config in
            outcome (Explorer.run ~config:(if exh then exhaustive config else config) scn)
        | Pbt p -> run_pbt Pbt.Runner.config p
        | Command args -> with_temp (fun report -> run_cli ~report (check_argv args))
      in
      Hashtbl.add references (c.name, exh) r;
      r

(* One cell: the reference and the candidate run. *)
let run_cell (s : setting) (c : case) =
  match (c.subject, s.transform, s.how) with
  | Scenario (scn, config), Config f, how ->
      let config = f config in
      let first_bug_sensitive =
        config.jobs > 1 || match how with Coordinator _ -> true | _ -> false
      in
      let config = if first_bug_sensitive then exhaustive config else config in
      ( reference ~exhaustive:first_bug_sensitive c,
        match how with
        | Resume_chain -> resume_chain config scn
        | Coordinator workers -> coordinator ~workers config scn
        | _ -> outcome (Explorer.run ~config scn) )
  | Pbt p, Config f, Explore -> (reference ~exhaustive:false c, run_pbt (f Pbt.Runner.config) p)
  | Command args, Argv f, (Cli | Sigterm_resume) ->
      let run = if s.how = Cli then run_cli else sigterm_resume in
      (reference ~exhaustive:true c, with_temp (fun report -> run ~report (f args)))
  | _ -> invalid_arg (Printf.sprintf "setting %S does not fit case %S" s.name c.name)

(* Dune runs each group as its own action, in parallel. *)
let group c =
  match c.subject with
  | Scenario _ -> if deep c then "deep" else "explorer"
  | Pbt _ -> "pbt"
  | Command _ -> "cli"

let matrix g =
  let failures = ref 0 and cells = ref 0 in
  let fail (s : setting) (c : case) msg =
    incr failures;
    Format.eprintf "FAIL [%s] on %s: %s@." s.name c.name msg
  in
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          if group c = g && s.applies c then begin
            incr cells;
            match run_cell s c with
            | r, r' when r = r' -> if not s.neutral then fail s c "negative control compared equal"
            | r, r' ->
                if s.neutral then begin
                  fail s c "report differs from the reference";
                  show_diff r r'
                end
            | exception e -> fail s c (Printexc.to_string e)
          end)
        cases)
    settings;
  Format.eprintf "differential matrix (%s): %d cells, %d failure(s)@." g !cells !failures;
  if !failures > 0 || !cells = 0 then exit 1

let () =
  match Sys.argv with
  | [| _; "golden" |] ->
      List.iter
        (fun (c : case) ->
          Format.printf "== %s ==@.%s@." c.name (render (reference ~exhaustive:false c)))
        golden
  | [| _; "matrix"; ("explorer" | "deep" | "pbt" as g) |] | [| _; "matrix"; ("cli" as g); _ |] ->
      matrix g
  | _ ->
      prerr_endline "usage: test_golden_reports.exe golden | matrix GROUP [JAARU_CLI_EXE]";
      exit 2
