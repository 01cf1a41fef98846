(* Time-to-verdict benchmark over the bundled `jaaru check` workloads.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]

   A closed loop with one caller: each [Explorer.run] starts when the
   previous one has returned. A pass runs every case of the workload once, in
   an order drawn from the seed; passes repeat until [--seconds] have elapsed
   (finishing the pass in flight). Every verdict is checked against a
   reference that does not come from the checker run being timed; any wrong
   verdict makes the run print [correct: false] and exit 1.

   [--trace 0] measures the end-to-end metrics. [--trace 1] alternates
   untraced and traced passes: the traced ones wrap the benchmark's calls
   into each layer ([Explorer.run], [scenario.pre], [scenario.post]) in
   spans and give the per-layer metrics; the untraced ones give the tracing
   overhead. The last line of stdout is one JSON object; everything before it
   is the human-readable report. See perfbench/README.md for the workloads
   and what each metric should move. *)

open Jaaru

type case = {
  id : string;
  expected : string list option;
      (** the hand-written symptom fragments of a seeded bug; [None] for a
          case that must verify clean *)
  scenario : Explorer.scenario;
  config : Config.t;
}

let of_pmdk (c : Pmdk.Workloads.case) =
  { id = c.id; expected = c.expected_symptom; scenario = c.scenario; config = c.config }

let of_recipe (c : Recipe.Workloads.case) =
  { id = c.id; expected = c.expected_symptom; scenario = c.scenario; config = c.config }

(* The cases `jaaru list` prints, in its order. *)
let listed_cases () =
  List.map of_pmdk (Pmdk.Workloads.fig12_cases ())
  @ List.map of_pmdk (Pmdk.Workloads.fixed_cases ())
  @ List.map of_pmdk (Pmdk.Workloads.checksum_cases ())
  @ List.map of_pmdk (Pmdk.Workloads.skiplist_cases ())
  @ List.map of_recipe (Recipe.Workloads.fig13_cases ())
  @ List.map of_recipe (Recipe.Workloads.fixed_cases ())
  @ List.map of_recipe (Recipe.Workloads.concurrent_cases ())

let find id cases = List.find (fun c -> c.id = id) cases

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- workloads ------------------------------------------------------------- *)

type workload = {
  name : string;
  min_verdicts : int;  (** per run, so the reported percentiles have samples *)
  build : Random.State.t -> case list;  (** one pass, in the seed's order *)
  warmup : unit -> case;  (** run once per set-up; independent of the seed *)
  reference : bool;
      (** compare every report with one jobs-2 run made during set-up *)
}

(* `jaaru check CASE` with no flags: the case's own config (bug cases stop
   at the first bug, clean cases explore exhaustively), one domain, the
   snapshot and memo layers at their defaults, analysis off. *)
let check_config c =
  { c.config with Config.jobs = 1; snapshot = true; memo = true; analyze = false }

let case_sweep =
  {
    name = "case-sweep";
    min_verdicts = 100;
    build =
      (fun rng ->
        shuffle rng (List.map (fun c -> { c with config = check_config c }) (listed_cases ())));
    warmup =
      (fun () ->
        let c = find "pmdk-btree-fixed" (listed_cases ()) in
        { c with config = check_config c });
    reference = false;
  }

let mf2 c =
  {
    c.config with
    Config.max_failures = 2;
    stop_at_first_bug = false;
    jobs = 1;
    snapshot = true;
    memo = true;
    analyze = false;
  }

let pmdk_cases () =
  List.map of_pmdk (Pmdk.Workloads.fixed_cases ())
  @ [ of_pmdk (Pmdk.Workloads.find (Pmdk.Workloads.fig12_cases ()) "pmdk-1") ]

(* Timed at jobs 1: with two domains on a two-vCPU guest, steal on either
   vCPU stalls both at every stop-the-world minor GC, and two sets of ten
   runs disagreed by up to 19%. The parallel path is still checked: every
   report must equal the jobs-2 run made during set-up. *)
let pmdk_mf2 =
  {
    name = "pmdk-mf2";
    min_verdicts = 1;
    build =
      (fun rng -> shuffle rng (List.map (fun c -> { c with config = mf2 c }) (pmdk_cases ())));
    warmup =
      (fun () ->
        let c = find "pmdk-hashmap-atomic-fixed" (pmdk_cases ()) in
        { c with config = mf2 c });
    reference = true;
  }

let clht_config () =
  let base = Recipe.Workloads.find (Recipe.Workloads.concurrent_cases ()) "P-CLHT-concurrent" in
  {
    base.config with
    Config.evict_policy = Config.Buffered;
    max_failures = 1;
    stop_at_first_bug = false;
    jobs = 1;
    snapshot = true;
    memo = true;
    analyze = true;
    analyze_hb = true;
  }

let clht_case ks0 ks1 =
  {
    id = "P-CLHT-concurrent";
    expected = None;
    scenario = Recipe.Workloads.concurrent_scenario ~ks0 ~ks1 ~racy:false ();
    config = clht_config ();
  }

(* All 32 keys share one head bucket, drawn from the seed. Writers on
   different head buckets that both chain an overflow bucket race on the
   scenario's shared bump allocator (Region_alloc has no lock), and the
   checker rightly reports that race as "Illegal memory access at
   p_clht.ml:clear lock" / "Assertion failure at p_clht.ml:check routing";
   the case is clean only while every allocation happens under the one bucket
   lock both writers contend for. Keeping the head bucket fixed within a run
   also keeps the state space the same for every seed (1274 executions at
   HEAD). [bucket_of] mirrors P_clht's hash over the scenario's 2 buckets. *)
let keys_per_thread = 16
let bucket_of k = ((k * 0x517cc1b727220a95 land max_int) lsr 17) mod 2

let same_bucket_keys rng n =
  let bucket = Random.State.int rng 2 in
  let seen = Hashtbl.create n in
  let rec draw acc k =
    if k = 0 then acc
    else
      let key = 1 + Random.State.int rng 10_000 in
      if bucket_of key <> bucket || Hashtbl.mem seen key then draw acc k
      else begin
        Hashtbl.add seen key ();
        draw (key :: acc) (k - 1)
      end
  in
  draw [] n

let clht_conc =
  {
    name = "clht-conc";
    min_verdicts = 1;
    build =
      (fun rng ->
        let ks = same_bucket_keys rng (2 * keys_per_thread) in
        let ks0 = List.filteri (fun i _ -> i < keys_per_thread) ks in
        let ks1 = List.filteri (fun i _ -> i >= keys_per_thread) ks in
        [ clht_case ks0 ks1 ]);
    warmup = (fun () -> clht_case [ 3; 5; 7 ] [ 11; 13; 17 ]);
    reference = false;
  }

let workloads = [ case_sweep; pmdk_mf2; clht_conc ]

(* --- the verdict oracle ---------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Judged against the case's hand-written expectation, never against
   execution counts (a smarter search may legitimately explore fewer). *)
let verdict_error c (o : Explorer.outcome) =
  match c.expected with
  | None ->
      if o.bugs <> [] then
        Some ("clean case reported: " ^ String.concat "; " (List.map Bug.symptom o.bugs))
      else if not o.stats.exhausted then Some "clean case was not explored exhaustively"
      else None
  | Some fragments ->
      if List.exists (fun b -> List.exists (contains (Bug.symptom b)) fragments) o.bugs then None
      else
        Some
          (Printf.sprintf "seeded bug not reported (expected one of [%s], got [%s])"
             (String.concat "; " fragments)
             (String.concat "; " (List.map Bug.symptom o.bugs)))

let report o = Format.asprintf "%a" Explorer.pp_report o

(* --- measurement ----------------------------------------------------------- *)

let clock () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

external cpu : unit -> float = "perfbench_process_cputime"

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* --- host calibration ------------------------------------------------------

   This benchmark runs on shared virtual machines whose speed drifts by tens
   of percent over minutes, for two reasons the program has no part in.
   Neighbours load the memory system, so the same pass can take 1.1 s in one
   minute and 1.9 s in the next; and the hypervisor takes vCPUs away (steal
   time). Every time metric is therefore calibrated:

   - multiplied by [nominal_probe_s /. p], where [p] is the CPU time a fixed
     allocation-heavy probe took next to the measurement, in a fresh process
     (so nothing in this process's heap or GC settings reaches it) and using
     only the standard library (so no change to the checker can move it).
     CPU time, so steal does not reach the probe either. [nominal_probe_s]
     is the probe's time on a quiet 2-vCPU Xeon KVM guest, so calibrated
     times read as seconds on that host;
   - wall-clock times are also multiplied by the share of the pass's wall
     time the hypervisor left to the guest: 1 - steal / (vCPUs * wall).

   The raw times are printed beside the calibrated ones. *)

let nominal_probe_s = 0.060

let probe_kernel () =
  let acc = ref 0 in
  for i = 1 to 300 do
    let l = List.init 5000 (fun j -> (i * j) land 1023) in
    let h = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace h (k land 255) k) l;
    acc := !acc + Hashtbl.length h + List.fold_left ( + ) 0 l
  done;
  ignore (Sys.opaque_identity !acc)

let probe_main () =
  let times =
    List.init 3 (fun _ ->
        let t0 = cpu () in
        probe_kernel ();
        cpu () -. t0)
  in
  Printf.printf "%.9f\n" (median times)

(* Runs this executable with [args] in a fresh process and returns the
   positive number it prints. *)
let child what args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (snd (Unix.waitpid [] pid), float_of_string_opt line) with
  | Unix.WEXITED 0, Some v when v > 0. -> v
  | _ -> failwith (what ^ " failed")

let probe () = child "host calibration probe" [ "--probe" ]

(* Seconds the hypervisor took from this guest's vCPUs so far (the steal
   column of /proc/stat, in USER_HZ = 100 ticks); 0 where it is unreadable. *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value ~default:0. (float_of_string_opt steal) /. 100.
      | _ -> 0.)
  | None -> 0.
  | exception Sys_error _ -> 0.

(* What the runtime did during one verdict, summed over every domain. *)
type gc_use = {
  minor_collections : float;
  major_collections : float;
  minor_words : float;
  major_words : float;
}

let gc_between (a : Gc.stat) (b : Gc.stat) =
  {
    minor_collections = float_of_int (b.minor_collections - a.minor_collections);
    major_collections = float_of_int (b.major_collections - a.major_collections);
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
  }

type verdict = {
  seconds : float;  (** wall time of the [Explorer.run] call *)
  cpu_s : float;
  gc : gc_use;
  outcome : Explorer.outcome option;  (** [None]: it raised *)
}

type pass = {
  wall : float;  (** the pass's verdict times, summed *)
  cpu_s : float;
  verdicts : verdict list;
  spans : Spans.span list;
  traced : bool;
  scale : float;  (** calibration factor for this pass's times *)
  unstolen : float;  (** the share of the pass's wall time the guest kept *)
}

let errors = ref 0
let attempted = ref 0

let fail case msg =
  incr errors;
  Printf.eprintf "WRONG VERDICT %s: %s\n%!" case.id msg

let next_verdict = ref 0

(* The benchmark's own wrappers around each layer it calls. [name] stays the
   scenario's, since checkpoint and fleet fingerprints are keyed by it. *)
let traced_scenario (s : Explorer.scenario) ~verdict ~parent =
  {
    s with
    pre = Spans.around ~name:"scenario.pre" ~verdict ~parent s.pre;
    post = Spans.around ~name:"scenario.post" ~verdict ~parent s.post;
  }

(* Every verdict starts on a collected heap, as a fresh `jaaru check` process
   does. Otherwise a short case pays the major-GC work the case before it
   left behind, and the seed's case order shows up in its time. *)
let run_case ~trace c =
  let verdict = !next_verdict in
  incr next_verdict;
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let c0 = cpu () in
  let t0 = clock () in
  let result =
    try
      Ok
        (if trace then begin
           let id = Spans.fresh_id () in
           Spans.around ~id ~name:"explorer.run" ~verdict ~parent:(-1)
             (Explorer.run ~config:c.config)
             (traced_scenario c.scenario ~verdict ~parent:id)
         end
         else Explorer.run ~config:c.config c.scenario)
    with e -> Error e
  in
  let seconds = clock () -. t0 in
  let cpu_s = cpu () -. c0 in
  let gc = gc_between gc0 (Gc.quick_stat ()) in
  ({ seconds; cpu_s; gc; outcome = Result.to_option result }, result)

let run_checked ~trace ~references c =
  incr attempted;
  let v, result = run_case ~trace c in
  (match result with
  | Error e -> fail c ("raised " ^ Printexc.to_string e)
  | Ok o -> (
      (match verdict_error c o with Some msg -> fail c msg | None -> ());
      match Hashtbl.find_opt references c.id with
      | Some r when r <> report o -> fail c "report differs from the jobs-2 reference"
      | _ -> ()));
  v

let run_pass ~trace ~references cases =
  ignore (Spans.drain ());
  let verdicts = List.map (run_checked ~trace ~references) cases in
  let sum f = List.fold_left (fun a v -> a +. f v) 0. verdicts in
  {
    wall = sum (fun v -> v.seconds);
    cpu_s = sum (fun v -> v.cpu_s);
    verdicts;
    spans = Spans.drain ();
    traced = trace;
    scale = 1.;
    unstolen = 1.;
  }

let scale_of p_before p_after = nominal_probe_s /. ((p_before +. p_after) /. 2.)

(* Runs [f], returning its result and the share of its wall time the
   hypervisor left to the guest. *)
let guest_share f =
  let t0 = clock () in
  let s0 = steal_s () in
  let v = f () in
  let wall = clock () -. t0 in
  let stolen = (steal_s () -. s0) /. float_of_int (Domain.recommended_domain_count ()) in
  (v, Float.max 0.5 (1. -. (stolen /. wall)))

(* What one pass's wall-clock times are multiplied by. *)
let wall_scale p = p.scale *. p.unstolen

let setup_reps = 7

(* One set-up: build the workload's cases from the seed and run its warm-up
   verdict. Repeated [setup_reps] times; returns the cases, the raw median
   set-up time and its calibration factor. *)
let setup w seed =
  let p0 = probe () in
  let reps, kept =
    guest_share (fun () ->
        List.init setup_reps (fun _ ->
            Gc.full_major ();
            let t0 = clock () in
            let cases = w.build (Random.State.make [| seed |]) in
            let warmup = w.warmup () in
            ignore (Explorer.run ~config:warmup.config warmup.scenario);
            (cases, clock () -. t0)))
  in
  (fst (List.hd reps), median (List.map snd reps), scale_of p0 (probe ()) *. kept)

(* The jobs-2 report of every case, checked by the oracle like any verdict;
   the timed jobs-1 verdicts must then reproduce it exactly. *)
let references w cases =
  let tbl = Hashtbl.create 8 in
  if w.reference then
    List.iter
      (fun c ->
        let c2 = { c with config = { c.config with Config.jobs = 2 } } in
        let v = run_checked ~trace:false ~references:tbl c2 in
        Option.iter (fun o -> Hashtbl.replace tbl c.id (report o)) v.outcome)
      cases;
  tbl

(* Passes until [seconds] have elapsed, with a calibration probe before the
   first pass and after every pass. *)
let measure w ~seconds ~trace ~references cases =
  let per_pass = List.length cases in
  let t0 = clock () in
  let rec loop acc n p_before =
    let elapsed = clock () -. t0 in
    let have_both =
      (not trace)
      || (List.exists (fun p -> p.traced) acc && List.exists (fun p -> not p.traced) acc)
    in
    if elapsed >= seconds && n * per_pass >= w.min_verdicts && have_both then List.rev acc
    else
      (* Traced runs alternate, starting untraced. *)
      let p, kept =
        guest_share (fun () -> run_pass ~trace:(trace && n mod 2 = 1) ~references cases)
      in
      let p_after = probe () in
      loop ({ p with scale = scale_of p_before p_after; unstolen = kept } :: acc) (n + 1) p_after
  in
  loop [] 0 (probe ())

(* --- reporting ------------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; note : string }

let m ?(note = "") mname unit_ value = { mname; value; unit_; note }

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The verdict percentiles are over the workload's cases, each case
   represented by its median time across the run's passes (every pass runs
   the same cases in the same order). Pooled over single verdicts, the median
   jumped between neighbouring cases from run to run, and on pmdk-mf2 it
   falls between two of the six cases. *)
let end_to_end ~setup_s ~setup_scale ~peak_heap_mb passes =
  let n = List.length passes in
  let over_passes f = median (List.map f passes) in
  let raw f = Printf.sprintf "median of %d passes; raw %.4g s" n (over_passes f) in
  let ncases = List.length (List.hd passes).verdicts in
  let case_times =
    List.init ncases (fun i ->
        over_passes (fun p -> (List.nth p.verdicts i).seconds *. wall_scale p))
  in
  let over_cases = Printf.sprintf "over %d cases x %d passes" ncases n in
  [
    m "wall_s" "s" (over_passes (fun p -> p.wall *. wall_scale p)) ~note:(raw (fun p -> p.wall));
    m "cpu_s" "s" (over_passes (fun p -> p.cpu_s *. p.scale)) ~note:(raw (fun p -> p.cpu_s));
    m "verdict_p50_s" "s" (median case_times) ~note:over_cases;
    m "verdict_p90_s" "s" (percentile 0.9 case_times) ~note:over_cases;
    m "peak_heap_mb" "MB" peak_heap_mb
      ~note:"top of the major heap over one pass in a fresh process";
    m "setup_s" "s" (setup_s *. setup_scale)
      ~note:(Printf.sprintf "median of %d set-ups; raw %.4g s" setup_reps setup_s);
  ]

let ratio a b = if b = 0. then 0. else a /. b

(* Why a workload cannot produce a per-layer metric; it is then reported
   as 0 and the table says why. *)
let not_produced cases name =
  let all p = List.for_all p cases in
  match name with
  | "analysis.findings" when all (fun c -> not c.config.Config.analyze) ->
      Some "analysis is off on every case"
  | "post.crashes" when all (fun c -> c.config.Config.max_failures = 1) ->
      Some "max_failures 1: recovery itself is never crashed"
  | "post.bugs" when all (fun c -> c.expected = None) ->
      Some "every case is clean, so a bug here is a wrong verdict"
  | _ -> None

let per_layer cases passes =
  let traced, untraced = List.partition (fun p -> p.traced) passes in
  let median_wall ps = median (List.map (fun p -> p.wall *. wall_scale p) ps) in
  let k = float_of_int (List.length traced) in
  let per_pass f = List.fold_left (fun acc p -> acc +. f p) 0. traced /. k in
  let per_pass_s f = per_pass (fun p -> f p *. wall_scale p) in
  let stat f =
    per_pass (fun p ->
        List.fold_left
          (fun acc v ->
            match v.outcome with Some o -> acc +. float_of_int (f o.Explorer.stats) | None -> acc)
          0. p.verdicts)
  in
  let spans name = List.filter (fun (s : Spans.span) -> s.name = name) in
  let busy name p = List.fold_left (fun a s -> a +. Spans.duration_s s) 0. (spans name p.spans) in
  let layer name =
    let all p = spans name p.spans in
    let count f = per_pass (fun p -> float_of_int (List.length (List.filter f (all p)))) in
    ( count (fun _ -> true),
      per_pass_s (busy name),
      per_pass (fun p -> List.fold_left (fun a (s : Spans.span) -> a +. s.alloc_words) 0. (all p))
      /. 1e6,
      count (fun s -> s.result = Spans.Crashed),
      count (fun s -> s.result = Spans.Bug_found) )
  in
  let run_s = per_pass_s (busy "explorer.run") in
  let pre_calls, pre_s, pre_alloc, pre_crashes, _ = layer "scenario.pre" in
  let post_calls, post_s, post_alloc, post_crashes, post_bugs = layer "scenario.post" in
  let executions = stat (fun s -> s.executions) in
  let snap_hits = stat (fun s -> s.snapshot_hits) in
  let snap_misses = stat (fun s -> s.snapshot_misses) in
  let memo_hits = stat (fun s -> s.memo_hits) and memo_misses = stat (fun s -> s.memo_misses) in
  let gc f = per_pass (fun p -> List.fold_left (fun a v -> a +. f v.gc) 0. p.verdicts) in
  let metrics =
    [
      m "explorer.run_s" "s" run_s;
      m "explorer.self_s" "s" (run_s -. pre_s -. post_s);
      m "explorer.execs_per_s" "1/s" (ratio executions run_s);
      m "explorer.executions" "count" executions;
      m "explorer.rf_decisions" "count" (stat (fun s -> s.rf_decisions));
      m "explorer.failure_points" "count" (stat (fun s -> s.failure_points));
      m "snapshot.hits" "count" snap_hits;
      m "snapshot.misses" "count" snap_misses;
      m "snapshot.hit_ratio" "ratio" (ratio snap_hits (snap_hits +. snap_misses));
      m "memo.hits" "count" memo_hits;
      m "memo.misses" "count" memo_misses;
      m "memo.saved" "count" (stat (fun s -> s.memo_saved));
      m "memo.hit_ratio" "ratio" (ratio memo_hits (memo_hits +. memo_misses));
      m "pre.calls" "count" pre_calls;
      m "pre.s" "s" pre_s;
      m "pre.alloc_mw" "Mwords" pre_alloc;
      m "pre.crashes" "count" pre_crashes;
      m "pre.replay_ratio" "ratio" (ratio pre_calls executions);
      m "post.calls" "count" post_calls;
      m "post.s" "s" post_s;
      m "post.alloc_mw" "Mwords" post_alloc;
      m "post.crashes" "count" post_crashes;
      m "post.bugs" "count" post_bugs;
      m "post.per_call_s" "s" (ratio post_s post_calls);
      m "gc.minor_collections" "count" (gc (fun g -> g.minor_collections));
      m "gc.major_collections" "count" (gc (fun g -> g.major_collections));
      m "gc.minor_mw" "Mwords" (gc (fun g -> g.minor_words) /. 1e6);
      m "gc.major_mw" "Mwords" (gc (fun g -> g.major_words) /. 1e6);
      m "analysis.findings" "count"
        (per_pass (fun p ->
             List.fold_left
               (fun a v ->
                 match v.outcome with
                 | Some o -> a +. float_of_int (List.length o.Explorer.findings)
                 | None -> a)
               0. p.verdicts));
      m "trace.overhead_s" "s" (median_wall traced -. median_wall untraced)
        ~note:"median traced pass wall minus median untraced pass wall";
    ]
  in
  List.map
    (fun x ->
      match not_produced cases x.mname with
      | Some why -> { x with note = "n/a: " ^ why }
      | None -> x)
    metrics

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json ~correct metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    !attempted !errors
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_number x.value)
              x.unit_)
          metrics))

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-24s %14.6g %-7s %s\n" x.mname x.value x.unit_
        (if x.note = "" then "" else "  " ^ x.note))
    metrics

(* --- command line ---------------------------------------------------------- *)

let usage =
  "bench.exe --workload (case-sweep|pmdk-mf2|clht-conc) --seed N --seconds S --trace 0|1 \
   [--spans-out FILE]"

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--probe" ] ->
      probe_main ();
      exit 0
  | [ _; "--heap-pass"; name; seed ] ->
      (* One pass of the workload in this fresh process, for peak_heap_mb.
         The cases run in id order: the peak depends on where the major GC
         cycles fall in the sequence, and the seed's order would add that
         as noise. *)
      let w = List.find (fun w -> w.name = name) workloads in
      List.iter
        (fun c ->
          Gc.full_major ();
          ignore (Explorer.run ~config:c.config c.scenario))
        (List.sort
           (fun a b -> compare a.id b.id)
           (w.build (Random.State.make [| int_of_string seed |])));
      Printf.printf "%.6f\n" (top_heap_mb ());
      exit 0
  | _ -> ());
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for case order and keys");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let trace = !trace = 1 in
  let cases, setup_s, setup_scale = setup w !seed in
  let references = references w cases in
  let passes = measure w ~seconds:!seconds ~trace ~references cases in
  let metrics =
    if trace then per_layer cases passes
    else
      let peak_heap_mb = child "peak-heap pass" [ "--heap-pass"; w.name; string_of_int !seed ] in
      end_to_end ~setup_s ~setup_scale ~peak_heap_mb passes
  in
  let verdict_error_share = ratio (float_of_int !errors) (float_of_int !attempted) in
  Printf.printf "workload %s, seed %d, %d passes of %d verdicts\n" w.name !seed
    (List.length passes) (List.length cases);
  Printf.printf "  pass walls (s): %s\n"
    (String.concat " "
       (List.map
          (fun p ->
            Printf.sprintf "%.3f%s(x%.3f,%.3f)" p.wall
              (if p.traced then "t" else "")
              p.scale p.unstolen)
          passes));
  print_table
    (if trace then "per-layer metrics (per traced pass):" else "end-to-end metrics:")
    metrics;
  Printf.printf "  %-24s %14.6g %-7s   %d wrong of %d verdicts attempted\n" "verdict_error_share"
    verdict_error_share "ratio" !errors !attempted;
  if !spans_out <> "" then Spans.write !spans_out (List.concat_map (fun p -> p.spans) passes);
  let correct = !errors = 0 in
  print_endline (json ~correct metrics);
  if not correct then exit 1
