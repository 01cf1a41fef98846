(* Golden reports: the comparable report ([Explorer.pp_report]) of every case
   `jaaru list` prints, each at its own config on one domain, plus two deeper
   runs. The dune rule diffs the output against golden_reports.expected, so any
   change to what the checker reports — bugs, counts, multi-rf loads,
   performance issues, analysis findings — shows up as a diff across commits,
   not only as a disagreement between two settings within one build. Runs use
   jobs 1 because a run that stops at the first bug may explore a different
   subset of executions at other jobs values. *)
open Jaaru

let pmdk (c : Pmdk.Workloads.case) = (c.id, c.scenario, c.config)
let recipe (c : Recipe.Workloads.case) = (c.id, c.scenario, c.config)

(* The cases in `jaaru list` order. *)
let listed =
  List.map pmdk (Pmdk.Workloads.fig12_cases ())
  @ List.map pmdk (Pmdk.Workloads.fixed_cases ())
  @ List.map pmdk (Pmdk.Workloads.checksum_cases ())
  @ List.map pmdk (Pmdk.Workloads.skiplist_cases ())
  @ List.map recipe (Recipe.Workloads.fig13_cases ())
  @ List.map recipe (Recipe.Workloads.fixed_cases ())
  @ List.map recipe (Recipe.Workloads.concurrent_cases ())

let find id = List.find (fun (id', _, _) -> id' = id) listed

(* Nested crashes, explored exhaustively. *)
let pmdk_mf2 =
  let _, scn, config = find "pmdk-1" in
  ( "pmdk-1 max_failures=2 exhaustive",
    scn,
    { config with Config.max_failures = 2; stop_at_first_bug = false } )

(* Two writer threads under buffered eviction with every analysis pass on:
   the schedule and drain choices branch, and distinct crash points persist
   identical states. *)
let clht_analyze =
  let _, scn, config = find "P-CLHT-concurrent" in
  ( "P-CLHT-concurrent buffered analyze",
    scn,
    { config with Config.evict_policy = Config.Buffered; analyze = true; stop_at_first_bug = false }
  )

let () =
  List.iter
    (fun (name, scn, config) ->
      let o = Explorer.run ~config:{ config with Config.jobs = 1 } scn in
      Format.printf "== %s ==@.%a@.@." name Explorer.pp_report o)
    (listed @ [ pmdk_mf2; clht_analyze ])
