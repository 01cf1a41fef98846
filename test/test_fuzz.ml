(* Fuzz.run aggregation: the deduplicated output must be a function of the
   seed *set* — permuting the seed list or exploring each seed with a
   different worker count must not change [bugs] or [buggy_seeds]. *)
open Jaaru

let base = 0x1000

(* Two racing writers plus an oracle that rejects any state where t0's store
   persisted: every seed finds the bug, but the trace attached to it depends
   on that seed's schedule, so a first-seen dedup would keep whichever seed
   was listed first. *)
let racy_scenario () =
  Explorer.scenario ~name:"fuzz-racy"
    ~pre:(fun ctx ->
      Ctx.parallel ctx
        [
          (fun ctx ->
            Ctx.store64 ctx ~label:"t0-store" base 1;
            Ctx.clflush ctx ~label:"t0-flush" base 8);
          (fun ctx ->
            Ctx.store64 ctx ~label:"t1-store" (base + 64) 2;
            Ctx.clflush ctx ~label:"t1-flush" (base + 64) 8);
        ])
    ~post:(fun ctx ->
      Ctx.check ctx ~label:"oracle" (Ctx.load64 ctx ~label:"ra" base <> 1) "t0 persisted")

let seeds = [ 11; 3; 7; 1; 5 ]

let test_seed_order_invariance () =
  let scn = racy_scenario () in
  let r = Fuzz.run ~seeds scn in
  Alcotest.(check bool) "found" true (Fuzz.found_bug r);
  Alcotest.(check int) "every seed hits" (List.length seeds) (List.length r.Fuzz.buggy_seeds);
  List.iter
    (fun seeds' ->
      let r' = Fuzz.run ~seeds:seeds' scn in
      Alcotest.(check bool) "same bugs" true (r'.Fuzz.bugs = r.Fuzz.bugs);
      Alcotest.(check (list (pair int (list string))))
        "same buggy seeds" r.Fuzz.buggy_seeds r'.Fuzz.buggy_seeds;
      Alcotest.(check int) "same totals" r.Fuzz.total_executions r'.Fuzz.total_executions)
    [ List.rev seeds; List.sort compare seeds; [ 5; 11; 1; 7; 3 ] ]

let test_keep_min_representative () =
  (* The dedup must keep exactly the smallest record per report key over the
     union of every seed's reports — the explorer's own discipline. *)
  let scn = racy_scenario () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      let config = { Config.default with Config.schedule_seed = Some seed } in
      List.iter
        (fun b ->
          let key = Bug.report_key b in
          match Hashtbl.find_opt tbl key with
          | Some b' when compare b' b <= 0 -> ()
          | Some _ | None -> Hashtbl.replace tbl key b)
        (Explorer.run ~config scn).Explorer.bugs)
    seeds;
  let expected = List.sort compare (Hashtbl.fold (fun _ b acc -> b :: acc) tbl []) in
  let r = Fuzz.run ~seeds scn in
  Alcotest.(check bool) "min representative per key" true (r.Fuzz.bugs = expected)

let test_all_symptoms_recorded () =
  (* A seed whose exploration reports two distinct manifestations must
     record both symptoms (the old code kept only the first). The load
     below has two read-from candidates when the crash lands before the
     flush, and each branch fails a different assertion. *)
  let scn =
    Explorer.scenario ~name:"fuzz-two-symptoms"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.clflush ctx ~label:"f" base 8)
      ~post:(fun ctx ->
        if Ctx.load64 ctx ~label:"r" base = 1 then
          Ctx.check ctx ~label:"sym-persisted" false "value persisted"
        else Ctx.check ctx ~label:"sym-lost" false "value lost")
  in
  let r = Fuzz.run ~seeds:[ 2; 1 ] scn in
  let expected = [ "Assertion failure at sym-lost"; "Assertion failure at sym-persisted" ] in
  Alcotest.(check (list (pair int (list string))))
    "both symptoms, per seed, sorted"
    [ (1, expected); (2, expected) ]
    r.Fuzz.buggy_seeds

let test_jobs_invariance () =
  let scn = racy_scenario () in
  let reference = Fuzz.run ~config:{ Config.default with Config.jobs = 1 } ~seeds scn in
  List.iter
    (fun jobs ->
      let r = Fuzz.run ~config:{ Config.default with Config.jobs = jobs } ~seeds scn in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d same bugs" jobs)
        true
        (r.Fuzz.bugs = reference.Fuzz.bugs);
      Alcotest.(check (list (pair int (list string))))
        (Printf.sprintf "jobs=%d same buggy seeds" jobs)
        reference.Fuzz.buggy_seeds r.Fuzz.buggy_seeds)
    [ 2; 4 ]

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "seed order" `Quick test_seed_order_invariance;
          Alcotest.test_case "min representative" `Quick test_keep_min_representative;
          Alcotest.test_case "all symptoms recorded" `Quick test_all_symptoms_recorded;
          Alcotest.test_case "jobs" `Quick test_jobs_invariance;
        ] );
    ]
