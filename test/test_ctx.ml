(* Checker-context behaviour: oracles, RMWs, threads, eviction policies,
   multi-failure scenarios. *)
open Jaaru

let no_failures = { Config.default with Config.max_failures = 0 }
let base = 0x1000

let run_one ?(config = no_failures) body =
  Explorer.run ~config (Explorer.scenario ~name:"t" ~pre:body ~post:(fun _ -> ()))

let kind_of o =
  match o.Explorer.bugs with [] -> None | b :: _ -> Some b.Bug.kind

(* --- bug oracles -------------------------------------------------------- *)

let test_illegal_store_low () =
  match kind_of (run_one (fun ctx -> Ctx.store64 ctx 0x10 1)) with
  | Some (Bug.Illegal_access { op = "store"; addr = 0x10; width = 8 }) -> ()
  | _ -> Alcotest.fail "expected illegal store"

let test_illegal_load_high () =
  let config = no_failures in
  let limit = config.Config.region_base + config.Config.region_size in
  match kind_of (run_one (fun ctx -> ignore (Ctx.load8 ctx limit))) with
  | Some (Bug.Illegal_access { op = "load"; width = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected illegal load"

let test_access_straddling_limit () =
  let config = no_failures in
  let limit = config.Config.region_base + config.Config.region_size in
  match kind_of (run_one (fun ctx -> Ctx.store64 ctx (limit - 4) 1)) with
  | Some (Bug.Illegal_access _) -> ()
  | _ -> Alcotest.fail "straddling access must be illegal"

let test_infinite_loop_detected () =
  let config = { no_failures with Config.max_steps = 1000 } in
  match kind_of (run_one ~config (fun ctx ->
      while true do Ctx.progress ctx () done)) with
  | Some (Bug.Infinite_loop _) -> ()
  | _ -> Alcotest.fail "expected loop detection"

let test_program_exception_captured () =
  match kind_of (run_one (fun _ -> failwith "boom")) with
  | Some (Bug.Program_exception _) -> ()
  | _ -> Alcotest.fail "expected captured exception"

let test_assertions () =
  (match kind_of (run_one (fun ctx -> Ctx.check ctx false "nope")) with
  | Some (Bug.Assertion_failure "nope") -> ()
  | _ -> Alcotest.fail "expected assertion");
  match kind_of (run_one (fun ctx -> Ctx.check ctx true "ok")) with
  | None -> ()
  | Some _ -> Alcotest.fail "true assertion must not fire"

(* --- loads, stores, widths ------------------------------------------------ *)

let test_width_roundtrips () =
  let o =
    run_one (fun ctx ->
        Ctx.store64 ctx base 0x0102030405060708;
        Ctx.check ctx (Ctx.load64 ctx base = 0x0102030405060708) "64";
        Ctx.check ctx (Ctx.load32 ctx base = 0x05060708) "low 32";
        Ctx.check ctx (Ctx.load32 ctx (base + 4) = 0x01020304) "high 32";
        Ctx.check ctx (Ctx.load16 ctx (base + 2) = 0x0506) "mid 16";
        Ctx.check ctx (Ctx.load8 ctx (base + 7) = 0x01) "top byte";
        Ctx.store8 ctx (base + 3) 0xff;
        Ctx.check ctx (Ctx.load64 ctx base = 0x01020304ff060708) "byte patch";
        Ctx.store16 ctx (base + 62) 0xabcd;
        Ctx.check ctx (Ctx.load16 ctx (base + 62) = 0xabcd) "line straddle")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_initial_zero () =
  let o = run_one (fun ctx -> Ctx.check ctx (Ctx.load64 ctx base = 0) "initial") in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_memset_memcpy () =
  let o =
    run_one (fun ctx ->
        Ctx.memset ctx base 0xab 20;
        Ctx.check ctx (Ctx.load8 ctx base = 0xab) "first byte";
        Ctx.check ctx (Ctx.load8 ctx (base + 19) = 0xab) "last byte";
        Ctx.check ctx (Ctx.load8 ctx (base + 20) = 0) "one past untouched";
        Ctx.check ctx (Ctx.load64 ctx (base + 8) = -0x5454545454545455) "full word pattern" |> ignore;
        Ctx.memcpy ctx ~dst:(base + 64) ~src:base 20;
        Ctx.check ctx (Ctx.load8 ctx (base + 64) = 0xab) "copied first";
        Ctx.check ctx (Ctx.load8 ctx (base + 83) = 0xab) "copied last";
        Ctx.check ctx (Ctx.load8 ctx (base + 84) = 0) "copy bounded")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_memcpy_persist_durable () =
  (* After memcpy_persist the destination is pinned: recovery at the final
     crash must observe the copied bytes. *)
  let behaviors =
    let config = { Config.default with Config.max_failures = 0 } in
    Yat.Eager.jaaru_behaviors ~config
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"src" base 0x1122334455667788;
        Ctx.memcpy_persist ctx ~dst:(base + 64) ~src:base 8;
        Ctx.crash ctx)
      ~post:(fun ctx -> Printf.sprintf "%x" (Ctx.load64 ctx ~label:"r" (base + 64)))
      ()
  in
  Alcotest.(check (list string)) "destination durable" [ "1122334455667788" ] behaviors

let test_crash_inside_parallel () =
  (* Failure points fire inside fibers; each thread's committed line is
     independently durable. *)
  let pre ctx =
    Ctx.parallel ctx
      [
        (fun ctx ->
          Ctx.store64 ctx ~label:"t0 w" base 1;
          Ctx.clflush ctx ~label:"t0 f" base 8;
          Ctx.sfence ctx ~label:"t0 s" ());
        (fun ctx ->
          Ctx.store64 ctx ~label:"t1 w" (base + 64) 2;
          Ctx.clflush ctx ~label:"t1 f" (base + 64) 8;
          Ctx.sfence ctx ~label:"t1 s" ());
      ]
  in
  let seen = ref [] in
  let post ctx =
    let a = Ctx.load64 ctx ~label:"r0" base in
    let b = Ctx.load64 ctx ~label:"r1" (base + 64) in
    if not (List.mem (a, b) !seen) then seen := (a, b) :: !seen
  in
  let scn = Explorer.scenario ~name:"par-crash" ~pre ~post in
  let o = Explorer.run scn in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted;
  (* Under the fixed round-robin schedule thread 0's flush precedes thread
     1's store, so (0,2) is unreachable — Jaaru explores crash states
     exhaustively but schedules are fixed per run (paper §4, Discussion). *)
  List.iter
    (fun st -> Alcotest.(check bool) "round-robin state" true (List.mem st !seen))
    [ (0, 0); (1, 0); (1, 2) ];
  Alcotest.(check bool) "(0,2) needs another schedule" false (List.mem (0, 2) !seen);
  (* Schedule fuzzing reaches the fourth combination. *)
  List.iter
    (fun seed ->
      let config = { Config.default with Config.schedule_seed = Some seed } in
      ignore (Explorer.run ~config scn))
    (List.init 10 succ);
  Alcotest.(check bool) "(0,2) found by fuzzing" true (List.mem (0, 2) !seen)

(* --- locked RMW ------------------------------------------------------------ *)

let test_rmw_semantics () =
  let o =
    run_one (fun ctx ->
        Ctx.check ctx (Ctx.cas64 ctx base ~expected:0 ~desired:5) "cas on zero";
        Ctx.check ctx (not (Ctx.cas64 ctx base ~expected:0 ~desired:9)) "cas fails";
        Ctx.check ctx (Ctx.load64 ctx base = 5) "cas stored";
        Ctx.check ctx (Ctx.xchg64 ctx base 7 = 5) "xchg returns old";
        Ctx.check ctx (Ctx.fetch_add64 ctx base 10 = 7) "faa returns old";
        Ctx.check ctx (Ctx.load64 ctx base = 17) "faa added")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

(* --- threads ---------------------------------------------------------------- *)

let test_parallel_tso_visibility () =
  (* Buffered policy: buffered stores are invisible to the sibling thread
     but visible to their own thread via bypass. *)
  let config = { no_failures with Config.evict_policy = Config.Buffered } in
  let o =
    run_one ~config (fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"t0 w" base 1;
              Ctx.check ctx (Ctx.load64 ctx ~label:"t0 own" base = 1) "own bypass");
            (fun ctx ->
              Ctx.store64 ctx ~label:"t1 w" (base + 64) 2;
              Ctx.check ctx (Ctx.load64 ctx ~label:"t1 own" (base + 64) = 2) "own bypass t1");
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_parallel_fence_publishes () =
  let config = { no_failures with Config.evict_policy = Config.Buffered } in
  let saw = ref (-1) in
  let o =
    run_one ~config (fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"w" base 42;
              Ctx.mfence ctx ~label:"publish" ());
            (fun ctx ->
              (* Round-robin guarantees the fence ran before this load's turn
                 comes a second time. *)
              ignore (Ctx.load64 ctx ~label:"first" base);
              saw := Ctx.load64 ctx ~label:"second" base);
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check int) "published" 42 !saw

let test_parallel_exception_unwinds () =
  match kind_of (run_one (fun ctx ->
      Ctx.parallel ctx [ (fun ctx -> Ctx.abort ctx "in fiber") ])) with
  | Some (Bug.Assertion_failure "in fiber") -> ()
  | _ -> Alcotest.fail "fiber bug must surface"

let test_many_yields_stack_safe () =
  let o =
    run_one (fun ctx ->
        let config = Ctx.config ctx in
        ignore config;
        Ctx.parallel ctx
          [
            (fun _ -> for _ = 1 to 50_000 do Scheduler.yield () done);
            (fun _ -> for _ = 1 to 50_000 do Scheduler.yield () done);
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

(* --- eviction policies and crashes ------------------------------------------- *)

let test_buffered_store_lost_at_crash () =
  (* Under the Buffered policy a store still in the store buffer at the
     failure is gone: recovery can only read 0. Under Eager it reached the
     cache, so recovery may read either value. *)
  let behaviors policy =
    let config = { Config.default with Config.evict_policy = policy } in
    let pre ctx =
      Ctx.store64 ctx ~label:"w" base 7;
      (* The flush provides the failure point; the store may or may not have
         drained by then. *)
      Ctx.clflush ctx ~label:"fl other" (base + 64) 8
    in
    let post ctx = Printf.sprintf "x=%d" (Ctx.load64 ctx ~label:"r" base) in
    Yat.Eager.jaaru_behaviors ~config ~pre ~post ()
  in
  Alcotest.(check (list string)) "eager policy sees both" [ "x=0"; "x=7" ]
    (behaviors Config.Eager);
  (* Buffered: the drain choice at the crash explores both 0-drained and
     1-drained prefixes, so both behaviours appear here too — but through
     the Drain decision, not the writeback interval. *)
  Alcotest.(check (list string)) "buffered sees both via drain choice" [ "x=0"; "x=7" ]
    (behaviors Config.Buffered)

let test_multi_failure_depth () =
  (* With max_failures = 2 the recovery itself crashes and recovers. *)
  let config = { Config.default with Config.max_failures = 2 } in
  let max_depth = ref 0 in
  let pre ctx =
    Ctx.store64 ctx ~label:"w" base 1;
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let post ctx =
    if Ctx.failures ctx > !max_depth then max_depth := Ctx.failures ctx;
    let v = Ctx.load64 ctx ~label:"r" base in
    Ctx.store64 ctx ~label:"w2" base (v + 10);
    Ctx.clflush ctx ~label:"fl2" base 8
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"mf" ~pre ~post) in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check int) "second failure explored" 2 !max_depth;
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted

let test_multi_failure_reads_previous_recovery () =
  (* A value written by the first recovery must be readable by the second
     when it was flushed, exercising ReadPreFailure across three
     executions. *)
  let config = { Config.default with Config.max_failures = 2 } in
  let ok = ref true in
  let pre ctx =
    Ctx.store64 ctx ~label:"gen0" base 1;
    Ctx.clflush ctx ~label:"fl0" base 8
  in
  let post ctx =
    let v = Ctx.load64 ctx ~label:"r" base in
    (* Every observable value is the initial zero or odd (1, 3, 7, ...):
       each generation stores 2v+1. *)
    if not (v = 0 || v land 1 = 1) then ok := false;
    Ctx.store64 ctx ~label:"bump" base ((2 * v) + 1);
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"mf2" ~pre ~post) in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check bool) "all observed values odd" true !ok

(* --- misc ---------------------------------------------------------------------- *)

let test_trace_recorded () =
  let config = { Config.default with Config.stop_at_first_bug = true } in
  let pre ctx =
    Ctx.store64 ctx ~label:"the store" base 1;
    Ctx.clflush ctx ~label:"the flush" base 8
  in
  let post ctx = ignore (Ctx.load64 ctx ~label:"the load" 0x0) in
  let o = Explorer.run ~config (Explorer.scenario ~name:"tr" ~pre ~post) in
  match o.Explorer.bugs with
  | [ b ] ->
      Alcotest.(check bool) "trace non-empty" true (b.Bug.trace <> []);
      Alcotest.(check bool) "trace mentions the store" true
        (List.exists (fun e -> String.length e > 0) b.Bug.trace)
  | _ -> Alcotest.fail "expected exactly one bug"

let test_in_recovery_flag () =
  let saw = ref [] in
  let pre ctx =
    saw := Ctx.in_recovery ctx :: !saw;
    Ctx.store64 ctx ~label:"w" base 1;
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let post ctx = saw := Ctx.in_recovery ctx :: !saw in
  ignore (Explorer.run (Explorer.scenario ~name:"rec" ~pre ~post));
  Alcotest.(check bool) "pre says false" true (List.mem false !saw);
  Alcotest.(check bool) "post says true" true (List.mem true !saw)

(* Pins the recovery read path allocation-free. After a flushed line's
   crash every byte of it has exactly one read-from candidate, the common
   case in every exploration; such a load must not build candidate lists or
   source records. Event emission (trace ring, analysis passes) is switched
   off: it is not part of the read path. *)
let test_single_candidate_load_allocates_nothing () =
  let config = { Config.default with Config.trace_depth = 0; report_perf = false } in
  let ctx = Ctx.create ~config ~choice:(Choice.create ()) () in
  for i = 0 to 7 do
    Ctx.store64 ctx ~label:"w" (base + (8 * i)) (i + 1)
  done;
  Ctx.clflush ctx ~label:"fl" base 64;
  (try Ctx.crash ctx with Ctx.Power_failure -> ());
  Ctx.after_crash ctx;
  Alcotest.(check int) "reads the flushed value" 3 (Ctx.load64 ctx ~label:"r" (base + 16));
  let loads = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to loads do
    ignore (Sys.opaque_identity (Ctx.load64 ctx ~label:"r" (base + (8 * (i land 7)))))
  done;
  Alcotest.(check (float 0.)) "minor words over the loads" 0. (Gc.minor_words () -. before)

let () =
  Alcotest.run "ctx"
    [
      ( "oracles",
        [
          Alcotest.test_case "illegal store" `Quick test_illegal_store_low;
          Alcotest.test_case "illegal load" `Quick test_illegal_load_high;
          Alcotest.test_case "straddling access" `Quick test_access_straddling_limit;
          Alcotest.test_case "infinite loop" `Quick test_infinite_loop_detected;
          Alcotest.test_case "program exception" `Quick test_program_exception_captured;
          Alcotest.test_case "assertions" `Quick test_assertions;
        ] );
      ( "memory",
        [
          Alcotest.test_case "width roundtrips" `Quick test_width_roundtrips;
          Alcotest.test_case "initial zero" `Quick test_initial_zero;
          Alcotest.test_case "rmw" `Quick test_rmw_semantics;
          Alcotest.test_case "memset/memcpy" `Quick test_memset_memcpy;
          Alcotest.test_case "memcpy_persist durable" `Quick test_memcpy_persist_durable;
          Alcotest.test_case "crash inside parallel" `Quick test_crash_inside_parallel;
        ] );
      ( "threads",
        [
          Alcotest.test_case "tso visibility" `Quick test_parallel_tso_visibility;
          Alcotest.test_case "fence publishes" `Quick test_parallel_fence_publishes;
          Alcotest.test_case "exception unwinds" `Quick test_parallel_exception_unwinds;
          Alcotest.test_case "stack safety" `Quick test_many_yields_stack_safe;
        ] );
      ( "failures",
        [
          Alcotest.test_case "buffered store lost" `Quick test_buffered_store_lost_at_crash;
          Alcotest.test_case "multi-failure depth" `Quick test_multi_failure_depth;
          Alcotest.test_case "cross-recovery reads" `Quick test_multi_failure_reads_previous_recovery;
          Alcotest.test_case "single-candidate load allocates nothing" `Quick
            test_single_candidate_load_allocates_nothing;
        ] );
      ( "misc",
        [
          Alcotest.test_case "trace recorded" `Quick test_trace_recorded;
          Alcotest.test_case "in_recovery" `Quick test_in_recovery_flag;
        ] );
    ]
