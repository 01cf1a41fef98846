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
  (* Buffered: the recovery read splits the crash's pending store-buffer
     cut at the buffered store — dropped or kept — so both behaviours appear
     here too, but through the Cut decision, not the writeback interval. *)
  Alcotest.(check (list string)) "buffered sees both via cut decision" [ "x=0"; "x=7" ]
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

(* Minor words allocated by [n] calls of [f]. *)
let minor_words_over n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  Gc.minor_words () -. before

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
  Alcotest.(check (float 0.)) "minor words over the loads" 0.
    (minor_words_over 10_000 (fun i -> Ctx.load64 ctx ~label:"r" (base + (8 * (i land 7)))))

let buffered = { Config.default with Config.evict_policy = Config.Buffered; trace_depth = 0; report_perf = false }

(* A load64 that store-buffer forwarding answers in full: two 4-byte stores
   cover it, behind unrelated entries. *)
let test_forwarded_load_allocates_nothing () =
  let ctx = Ctx.create ~config:buffered ~choice:(Choice.create ()) () in
  Ctx.store32 ctx ~label:"lo" base 0x04030201;
  Ctx.store64 ctx ~label:"other" (base + 64) 7;
  Ctx.sfence ctx ();
  Ctx.store32 ctx ~label:"hi" (base + 4) 0x08070605;
  Ctx.store8 ctx ~label:"other" (base + 9) 1;
  Alcotest.(check int) "forwarded value" 0x0807060504030201 (Ctx.load64 ctx ~label:"r" base);
  Alcotest.(check (float 0.)) "minor words over the loads" 0.
    (minor_words_over 10_000 (fun _ -> Ctx.load64 ctx ~label:"r" base))

(* A recovery load64 whose low half is forwarded from the store buffer and
   whose high half has one read-from candidate per byte. *)
let test_mixed_load_allocates_nothing () =
  let ctx = Ctx.create ~config:buffered ~choice:(Choice.create ()) () in
  Ctx.store64 ctx ~label:"w" base 0x1122334455667788;
  Ctx.clflush ctx ~label:"fl" base 8;
  Ctx.mfence ctx ();
  (try Ctx.crash ctx with Ctx.Power_failure -> ());
  Ctx.after_crash ctx;
  Ctx.store32 ctx ~label:"recovery" base 0x0a0b0c0d;
  Alcotest.(check int) "forwarded low half, recovered high half" 0x112233440a0b0c0d
    (Ctx.load64 ctx ~label:"r" base);
  Alcotest.(check (float 0.)) "minor words over the loads" 0.
    (minor_words_over 10_000 (fun _ -> Ctx.load64 ctx ~label:"r" base))

(* A buffered crash with entries still in the store buffer on line A leaves
   the crashed record a pending cut. A recovery load from line B, which no
   pending entry touches, takes the allocation-free path and decides
   nothing. *)
let test_load_beside_pending_cut_allocates_nothing () =
  let choice = Choice.create () in
  let ctx = Ctx.create ~config:buffered ~choice () in
  Ctx.store64 ctx ~label:"b" (base + 64) 0x0102030405060708;
  Ctx.clflush ctx ~label:"fl b" (base + 64) 8;
  Ctx.mfence ctx ();
  Ctx.store64 ctx ~label:"a" base 7;
  Ctx.clflush ctx ~label:"fl a" base 8;
  (try Ctx.crash ctx with Ctx.Power_failure -> ());
  Ctx.after_crash ctx;
  let decisions = Choice.depth choice in
  Alcotest.(check int) "line B as persisted" 0x0102030405060708
    (Ctx.load64 ctx ~label:"r" (base + 64));
  Alcotest.(check (float 0.)) "minor words over the loads" 0.
    (minor_words_over 10_000 (fun _ -> Ctx.load64 ctx ~label:"r" (base + 64)));
  Alcotest.(check int) "no decision taken" decisions (Choice.depth choice)

(* A store wider than a word is refused where it is issued. Under
   [Buffered] it would otherwise wait in the store buffer, and forwarding
   its upper bytes to a load would shift by 64 bits or more. *)
let test_store_width_checked () =
  let ctx = Ctx.create ~config:buffered ~choice:(Choice.create ()) () in
  Alcotest.check_raises "width 16" (Invalid_argument "Ctx.store: width not in [1, 8]")
    (fun () -> Ctx.store ctx ~label:"wide" ~width:16 base 1);
  Alcotest.check_raises "width 0" (Invalid_argument "Ctx.store: width not in [1, 8]")
    (fun () -> Ctx.store ctx ~label:"empty" ~width:0 base 1);
  Alcotest.(check int) "nothing was buffered" 0 (Ctx.load64 ctx ~label:"r" base)

(* --- span loads against the byte-by-byte loop ---------------------------- *)

(* The byte-by-byte load this path replaced, kept as the oracle: per byte,
   the newest buffered store to it wins; otherwise the byte reads from its
   candidate list, recording a multi-rf report and consuming a choice when
   the list has several entries, and [do_read] commits to the source. *)
let reference_forward entries a =
  List.fold_left
    (fun acc e ->
      match e with
      | Tso.Store_buffer.Store { addr; value; width; label = _ } when a >= addr && a < addr + width ->
          Pmem.Bytes_le.byte_at ~width value (a - addr)
      | _ -> acc)
    (-1) entries

let oracle_load ~choice ~stack ~entries ~label addr width =
  let reports = ref [] and v = ref 0 in
  for i = 0 to width - 1 do
    let a = addr + i in
    let b =
      let fwd = reference_forward entries a in
      if fwd >= 0 then fwd
      else
        let candidates = Exec.Read_from.build_may_read_from ~cut:(fun _ -> assert false) stack a in
        let src =
          match candidates with
          | [ only ] -> only
          | _ ->
              reports :=
                {
                  Ctx.load_label = label;
                  load_addr = a;
                  candidates =
                    List.map (fun c -> (c.Exec.Read_from.label, c.Exec.Read_from.value)) candidates;
                }
                :: !reports;
              List.nth candidates (Choice.choose choice Choice.Read_from (List.length candidates))
        in
        Exec.Read_from.do_read stack a src;
        src.Exec.Read_from.value
    in
    v := !v lor (b lsl (8 * i))
  done;
  (!v, List.rev !reports)

(* Stack-building steps, applied alike to the context's stack and to the
   oracle's: stores and flushes into the top record, crashes, and restores
   of the whole stack from snapshot views with a writable top. *)
type span_step = Push of int * int | Flush of int | Crash | Restore

type span_case = {
  steps : span_step list;
  buffered_stores : (int * int * int) list;  (** addr, width, value *)
  load_addr : int;
  load_width : int;
}

(* Offsets 56-71 of lines 0-2 from [base]: loads are unaligned and may cross
   a line. *)
let gen_offset = QCheck2.Gen.(map2 (fun l o -> (64 * l) + o) (int_range 0 2) (int_range 56 71))

let gen_span_case =
  let open QCheck2.Gen in
  let step =
    frequency
      [
        (6, map2 (fun o v -> Push (o, v)) gen_offset (int_range 0 255));
        (3, map (fun o -> Flush o) gen_offset);
        (2, pure Crash);
        (1, pure Restore);
      ]
  in
  map4
    (fun steps buffered_stores load_addr load_width ->
      { steps; buffered_stores; load_addr; load_width })
    (list_size (int_range 0 30) step)
    (list_size (int_range 0 4)
       (triple gen_offset (int_range 1 8) (int_range 0 0xffff_ffff)))
    gen_offset (int_range 1 8)

let print_span_case c =
  let step = function
    | Push (o, v) -> Printf.sprintf "push +%d=%d" o v
    | Flush o -> Printf.sprintf "flush +%d" o
    | Crash -> "crash"
    | Restore -> "restore"
  in
  Printf.sprintf "%s | buffered %s | load +%d/%d"
    (String.concat "; " (List.map step c.steps))
    (String.concat "; "
       (List.map (fun (o, w, v) -> Printf.sprintf "+%d/%d=%x" o w v) c.buffered_stores))
    c.load_addr c.load_width

let build_stack stack steps =
  let seq = ref 0 in
  List.iter
    (function
      | Push (o, value) ->
          incr seq;
          Exec.Exec_record.push_store (Exec.Exec_stack.top stack) (base + o) ~value ~seq:!seq
            ~label:(Printf.sprintf "w%d" !seq)
      | Flush o ->
          incr seq;
          Exec.Exec_record.flush_line (Exec.Exec_stack.top stack) (base + o) ~seq:!seq
      | Crash -> ignore (Exec.Exec_stack.push_fresh stack)
      | Restore ->
          Exec.Exec_stack.restore stack
            (List.mapi
               (fun i e ->
                 if Exec.Exec_record.is_initial e then e
                 else if i = 0 then
                   Exec.Exec_record.snapshot_freeze (Exec.Exec_record.snapshot_view ~bound:!seq e)
                 else Exec.Exec_record.snapshot_view e)
               (Exec.Exec_stack.to_list stack)))
    steps

let line_intervals stack =
  List.concat_map
    (fun e ->
      List.map
        (fun l ->
          let a = base + (64 * l) in
          (Exec.Exec_record.line_lo e a, Exec.Exec_record.line_hi e a))
        [ 0; 1; 2; 3 ])
    (Exec.Exec_stack.to_list stack)

(* One replay of a case under [choice] through [Ctx.load], and one under
   [oracle_choice] through the oracle; both must give the same value, the
   same consumed decisions, the same multi-rf reports and the same line
   intervals on every record. *)
let span_load_agrees c ~choice ~oracle_choice =
  let config = { buffered with Config.report_multi_rf = true } in
  Choice.begin_replay choice;
  Choice.begin_replay oracle_choice;
  let ctx = Ctx.create ~config ~choice () in
  build_stack (Ctx.exec_stack ctx) c.steps;
  let stack = Exec.Exec_stack.create () in
  build_stack stack c.steps;
  let entries =
    List.map
      (fun (o, width, value) ->
        Ctx.store ctx ~label:"buffered" ~width (base + o) value;
        Tso.Store_buffer.Store { addr = base + o; value; width; label = "buffered" })
      c.buffered_stores
  in
  let v = Ctx.load ctx ~label:"load" ~width:c.load_width (base + c.load_addr) in
  let v', reports =
    oracle_load ~choice:oracle_choice ~stack ~entries ~label:"load" (base + c.load_addr)
      c.load_width
  in
  v = v'
  && Choice.consumed choice = Choice.consumed oracle_choice
  && Ctx.multi_rf_reports ctx = reports
  && line_intervals (Ctx.exec_stack ctx) = line_intervals stack

(* Every replay of the case's read-from tree, up to eight: the later
   alternatives of a multi-candidate byte are reached too. *)
let prop_span_load_matches_byte_loop =
  QCheck2.Test.make ~count:2000 ~name:"span load = byte-by-byte load" ~print:print_span_case
    gen_span_case (fun c ->
      let choice = Choice.create () and oracle_choice = Choice.create () in
      let rec replays n =
        span_load_agrees c ~choice ~oracle_choice
        &&
        let more = Choice.advance choice in
        more = Choice.advance oracle_choice && ((not more) || n = 1 || replays (n - 1))
      in
      replays 8)

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
          Alcotest.test_case "store width outside [1, 8]" `Quick test_store_width_checked;
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
      ( "loads",
        [
          Alcotest.test_case "forwarded load allocates nothing" `Quick
            test_forwarded_load_allocates_nothing;
          Alcotest.test_case "forwarded + recovered load allocates nothing" `Quick
            test_mixed_load_allocates_nothing;
          Alcotest.test_case "load beside a pending cut allocates nothing" `Quick
            test_load_beside_pending_cut_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_span_load_matches_byte_loop;
        ] );
      ( "misc",
        [
          Alcotest.test_case "trace recorded" `Quick test_trace_recorded;
          Alcotest.test_case "in_recovery" `Quick test_in_recovery_flag;
        ] );
    ]
