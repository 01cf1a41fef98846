(* Prints, for each Buffered-eviction case, how many distinct recovery
   observations Jaaru's exploration produces and a digest of them; dune
   diffs it against buffered_observations.expected. An observation is one
   execution's recovery loads and locked RMWs after the crash, as rendered
   trace events, plus the bug symptom if recovery hit one (after a crash
   during recovery, the last recovery's). The file pins
   what recovery can see under store buffers, whatever the search does to
   reach it. *)
open Jaaru

let depth = 50_000

(* The case's recovery, observed: its post-crash Load and Rmw events in
   order, then the symptom of the bug that stopped it, if any. *)
let observe post ctx =
  let symptom =
    match post ctx with
    | () -> "ok"
    | exception Bug.Found (kind, location) -> Format.asprintf "bug: %a at %s" Bug.pp_kind kind location
  in
  if Ctx.trace_dropped ctx > 0 then failwith "trace ring too shallow for an observation";
  (* Events after the last crash: earlier ones belong to the crashed run. *)
  let recovery =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Analysis.Event.Crash _ -> []
        | Analysis.Event.Load _ | Analysis.Event.Rmw _ -> Analysis.Event.render ev :: acc
        | _ -> acc)
      [] (Ctx.trace_raw ctx)
  in
  String.concat "\n" (List.rev_append recovery [ symptom ])

let print name ~config ~pre ~post =
  let config = { config with Config.evict_policy = Config.Buffered; trace_depth = depth } in
  let obs = Yat.Eager.jaaru_behaviors ~config ~pre ~post:(observe post) () in
  Printf.printf "%s: %d observations, digest %s\n" name (List.length obs)
    (Digest.to_hex (Digest.string (String.concat "\n--\n" obs)))

(* Litmus shape: the explicit crash is the only failure. *)
let litmus name pre post =
  print name
    ~config:{ Config.default with Config.max_failures = 0 }
    ~pre:(fun ctx ->
      pre ctx;
      Ctx.crash ctx)
    ~post

let a0 = 0x1000

let read_a0 ctx = ignore (Ctx.load64 ctx ~label:"rA" a0)

let () =
  let c = Recipe.Workloads.(find (concurrent_cases ()) "P-CLHT-concurrent") in
  print "P-CLHT-concurrent" ~config:c.config ~pre:c.scenario.Explorer.pre
    ~post:c.scenario.Explorer.post;
  (* A recovery that crashes leaves its own pending cut over the first
     crash's: the observations of the second recovery. *)
  print "P-CLHT-concurrent max_failures=2"
    ~config:{ c.config with Config.max_failures = 2 }
    ~pre:c.scenario.Explorer.pre ~post:c.scenario.Explorer.post;
  print "explicit-crash"
    ~config:{ Config.default with Config.max_failures = 0 }
    ~pre:Scenarios.explicit_crash.Explorer.pre ~post:Scenarios.explicit_crash.Explorer.post;
  (* The eviction-policy ablation's workload (bench/main.ml): four lines,
     each stored, clflushed and fenced. *)
  let base = 0x1000 in
  print "eviction ablation" ~config:Config.default
    ~pre:(fun ctx ->
      for i = 0 to 3 do
        Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
        Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8;
        Ctx.sfence ctx ~label:"s" ()
      done)
    ~post:(fun ctx ->
      for i = 0 to 3 do
        ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
      done);
  (* The buffered-policy litmus programs of test_litmus.ml. *)
  litmus "litmus store dies in SB" (fun ctx -> Ctx.store64 ctx a0 7) read_a0;
  litmus "litmus clflush in SB void"
    (fun ctx ->
      Ctx.store64 ctx a0 7;
      Ctx.clflush ctx a0 8)
    read_a0;
  litmus "litmus mfence pins"
    (fun ctx ->
      Ctx.store64 ctx a0 7;
      Ctx.clflush ctx a0 8;
      Ctx.mfence ctx ())
    read_a0;
  (* The first recovery buffers stores of its own and crashes, so the
     second reads through two pending cuts: a0 is 8, or what the first
     crash kept of 7. *)
  let a1 = a0 + 64 in
  litmus "litmus two crashes"
    (fun ctx -> Ctx.store64 ctx a0 7)
    (fun ctx ->
      if Ctx.failures ctx = 1 then begin
        Ctx.store64 ctx a0 8;
        Ctx.store64 ctx a1 9;
        Ctx.crash ctx
      end
      else begin
        read_a0 ctx;
        ignore (Ctx.load64 ctx ~label:"rB" a1)
      end)
