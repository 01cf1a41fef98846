(* Hand-built scenarios shared by the suites and the differential matrix. *)
open Jaaru

let base = 0x1000

(* Four persisted slots, read back after the crash. *)
let flush_loop =
  Explorer.scenario ~name:"flush-loop"
    ~pre:(fun ctx ->
      for i = 0 to 3 do
        Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
        Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8
      done)
    ~post:(fun ctx ->
      for i = 0 to 3 do
        ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
      done)

(* [Ctx.crash] after a decision-free pre: the snapshot key is empty, so every
   replay after the first resumes straight at the crash; under buffered
   eviction the drain at the crash stays a live decision. *)
let explicit_crash =
  Explorer.scenario ~name:"explicit-crash"
    ~pre:(fun ctx ->
      Ctx.store64 ctx ~label:"a" base 1;
      Ctx.store64 ctx ~label:"b" (base + 8) 2;
      Ctx.crash ctx)
    ~post:(fun ctx ->
      ignore (Ctx.load64 ctx ~label:"ra" base);
      ignore (Ctx.load64 ctx ~label:"rb" (base + 8)))
