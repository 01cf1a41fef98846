(* Domain-safe span recorder for the benchmark's traced runs.

   The explorer calls a scenario's [pre]/[post] closures on every worker
   domain of a [jobs > 1] run, so a span is appended to a buffer owned by the
   domain that ran it; no lock is taken on the recording path. Each buffer
   registers itself (under a mutex) the first time its domain records after a
   [drain], and [drain] collects and empties every registered buffer. [drain]
   must only be called while no other domain is recording — between
   [Explorer.run] calls, after the run's worker domains have been joined. *)

type result = Returned | Crashed | Bug_found | Raised

type span = {
  id : int;
  parent : int;  (** id of the span that caused this one; [-1] for a root *)
  verdict : int;  (** the [Explorer.run] call this span belongs to *)
  name : string;
  start_ns : int64;  (** monotonic clock *)
  stop_ns : int64;
  alloc_words : float;  (** minor-heap words the recording domain allocated *)
  result : result;
}

type buffer = { mutable spans : span list; mutable registered : bool }

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []
let key = Domain.DLS.new_key (fun () -> { spans = []; registered = false })

let record s =
  let b = Domain.DLS.get key in
  if not b.registered then begin
    Mutex.lock registry_lock;
    registry := b :: !registry;
    b.registered <- true;
    Mutex.unlock registry_lock
  end;
  b.spans <- s :: b.spans

let drain () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> b.spans) !registry in
  List.iter
    (fun b ->
      b.spans <- [];
      b.registered <- false)
    !registry;
  registry := [];
  Mutex.unlock registry_lock;
  all

let now = Monotonic_clock.now

(* [Gc.minor_words] reads the calling domain's own allocation counter, so the
   difference across a call is what that call allocated on its domain. *)
let around ?(id = fresh_id ()) ~name ~verdict ~parent f x =
  let a0 = Gc.minor_words () in
  let t0 = now () in
  let finish result =
    let stop_ns = now () in
    record
      {
        id;
        parent;
        verdict;
        name;
        start_ns = t0;
        stop_ns;
        alloc_words = Gc.minor_words () -. a0;
        result;
      }
  in
  match f x with
  | v ->
      finish Returned;
      v
  | exception e ->
      (* Power failures and bugs are how the explorer's replay loop is
         driven: they must reach it unchanged, backtrace included. *)
      let bt = Printexc.get_raw_backtrace () in
      finish
        (match e with
        | Jaaru.Ctx.Power_failure -> Crashed
        | Jaaru.Bug.Found _ -> Bug_found
        | _ -> Raised);
      Printexc.raise_with_backtrace e bt

let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

let result_name = function
  | Returned -> "returned"
  | Crashed -> "crashed"
  | Bug_found -> "bug"
  | Raised -> "raised"

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tparent\tverdict\tname\tstart_ns\tstop_ns\talloc_words\tresult\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\t%.0f\t%s\n" s.id s.parent s.verdict s.name
            s.start_ns s.stop_ns s.alloc_words (result_name s.result))
        (List.sort (fun a b -> compare a.id b.id) spans))
