type result = {
  states : int;
  failure_points : int;
  behaviors : string list;
  bugs : Jaaru.Bug.t list;
  truncated : bool;
}

(* --- snapshots ----------------------------------------------------------- *)

module Int_map = Map.Make (Int)

(* The persistent-state ingredients of one execution: each written byte's
   stores as (seq, value), oldest first, and each line's last guaranteed
   writeback. *)
type image = { bytes : (int * int) list Int_map.t; lo : int Int_map.t }

let image_of_record record =
  let bytes =
    List.fold_left
      (fun m addr ->
        let entries =
          Exec.Exec_record.fold_stores
            (fun e acc -> (e.Exec.Store_queue.seq, e.Exec.Store_queue.value) :: acc)
            record addr []
        in
        Int_map.add addr (List.rev entries) m)
      Int_map.empty
      (Exec.Exec_record.written_addrs record)
  in
  let lo =
    Int_map.fold
      (fun addr _ m ->
        let line = Pmem.Addr.line_of addr in
        if Int_map.mem line m then m
        else Int_map.add line (Pmem.Interval.lo (Exec.Exec_record.cacheline record addr)) m)
      bytes Int_map.empty
  in
  { bytes; lo }

let line_lo img line = Option.value ~default:0 (Int_map.find_opt line img.lo)

(* One store-buffer cut vector, drained the way a crash drains it: thread by
   thread in thread order, each thread's first [k] entries oldest first,
   numbered on from [seq]. A store reaches the cache; a clflush raises its
   line's writeback bound; a clflushopt joins the thread's flush buffer with
   the bound x86 gives it (its issue time, the thread's last store or
   clflush to the line, its last sfence), and only an sfence kept after it
   publishes it — as it publishes what was already in the flush buffer.
   Whatever the cut leaves in either buffer is lost. *)
let drain_cut ~seq img threads cuts =
  let seq = ref seq and img = ref img in
  let raise_lo line s =
    if s > line_lo !img line then img := { !img with lo = Int_map.add line s !img.lo }
  in
  let push addr s v =
    let old = Option.value ~default:[] (Int_map.find_opt addr !img.bytes) in
    img := { !img with bytes = Int_map.add addr (old @ [ (s, v) ]) !img.bytes }
  in
  List.iter2
    (fun th keep ->
      let line_ts = Hashtbl.create 8 in
      let ts line =
        match Hashtbl.find_opt line_ts line with
        | Some s -> s
        | None -> Tso.Thread_state.line_ts th line
      in
      let fence_ts = ref (Tso.Thread_state.fence_ts th) in
      let fb =
        ref
          (List.map
             (fun { Tso.Flush_buffer.addr; bound } -> (Pmem.Addr.line_of addr, bound))
             (Tso.Flush_buffer.entries (Tso.Thread_state.flush_buffer th)))
      in
      List.iteri
        (fun i entry ->
          if i < keep then
            match entry with
            | Tso.Store_buffer.Store { addr; value; width; label = _ } ->
                incr seq;
                for b = 0 to width - 1 do
                  push (addr + b) !seq (Pmem.Bytes_le.byte_at ~width value b)
                done;
                Pmem.Addr.iter_lines_spanned (fun line -> Hashtbl.replace line_ts line !seq) addr width
            | Tso.Store_buffer.Clflush { addr; label = _ } ->
                incr seq;
                raise_lo (Pmem.Addr.line_of addr) !seq;
                Hashtbl.replace line_ts (Pmem.Addr.line_of addr) !seq
            | Tso.Store_buffer.Clflushopt { addr; enq_seq; label = _ } ->
                let line = Pmem.Addr.line_of addr in
                fb := !fb @ [ (line, Int.max enq_seq (Int.max (ts line) !fence_ts)) ]
            | Tso.Store_buffer.Sfence ->
                incr seq;
                List.iter (fun (line, bound) -> raise_lo line bound) !fb;
                fb := [];
                fence_ts := !seq)
        (Tso.Store_buffer.entries (Tso.Thread_state.store_buffer th)))
    threads cuts;
  !img

(* Every per-thread cut vector: thread t keeps 0 to n_t of its entries. *)
let cut_vectors threads =
  List.fold_right
    (fun th rest ->
      let n = Tso.Store_buffer.length (Tso.Thread_state.store_buffer th) in
      List.concat_map (fun k -> List.map (fun v -> k :: v) rest) (List.init (n + 1) Fun.id))
    threads [ [] ]

type line_snap = {
  byte_entries : (Pmem.Addr.t * (int * int) list) list;  (* addr, (seq, value) ascending *)
  cuts : int list;  (* legal last-writeback positions: lo plus each event above it *)
}

let line_snaps img =
  let by_line =
    Int_map.fold
      (fun addr entries m ->
        let line = Pmem.Addr.line_of addr in
        let cell = Option.value ~default:[] (Int_map.find_opt line m) in
        Int_map.add line ((addr, entries) :: cell) m)
      img.bytes Int_map.empty
  in
  Int_map.fold
    (fun line cell acc ->
      let byte_entries = List.rev cell in
      let lo = line_lo img line in
      let events =
        List.sort_uniq compare
          (List.concat_map
             (fun (_, entries) -> List.filter_map (fun (s, _) -> if s > lo then Some s else None) entries)
             byte_entries)
      in
      { byte_entries; cuts = lo :: events } :: acc)
    by_line []
  |> List.sort compare

(* The state spaces of one failure point: one per store-buffer cut vector.
   Under [Eager] eviction the buffers hold nothing a crash could keep, so
   there is one, the record's own. *)
let snapshot_failure_point record (seq, threads) =
  let img = image_of_record record in
  List.map (fun cuts -> line_snaps (drain_cut ~seq img threads cuts)) (cut_vectors threads)

(* The concrete bytes of one line under a given cut: each byte holds its
   newest store at or before the cut; bytes whose stores all postdate the cut
   keep the initial zero (and can be omitted). *)
let line_bytes snap cut =
  List.filter_map
    (fun (addr, entries) ->
      let value =
        List.fold_left (fun acc (s, v) -> if s <= cut then Some v else acc) None entries
      in
      Option.map (fun v -> (addr, v)) value)
    snap.byte_entries

let enumerate_states snapshot ~limit ~f =
  let count = ref 0 in
  let truncated = ref false in
  let rec go lines acc =
    if !truncated then ()
    else
      match lines with
      | [] ->
          if !count >= limit then truncated := true
          else begin
            incr count;
            f (List.concat acc)
          end
      | snap :: rest -> List.iter (fun cut -> go rest (line_bytes snap cut :: acc)) snap.cuts
  in
  go snapshot [];
  (!count, !truncated)

(* --- running recovery on a concrete image -------------------------------- *)

let bug_of ctx kind location =
  {
    Jaaru.Bug.kind;
    location;
    exec_depth = Jaaru.Ctx.failures ctx;
    trace = Jaaru.Ctx.trace_events ctx;
    dropped = Jaaru.Ctx.trace_dropped ctx;
  }

(* A recovery that crashes again (only when [max_failures] > 1) recovers
   once more, as the explorer does; the observation is the last
   recovery's. *)
let rec observe ctx post =
  match post ctx with
  | obs -> (obs, None)
  | exception Jaaru.Bug.Found (kind, location) ->
      let bug = bug_of ctx kind location in
      ("bug: " ^ Jaaru.Bug.symptom bug, Some bug)
  | exception (Jaaru.Choice.Divergence _ as e) -> raise e
  | exception Jaaru.Ctx.Power_failure ->
      Jaaru.Ctx.after_crash ctx;
      observe ctx post
  | exception e ->
      let bug =
        bug_of ctx
          (Jaaru.Bug.Program_exception (Jaaru.Bug.normalize_message (Printexc.to_string e)))
          (Jaaru.Ctx.last_label ctx)
      in
      ("bug: " ^ Jaaru.Bug.symptom bug, Some bug)

let check ?(config = Jaaru.Config.default) ?(state_limit = 20_000) ~pre ~post () =
  let config = { config with Jaaru.Config.max_failures = 1 } in
  (* Pass one: collect a snapshot of the persistent state space at every
     failure-injection point. *)
  let snapshots = ref [] in
  let choice = Jaaru.Choice.create () in
  let ctx = Jaaru.Ctx.create ~config ~choice () in
  Jaaru.Ctx.set_failure_point_hook ctx (fun _label ->
      snapshots :=
        snapshot_failure_point
          (Exec.Exec_stack.top (Jaaru.Ctx.exec_stack ctx))
          (Jaaru.Ctx.buffered_state ctx)
        :: !snapshots);
  pre ctx;
  Jaaru.Ctx.finish_execution ctx;
  let snapshots = List.rev !snapshots in
  (* Pass two: run recovery on every concrete state of every snapshot. *)
  let behaviors = Hashtbl.create 16 in
  let bugs = ref [] in
  let states = ref 0 in
  let truncated = ref false in
  let budget = ref state_limit in
  List.iter
    (fun snapshot ->
      let n, trunc =
        enumerate_states snapshot ~limit:!budget ~f:(fun state ->
            let choice = Jaaru.Choice.create () in
            let ctx = Jaaru.Ctx.create ~config ~choice () in
            Jaaru.Ctx.install_concrete_state ctx state;
            let obs, bug = observe ctx post in
            Hashtbl.replace behaviors obs ();
            match bug with
            | Some b when not (List.exists (Jaaru.Bug.same_report b) !bugs) -> bugs := b :: !bugs
            | Some _ | None -> ())
      in
      states := !states + n;
      budget := max 0 (!budget - n);
      if trunc then truncated := true)
    (List.concat snapshots);
  {
    states = !states;
    failure_points = List.length snapshots;
    behaviors = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) behaviors []);
    bugs = List.rev !bugs;
    truncated = !truncated;
  }

(* Note: the caller's [max_failures] is respected — the default of 1 gives
   the usual every-flush injection; 0 plus an explicit [Ctx.crash] in [pre]
   gives sharp single-point litmus semantics. *)
let jaaru_behaviors ?(config = Jaaru.Config.default) ~pre ~post () =
  let choice = Jaaru.Choice.create () in
  let behaviors = Hashtbl.create 16 in
  let stop = ref false in
  while not !stop do
    Jaaru.Choice.begin_replay choice;
    let ctx = Jaaru.Ctx.create ~config ~choice () in
    (try
       pre ctx;
       Jaaru.Ctx.finish_execution ctx
     with
    | Jaaru.Ctx.Power_failure ->
        Jaaru.Ctx.after_crash ctx;
        let obs, _ = observe ctx post in
        Hashtbl.replace behaviors obs ()
    | Jaaru.Bug.Found _ -> ());
    if not (Jaaru.Choice.advance choice) then stop := true
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) behaviors [])
