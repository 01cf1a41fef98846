type t = { log10_total : float; failure_points : int; max_line_states : int }

(* Distinct unflushed store events per line: a store instruction writing n
   bytes is one event (one sequence number), so collect distinct sequence
   numbers above the line's last guaranteed flush. *)
let unflushed_events_by_line record =
  let by_line : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun addr ->
      let line = Pmem.Addr.line_of addr in
      let lo = Pmem.Interval.lo (Exec.Exec_record.cacheline record addr) in
      let seqs =
        match Hashtbl.find_opt by_line line with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 8 in
            Hashtbl.add by_line line s;
            s
      in
      Exec.Exec_record.fold_stores
        (fun entry () -> if entry.Exec.Store_queue.seq > lo then Hashtbl.replace seqs entry.seq ())
        record addr ())
    (Exec.Exec_record.written_addrs record);
  by_line

let line_state_counts record =
  Hashtbl.fold (fun _line seqs acc -> (Hashtbl.length seqs + 1) :: acc)
    (unflushed_events_by_line record) []

let log10_states_at record =
  List.fold_left (fun acc k -> acc +. log10 (float_of_int k)) 0. (line_state_counts record)

(* log10 (10^a + 10^b) without leaving log space. *)
let log10_add a b =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else
    let hi = max a b and lo = min a b in
    hi +. log10 (1. +. (10. ** (lo -. hi)))

let analyze ?(config = Jaaru.Config.default) pre =
  let config = { config with Jaaru.Config.max_failures = 1 } in
  let choice = Jaaru.Choice.create () in
  let ctx = Jaaru.Ctx.create ~config ~choice () in
  let total = ref neg_infinity in
  let fps = ref 0 in
  let max_line = ref 1 in
  Jaaru.Ctx.set_failure_point_hook ctx (fun _label ->
      let record = Exec.Exec_stack.top (Jaaru.Ctx.exec_stack ctx) in
      let counts = line_state_counts record in
      List.iter (fun k -> if k > !max_line then max_line := k) counts;
      let log_states = List.fold_left (fun acc k -> acc +. log10 (float_of_int k)) 0. counts in
      total := log10_add !total log_states;
      incr fps);
  (* All decisions default to "continue": exactly one failure-free replay. *)
  pre ctx;
  Jaaru.Ctx.finish_execution ctx;
  { log10_total = !total; failure_points = !fps; max_line_states = !max_line }

let pp_count ppf log10_n =
  if log10_n = neg_infinity then Format.fprintf ppf "0"
  else if log10_n < 6. then Format.fprintf ppf "%.0f" (10. ** log10_n)
  else
    let e = floor log10_n in
    let mantissa = 10. ** (log10_n -. e) in
    Format.fprintf ppf "%.2fx10^%.0f" mantissa e

let pp ppf t =
  Format.fprintf ppf "%a eager states over %d failure points (largest line: %d states)" pp_count
    t.log10_total t.failure_points t.max_line_states
