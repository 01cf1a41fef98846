type source = {
  exec : Exec_record.t;
  seq : int option;
  value : int;
  label : string;
}

let source_from_current stack ~value ~label =
  { exec = Exec_stack.top stack; seq = None; value; label }

let source_of_idx exec q i =
  {
    exec;
    seq = Some (Store_queue.seq_at q i);
    value = Store_queue.value_at q i;
    label = Store_queue.label_at q i;
  }

let initial_source exec =
  { exec; seq = Some 0; value = 0; label = "<initial zero>" }

(* ReadPreFailure (Fig. 9, lines 7-13). Candidates from execution [e] are the
   stores that could have been the line's content at its last writeback: every
   store inside the open interval (lo, hi), plus the newest store at or before
   lo (the value certainly in PM when the guaranteed flush happened). If no
   store predates lo, the flush (if any) wrote a value inherited from an older
   execution, so the search continues below. The visible history is indexed
   directly (seqs strictly increase, so the window is a contiguous index
   range) instead of folding boxed entries. *)
let rec read_pre_failure stack e addr =
  if Exec_record.is_initial e then [ initial_source e ]
  else
    let q = Exec_record.store_queue e addr in
    let n = Exec_record.visible_length e addr q in
    if n = 0 then read_pre_failure stack (Exec_stack.prev stack e) addr
    else
      (* Newest index with seq <= lo, or -1; the window (lo, hi) is the
         index range (idx_le_lo, first index with seq >= hi). *)
      let idx_le_lo = Store_queue.count_le q (Exec_record.line_lo e addr) - 1 in
      let below_hi = Int.min n (Store_queue.count_le q (Exec_record.line_hi e addr - 1)) in
      let wins = ref [] in
      (* Ascending index walk with cons leaves the newest store (highest
         index) at the head — the newest-first order callers rely on. *)
      for i = idx_le_lo + 1 to below_hi - 1 do
        wins := source_of_idx e q i :: !wins
      done;
      let wins = !wins in
      if idx_le_lo >= 0 then wins @ [ source_of_idx e q idx_le_lo ]
      else wins @ read_pre_failure stack (Exec_stack.prev stack e) addr

(* The same walk as [read_pre_failure], counting instead of collecting,
   for every unknown byte of one load at once. A byte's candidate list has
   one element exactly when every visited window (lo, hi) is empty and its
   walk ends on a store at or before lo, or on the initial image; any window
   store brings at least one more candidate from below it. [do_read] on
   that lone candidate refines nothing: each record above the source has
   the byte's first store at or after hi (no window, no store at or before
   lo), and in the source the chosen store is at or before lo and the next
   one at or after hi, so every bound it would set is already implied.
   Hence no refinement here, and no [source] is built.

   [span_record] visits one record for the unknown bytes below [limit], in
   byte order, and returns the new limit: the first byte with a non-empty
   window, or [limit]. Bytes at or past that byte are not walked further:
   the caller reads them one by one after its refinement, which changes
   only this record and older ones. So the walk inserts a line entry only
   where the byte-by-byte loads would too. The bounds are looked up once
   per line, and only for a byte with a visible store. *)
let span_record e addr out limit =
  let limit = ref limit and i = ref 0 in
  let line = ref (-1) and lo = ref 0 and hi = ref 0 in
  while !i < !limit do
    let a = addr + !i in
    if out.(!i) < 0 then begin
      let q = Exec_record.store_queue e a in
      let n = Exec_record.visible_length e a q in
      if n > 0 then begin
        if Pmem.Addr.line_of a <> !line then begin
          let slot = Exec_record.line_slot e a in
          lo := Exec_record.slot_lo e slot;
          hi := Exec_record.slot_hi e slot;
          line := Pmem.Addr.line_of a
        end;
        let le_lo = Store_queue.count_le q !lo in
        if Int.min n (Store_queue.count_le q (!hi - 1)) > le_lo then limit := !i
        else if le_lo > 0 then out.(!i) <- Store_queue.value_at q (le_lo - 1)
      end
    end;
    incr i
  done;
  !limit

let rec unknown_below out limit i = i < limit && (out.(i) < 0 || unknown_below out limit (i + 1))

let rec span_pre_failure stack e addr out limit =
  if Exec_record.is_initial e then begin
    for i = 0 to limit - 1 do
      if out.(i) < 0 then out.(i) <- 0
    done;
    limit
  end
  else
    let limit = span_record e addr out limit in
    if unknown_below out limit 0 then span_pre_failure stack (Exec_stack.prev stack e) addr out limit
    else limit

let read_single_span stack addr ~width out =
  let top = Exec_stack.top stack in
  let unknown = ref false in
  for i = 0 to width - 1 do
    if out.(i) < 0 then begin
      let b = Exec_record.last_store_byte top (addr + i) in
      if b >= 0 then out.(i) <- b else unknown := true
    end
  done;
  if !unknown then span_pre_failure stack (Exec_stack.prev stack top) addr out width else width

let build_may_read_from ?sb_value stack addr =
  match sb_value with
  | Some (value, label) -> [ source_from_current stack ~value ~label ]
  | None -> (
      let top = Exec_stack.top stack in
      match Exec_record.visible_stores top addr with
      | Some (q, n) ->
          (* A store of the current execution carries no persistency
             constraint: the paper's ⟨top(exec), _, val⟩ tuple. *)
          [
            {
              exec = top;
              seq = None;
              value = Store_queue.value_at q (n - 1);
              label = Store_queue.label_at q (n - 1);
            };
          ]
      | None -> read_pre_failure stack (Exec_stack.prev stack top) addr)

(* UpdateRanges (Fig. 10). Walk down from the execution just below the current
   one to the source's execution, refining each line interval in place. *)
let rec update_ranges stack ec addr src =
  if Exec_record.id ec <> Exec_record.id src.exec then begin
    let q = Exec_record.store_queue ec addr in
    if Exec_record.visible_length ec addr q > 0 then
      Exec_record.lower_line_hi ec addr ~seq:(Store_queue.seq_at q 0);
    update_ranges stack (Exec_stack.prev stack ec) addr src
  end
  else if Exec_record.is_initial ec then ()
  else
    match src.seq with
    | None -> assert false
    | Some seq ->
        Exec_record.raise_line_lo ec addr ~seq;
        Exec_record.lower_line_hi ec addr
          ~seq:(Exec_record.next_store_seq_after ec addr seq)

let do_read stack addr src =
  let top = Exec_stack.top stack in
  if Exec_record.id src.exec <> Exec_record.id top then
    update_ranges stack (Exec_stack.prev stack top) addr src

let pp_source ppf s =
  let pp_seq ppf = function
    | None -> Format.fprintf ppf "_"
    | Some n -> Format.fprintf ppf "%d" n
  in
  Format.fprintf ppf "<exec#%d %s=%d@@%a>" (Exec_record.id s.exec) s.label s.value pp_seq s.seq
