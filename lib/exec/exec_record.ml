type t = {
  id : int;
  queues : Store_queue.t Pmem.Int_table.t;
      (* byte address -> store history; a miss reads [no_stores] *)
  seq_bound : int;
      (* Stores in [queues] with seq > seq_bound are invisible to every read
         accessor: a snapshot view shares the live record's table and hides
         the entries pushed after the capture. [max_int] = unbounded. *)
  own : Store_queue.t Pmem.Int_table.t;
      (* A writable view's private histories ({!snapshot_freeze}): each
         address stored to since the freeze, as a copy of its visible
         history plus the new stores. It overrides [queues] and is read
         through [own_bound]. [no_own] when there is none. *)
  own_bound : int;
  writable_view : bool;
  lines : Pmem.Line_table.t;
  mutable last_seq : int;  (* seq of the newest store pushed, 0 if none *)
  mutable store_count : int;
  mutable flush_count : int;
}

(* The one empty history every miss returns, and the one empty overlay.
   Neither is ever written: stores go to fresh queues and fresh tables. *)
let no_stores = Store_queue.create ()
let no_own = Pmem.Int_table.create ~default:no_stores

let create ~id =
  if id < 0 then invalid_arg "Exec_record.create: negative id";
  {
    id;
    queues = Pmem.Int_table.create ~default:no_stores;
    seq_bound = max_int;
    own = no_own;
    own_bound = max_int;
    writable_view = false;
    lines = Pmem.Line_table.create ();
    last_seq = 0;
    store_count = 0;
    flush_count = 0;
  }

let initial () = create ~id:0
let id e = e.id
let is_initial e = e.id = 0

(* Unboxed line-interval reads: the per-line state lives in the flat
   {!Pmem.Line_table}, so the bounds come back as plain ints. The slot index
   is only valid until the next insertion, hence the immediate reads. *)
let line_slot e addr = Pmem.Line_table.find e.lines (Pmem.Addr.line_of addr)
let slot_lo e slot = Pmem.Line_table.lo e.lines slot
let slot_hi e slot = Pmem.Line_table.hi e.lines slot
let line_lo e addr = slot_lo e (line_slot e addr)
let line_hi e addr = slot_hi e (line_slot e addr)

let raise_line_lo e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.raise_lo lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq

let lower_line_hi e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.lower_hi lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq

(* Boxed view for cold paths (state counters, tests): a copy, not an alias —
   refinements must go through {!raise_line_lo} / {!lower_line_hi}. *)
let cacheline e addr = Pmem.Interval.of_bounds ~lo:(line_lo e addr) ~hi:(line_hi e addr)

(* Bounded store accessors: the visible history of [addr] is its overlay
   queue up to [own_bound] if it has one, else its [queues] entry up to
   [seq_bound]. On live records (the common case) that is the whole queue. *)
let bounded_length q bound =
  if bound = max_int then Store_queue.length q else Store_queue.count_le q bound

let own_queue e addr = if e.own == no_own then no_stores else Pmem.Int_table.find e.own addr

let store_queue e addr =
  let q = own_queue e addr in
  if q != no_stores then q else Pmem.Int_table.find e.queues addr

(* [q] is [store_queue e addr]: one table probe serves both calls on
   records without an overlay, the hot case. *)
let visible_length e addr q =
  if e.own == no_own || q != own_queue e addr then bounded_length q e.seq_bound
  else bounded_length q e.own_bound

let visible_count e addr = visible_length e addr (store_queue e addr)

let push_store e addr ~value ~seq ~label =
  let q =
    if e.writable_view then begin
      let q = own_queue e addr in
      if q != no_stores then q
      else
        let q = Store_queue.truncated_copy (store_queue e addr) (visible_count e addr) in
        Pmem.Int_table.replace e.own addr q;
        q
    end
    else if e.seq_bound <> max_int then
      invalid_arg "Exec_record.push_store: snapshot views are read-only"
    else
      let q = Pmem.Int_table.find e.queues addr in
      if q != no_stores then q
      else
        let q = Store_queue.create () in
        Pmem.Int_table.replace e.queues addr q;
        q
  in
  Store_queue.push_unboxed q ~value ~seq ~label;
  e.last_seq <- seq;
  e.store_count <- e.store_count + 1

let visible_stores e addr =
  let q = store_queue e addr in
  let n = visible_length e addr q in
  if n = 0 then None else Some (q, n)

let has_stores e addr = visible_count e addr > 0

let fold_stores f e addr acc =
  let q = store_queue e addr in
  Store_queue.fold_prefix f q (visible_length e addr q) acc

let first_store e addr =
  match visible_stores e addr with None -> None | Some (q, _) -> Some (Store_queue.get q 0)

let last_store e addr =
  match visible_stores e addr with None -> None | Some (q, n) -> Some (Store_queue.get q (n - 1))

let last_store_byte e addr =
  let q = store_queue e addr in
  let n = visible_length e addr q in
  if n = 0 then -1 else Store_queue.value_at q (n - 1)

let next_store_seq_after e addr s =
  let q = store_queue e addr in
  let n = visible_length e addr q in
  let i = Store_queue.count_le q s in
  if i >= n then Pmem.Interval.infinity else Store_queue.seq_at q i

let flush_line e addr ~seq =
  raise_line_lo e addr ~seq;
  e.flush_count <- e.flush_count + 1

(* A read-only view that stays correct while the original keeps executing,
   for the failure-point snapshot layer. Line intervals are duplicated — a
   flat three-blit copy — because the recovery read-from analysis refines
   them in place even on buried records (UpdateRanges). The per-byte store
   histories are *shared* — queue entries are immutable, appends only ever
   add entries with larger seqs, and the view's bounds hide everything
   pushed after the capture. Capture cost is therefore O(lines touched),
   independent of how many stores the pre-failure program executed. *)
let snapshot_view ?bound e =
  let bounded b = match bound with None -> b | Some b' -> Int.min b' b in
  {
    e with
    seq_bound = bounded e.seq_bound;
    own_bound = bounded e.own_bound;
    writable_view = false;
    lines = Pmem.Line_table.copy e.lines;
  }

(* A view that accepts stores again, for a restored top record under
   buffered eviction, where the drain at the crash pushes the surviving
   buffer entries into it. Copy-on-write per address: the shared histories
   stay shared, bounded at the newest store the source can see, and a store
   goes to a private overlay copy of its address's visible history. A
   restore therefore copies only the histories the drain touches, never the
   whole table. *)
let snapshot_freeze e =
  let own = Pmem.Int_table.create ~default:no_stores in
  let bound = Int.min e.own_bound e.last_seq in
  Pmem.Int_table.iter
    (fun addr q ->
      Pmem.Int_table.replace own addr (Store_queue.truncated_copy q (bounded_length q bound)))
    e.own;
  {
    e with
    seq_bound = Int.min e.seq_bound e.last_seq;
    own;
    own_bound = max_int;
    writable_view = true;
    lines = Pmem.Line_table.copy e.lines;
  }

let store_count e = e.store_count
let flush_count e = e.flush_count

let written_addrs e =
  let addrs = ref [] in
  let add addr = if visible_count e addr > 0 then addrs := addr :: !addrs in
  Pmem.Int_table.iter (fun addr _ -> add addr) e.own;
  Pmem.Int_table.iter (fun addr _ -> if own_queue e addr == no_stores then add addr) e.queues;
  List.sort Int.compare !addrs

let unflushed_store_count e addr =
  let q = store_queue e addr in
  let n = visible_length e addr q in
  if n = 0 then 0
  else begin
    let lo = line_lo e addr in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if Store_queue.seq_at q i > lo then incr m
    done;
    !m
  end

let pp ppf e =
  Format.fprintf ppf "exec#%d: %d stores, %d flushes over %d addrs" e.id e.store_count
    e.flush_count (List.length (written_addrs e))
