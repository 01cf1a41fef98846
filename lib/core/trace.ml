(* The ring is a single flat int array of [depth] packed cells (see
   {!Analysis.Arena}): adding an event is a few int writes, and the
   snapshot layer copies / restores the whole ring with [Array.blit]
   instead of walking boxed events. Labels are interned in a per-ring
   table that [copy] shares — rings only ever move within one worker, and
   the table is append-only, so a cell's label id stays valid in every
   copy. *)

module Arena = Analysis.Arena

type t = {
  labels : Arena.labels;
  cells : int array;
  depth : int;
  mutable next : int;  (* slot index of the next write, in [0, depth) *)
  mutable count : int;
  mutable dropped : int;
}

let create ?labels ~depth () =
  let depth = max 0 depth in
  {
    labels = (match labels with Some l -> l | None -> Arena.labels ());
    cells = Array.make (depth * Arena.cell_width) 0;
    depth;
    next = 0;
    count = 0;
    dropped = 0;
  }

let enabled t = t.depth > 0
let labels t = t.labels
let depth t = t.depth

(* Claims the next cell and returns its offset, or -1 when disabled. *)
let claim t =
  if t.depth = 0 then -1
  else begin
    if t.count = t.depth then t.dropped <- t.dropped + 1;
    let off = t.next * Arena.cell_width in
    (* next < depth always, so wrap-around is a compare, not a div. *)
    let next = t.next + 1 in
    t.next <- (if next = t.depth then 0 else next);
    if t.count < t.depth then t.count <- t.count + 1;
    off
  end

let add t ev =
  let off = claim t in
  if off >= 0 then Arena.encode t.labels t.cells off ev

let copy t =
  {
    labels = t.labels;
    cells = Array.copy t.cells;
    depth = t.depth;
    next = t.next;
    count = t.count;
    dropped = t.dropped;
  }

let restore t ~from =
  if t.depth <> from.depth then invalid_arg "Trace.restore: rings have different depths";
  if t.labels != from.labels then invalid_arg "Trace.restore: rings from different workers";
  Array.blit from.cells 0 t.cells 0 (Array.length from.cells);
  t.next <- from.next;
  t.count <- from.count;
  t.dropped <- from.dropped

let clear t =
  t.next <- 0;
  t.count <- 0;
  t.dropped <- 0

let dropped t = t.dropped

(* Oldest-first iteration over the packed cells. *)
let iter_offsets t f =
  if t.depth > 0 then begin
    let start = (t.next - t.count + t.depth) mod t.depth in
    for i = 0 to t.count - 1 do
      f (((start + i) mod t.depth) * Arena.cell_width)
    done
  end

let events t =
  let acc = ref [] in
  iter_offsets t (fun off -> acc := Arena.decode t.labels t.cells off :: !acc);
  List.rev !acc
