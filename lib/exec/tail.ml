(* A crash under buffered eviction drains every store buffer in full into the
   crashed record; what the crash really kept of each buffer is a prefix cut
   [cut_t] that only recovery reads decide. Entry [i] of thread [t] survives
   iff [i < cut_t], and the search so far knows [cut_t ∈ [lo_t, hi_t]]. *)

type effect = { at : int; line : int; bound : int }

type t = {
  first : int;  (* the first seq the drain gave out; [max_int] in [none] *)
  owner : int array;  (* thread of drained seq [first + j] *)
  index : int array;  (* its entry index in that thread's buffer *)
  lo : int array;  (* per thread: the cut interval [lo, hi] *)
  hi : int array;
  effects : effect array array;  (* per thread: conditional flush raises, by [at] *)
  on_line : (int * int) list Pmem.Int_table.t;  (* line -> (thread, at) of its raises *)
}

let none =
  {
    first = max_int;
    owner = [||];
    index = [||];
    lo = [||];
    hi = [||];
    effects = [||];
    on_line = Pmem.Int_table.create ~default:[];
  }

let first t = t.first

(* The mutable part is the cut intervals; everything else is fixed at the
   crash and shared between copies. *)
let copy t = if t == none then none else { t with lo = Array.copy t.lo; hi = Array.copy t.hi }

(* --- building, at the crash ------------------------------------------------ *)

type builder = {
  b_first : int;
  mutable seqs : (int * int) list;  (* (thread, index) per seq, newest first *)
  mutable raises : (int * effect) list;  (* (thread, effect), newest first *)
}

let builder ~first = { b_first = first; seqs = []; raises = [] }
let add_seq b ~thread ~index = b.seqs <- (thread, index) :: b.seqs

let add_flush b ~thread ~index addr ~bound =
  b.raises <- (thread, { at = index; line = Pmem.Addr.line_of addr; bound }) :: b.raises

let finish b ~lengths =
  let seqs = Array.of_list (List.rev b.seqs) in
  let raises = List.rev b.raises in
  let on_line = Pmem.Int_table.create ~default:[] in
  List.iter
    (fun (thread, e) ->
      Pmem.Int_table.replace on_line e.line ((thread, e.at) :: Pmem.Int_table.find on_line e.line))
    raises;
  {
    first = b.b_first;
    owner = Array.map fst seqs;
    index = Array.map snd seqs;
    lo = Array.make (Array.length lengths) 0;
    hi = Array.copy lengths;
    effects =
      Array.init (Array.length lengths) (fun thread ->
          Array.of_list (List.filter_map (fun (t, e) -> if t = thread then Some e else None) raises));
    on_line;
  }

(* --- the state of one entry -------------------------------------------------- *)

let drained t seq = seq >= t.first

(* A seq below [first] was an ordinary store or flush of the record. *)
let dropped t seq =
  seq >= t.first
  &&
  let j = seq - t.first in
  t.index.(j) >= t.hi.(t.owner.(j))

let pending_at t thread i = t.lo.(thread) <= i && i < t.hi.(thread)

let pending t seq =
  seq >= t.first
  &&
  let j = seq - t.first in
  pending_at t t.owner.(j) t.index.(j)

(* A recursion, not [List.exists] with a closure over [t]: a recovery read
   of a clean line pays this probe and must not allocate. *)
let rec any_pending t = function
  | [] -> false
  | (thread, i) :: rest -> pending_at t thread i || any_pending t rest

let line_pending t line = t != none && any_pending t (Pmem.Int_table.find t.on_line line)

(* --- splitting ---------------------------------------------------------------- *)

(* [points] are the pending indices of [thread] a read depends on. One
   decision picks which of them survive: alternative [k] keeps the [k]
   oldest and drops the rest, narrowing the cut interval to the cut values
   that do exactly that. Alternative 0, the first explored, drops them all.
   [raise] receives each flush raise that the narrowing makes certain. *)
let split t ~thread ~points ~choose ~raise =
  let points = Array.of_list (List.sort_uniq Int.compare points) in
  let m = Array.length points in
  if m > 0 then begin
    let k = choose (m + 1) in
    let lo = t.lo.(thread) in
    let lo' = if k = 0 then lo else points.(k - 1) + 1 in
    if k < m then t.hi.(thread) <- points.(k);
    t.lo.(thread) <- lo';
    Array.iter (fun e -> if lo <= e.at && e.at < lo' then raise e.line e.bound) t.effects.(thread)
  end

let threads t = Array.length t.lo

(* Per thread, the pending indices among [seqs]. *)
let pending_points t seqs =
  let points = Array.make (threads t) [] in
  List.iter
    (fun seq ->
      if pending t seq then begin
        let j = seq - t.first in
        points.(t.owner.(j)) <- t.index.(j) :: points.(t.owner.(j))
      end)
    seqs;
  points

let line_points t line =
  let points = Array.make (threads t) [] in
  List.iter
    (fun (thread, i) -> if pending_at t thread i then points.(thread) <- i :: points.(thread))
    (Pmem.Int_table.find t.on_line line);
  points
