(* Structure-of-arrays slab: values, sequence numbers and labels in parallel
   arrays rather than one boxed record per store. A push is three array
   writes; the binary searches ([count_le], [next_seq_after]) scan a flat
   [int array] of seqs; [copy] for the snapshot layer is three blits. The
   boxed {!entry} view survives only on cold paths (reports, tests). *)

type entry = { value : int; seq : int; label : string }

type t = {
  mutable values : int array;
  mutable seqs : int array;
  mutable labels : string array;
  mutable len : int;
}

let create () = { values = [||]; seqs = [||]; labels = [||]; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let grow q =
  let cap = Array.length q.seqs in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let values = Array.make cap' 0 and seqs = Array.make cap' 0 and labels = Array.make cap' "" in
  Array.blit q.values 0 values 0 q.len;
  Array.blit q.seqs 0 seqs 0 q.len;
  Array.blit q.labels 0 labels 0 q.len;
  q.values <- values;
  q.seqs <- seqs;
  q.labels <- labels

let push_unboxed q ~value ~seq ~label =
  if q.len > 0 && seq <= q.seqs.(q.len - 1) then
    invalid_arg "Store_queue.push: sequence numbers must increase";
  if q.len = Array.length q.seqs then grow q;
  Array.unsafe_set q.values q.len value;
  Array.unsafe_set q.seqs q.len seq;
  Array.unsafe_set q.labels q.len label;
  q.len <- q.len + 1

let push q e = push_unboxed q ~value:e.value ~seq:e.seq ~label:e.label

let copy q =
  { values = Array.copy q.values; seqs = Array.copy q.seqs; labels = Array.copy q.labels; len = q.len }

let truncated_copy q n =
  let n = Int.min n q.len in
  {
    values = Array.sub q.values 0 n;
    seqs = Array.sub q.seqs 0 n;
    labels = Array.sub q.labels 0 n;
    len = n;
  }

let check_index q i =
  if i < 0 || i >= q.len then invalid_arg "Store_queue.get: index out of range"

let value_at q i =
  check_index q i;
  Array.unsafe_get q.values i

let seq_at q i =
  check_index q i;
  Array.unsafe_get q.seqs i

let label_at q i =
  check_index q i;
  Array.unsafe_get q.labels i

let get q i =
  check_index q i;
  { value = q.values.(i); seq = q.seqs.(i); label = q.labels.(i) }

let first q = if q.len = 0 then None else Some (get q 0)
let last q = if q.len = 0 then None else Some (get q (q.len - 1))

(* Index of the oldest entry with seq > s in [lo, hi), by binary search
   (seqs strictly increase). A top-level function rather than a local
   closure, so the read path's searches allocate nothing. *)
let rec first_above (seqs : int array) s lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get seqs mid <= s then first_above seqs s (mid + 1) hi
    else first_above seqs s lo mid

let count_le q s = first_above q.seqs s 0 q.len

let fold_prefix f q n acc =
  let n = Int.min n q.len in
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := f (get q i) !acc
  done;
  !acc

let next_seq_after q s =
  let i = first_above q.seqs s 0 q.len in
  if i >= q.len then Pmem.Interval.infinity else Array.unsafe_get q.seqs i

let fold f q acc = fold_prefix f q q.len acc

let to_list q = List.rev (fold (fun e acc -> e :: acc) q [])

let pp ppf q =
  let pp_entry ppf e = Format.fprintf ppf "%d@@%d" e.value e.seq in
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_entry) (to_list q)
