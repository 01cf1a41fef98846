(* Open addressing with linear probing over power-of-two capacities, like
   {!Line_table}. -1 marks an empty key slot; the value array holds
   [default] in every empty slot, so a probe that stops on an empty slot
   reads the default without a branch on the key. Load factor stays at or
   under 3/4, and tables start small: an execution record or thread owns
   one, and snapshots keep many records alive. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable count : int;
  default : 'a;
}

let initial_capacity = 16

let create ~default =
  {
    keys = Array.make initial_capacity (-1);
    vals = Array.make initial_capacity default;
    count = 0;
    default;
  }

let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }

(* Fibonacci hashing: the top bits of the product spread consecutive keys,
   the common access pattern, across the table. *)
let slot_of keys key = (key * 0x2545F4914F6CDD1D) lsr 32 land (Array.length keys - 1)

let rec probe keys key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = -1 then i else probe keys key ((i + 1) land (Array.length keys - 1))

let find t key =
  let keys = t.keys in
  Array.unsafe_get t.vals (probe keys key (slot_of keys key))

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap' = 2 * Array.length keys in
  let keys' = Array.make cap' (-1) and vals' = Array.make cap' t.default in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then begin
      let j = probe keys' k (slot_of keys' k) in
      keys'.(j) <- k;
      vals'.(j) <- vals.(i)
    end
  done;
  t.keys <- keys';
  t.vals <- vals'

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  if 4 * (t.count + 1) > 3 * Array.length t.keys then grow t;
  let keys = t.keys in
  let i = probe keys key (slot_of keys key) in
  if Array.unsafe_get keys i = -1 then begin
    keys.(i) <- key;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- v

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let reset t =
  t.keys <- Array.make initial_capacity (-1);
  t.vals <- Array.make initial_capacity t.default;
  t.count <- 0
