type entry =
  | Store of { addr : Pmem.Addr.t; value : int; width : int; label : string }
  | Clflush of { addr : Pmem.Addr.t; label : string }
  | Clflushopt of { addr : Pmem.Addr.t; enq_seq : int; label : string }
  | Sfence

(* A ring over [buf]: the oldest entry is at [head], the [len] live entries
   follow it, wrapping at the end of the array. Free slots hold [Sfence], a
   constant constructor, so a dequeued or cleared entry is not kept
   reachable. *)
type t = { mutable buf : entry array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let is_empty sb = sb.len = 0
let length sb = sb.len

(* Slot of the [i]-th oldest live entry. *)
let slot sb i =
  let j = sb.head + i in
  let cap = Array.length sb.buf in
  if j >= cap then j - cap else j

let grow sb =
  let buf = Array.make (Int.max 8 (2 * sb.len)) Sfence in
  for i = 0 to sb.len - 1 do
    buf.(i) <- sb.buf.(slot sb i)
  done;
  sb.buf <- buf;
  sb.head <- 0

let enqueue sb e =
  if sb.len = Array.length sb.buf then grow sb;
  sb.buf.(slot sb sb.len) <- e;
  sb.len <- sb.len + 1

let dequeue sb =
  if sb.len = 0 then None
  else begin
    let e = sb.buf.(sb.head) in
    sb.buf.(sb.head) <- Sfence;
    sb.head <- slot sb 1;
    sb.len <- sb.len - 1;
    Some e
  end

(* Copies into the still-unknown bytes of [out] the bytes of one store (at
   [a], [w] wide) that overlap the load at [addr]; [known] counts the bytes
   found, in and out. Top-level functions, not closures, so the scan
   allocates nothing. *)
let fill addr width out a w value known =
  let known = ref known in
  for b = Int.max addr a to Int.min (addr + width) (a + w) - 1 do
    if out.(b - addr) < 0 then begin
      out.(b - addr) <- (value lsr (8 * (b - a))) land 0xff;
      incr known
    end
  done;
  !known

(* Newest-first scan: the first store met that covers a byte is the newest
   one, so it wins that byte (the TSO forwarding rule); older stores only
   fill what is still unknown. *)
let rec scan sb addr width out i known =
  if i < 0 || known = width then known
  else
    match sb.buf.(slot sb i) with
    | Store { addr = a; value; width = w; label = _ } when a < addr + width && addr < a + w ->
        scan sb addr width out (i - 1) (fill addr width out a w value known)
    | Store _ | Clflush _ | Clflushopt _ | Sfence -> scan sb addr width out (i - 1) known

let forward sb addr ~width out =
  for i = 0 to width - 1 do
    out.(i) <- -1
  done;
  scan sb addr width out (sb.len - 1) 0

let pending_writes sb =
  let rec from i =
    i < sb.len
    && match sb.buf.(slot sb i) with Store _ -> true | Clflush _ | Clflushopt _ | Sfence -> from (i + 1)
  in
  from 0

let copy sb = { buf = Array.init sb.len (fun i -> sb.buf.(slot sb i)); head = 0; len = sb.len }
let entries sb = List.init sb.len (fun i -> sb.buf.(slot sb i))

let clear sb =
  Array.fill sb.buf 0 (Array.length sb.buf) Sfence;
  sb.head <- 0;
  sb.len <- 0
