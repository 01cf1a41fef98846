(* Packed event cells. Layout of one cell (cell_width ints):

     slot 0  tag (constructor + option shape, see tag_* below)
     slot 1  addr / line_addr
     slot 2  aux: width, flush kind, fence kind, or parent tid
     slot 3  value / old_value
     slot 4  rmw new value (tag_rmw_set only)
     slot 5  tid
     slot 6  label id in the intern table, -1 when the event has none

   Unused slots are written as 0 so encode is injective per tag and a cell
   compares identically however it was produced. *)

type labels = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
  (* Two-entry physical-identity cache: labels are almost always string
     literals the checked program passes over and over, so the common case
     is a pointer compare instead of a string hash per recorded event. *)
  mutable last1 : string;
  mutable last1_id : int;
  mutable last2 : string;
  mutable last2_id : int;
}

let labels () =
  (* Freshly allocated at runtime, so no caller-supplied string (not even a
     shared [""] literal) can be physically equal to it — the cache starts
     guaranteed-cold. *)
  let sentinel = String.sub "-" 0 0 in
  {
    ids = Hashtbl.create 64;
    names = Array.make 64 "";
    n = 0;
    last1 = sentinel;
    last1_id = -1;
    last2 = sentinel;
    last2_id = -1;
  }

let intern_slow t s =
  let id =
    match Hashtbl.find_opt t.ids s with
    | Some id -> id
    | None ->
        let id = t.n in
        if id = Array.length t.names then begin
          let names = Array.make (2 * id) "" in
          Array.blit t.names 0 names 0 id;
          t.names <- names
        end;
        t.names.(id) <- s;
        t.n <- id + 1;
        Hashtbl.add t.ids s id;
        id
  in
  t.last2 <- t.last1;
  t.last2_id <- t.last1_id;
  t.last1 <- s;
  t.last1_id <- id;
  id

let[@inline] intern t s =
  if s == t.last1 then t.last1_id
  else if s == t.last2 then begin
    (* Promote, so two alternating labels both stay cached. *)
    let s2 = t.last1 and id2 = t.last1_id in
    t.last1 <- s;
    t.last1_id <- t.last2_id;
    t.last2 <- s2;
    t.last2_id <- id2;
    t.last1_id
  end
  else intern_slow t s

let label_name t id =
  if id < 0 || id >= t.n then invalid_arg "Arena.label_name: unknown id";
  t.names.(id)

let cell_width = 7

let tag_store = 0
let tag_load = 1
let tag_rmw_none = 2
let tag_rmw_set = 3
let tag_flush = 4
let tag_fence = 5
let tag_thread_start = 6
let tag_thread_join = 7
let tag_failure_point = 8
let tag_crash_label = 9
let tag_crash_anon = 10
let tag_end = 11

let flush_code = function Event.Clflush -> 0 | Event.Clflushopt -> 1 | Event.Clwb -> 2
let flush_of_code = function 0 -> Event.Clflush | 1 -> Event.Clflushopt | _ -> Event.Clwb
let fence_code = function Event.Sfence -> 0 | Event.Mfence -> 1
let fence_of_code = function 0 -> Event.Sfence | _ -> Event.Mfence

(* One range check up front, then unchecked stores. The [int array]
   annotation is load-bearing: every slot value unifies to the same type
   variable, so without it [fill] is polymorphic and each store compiles to
   the generic write barrier (float-array check + [caml_modify]) — an order
   of magnitude slower than the immediate stores this exists for. *)
let[@inline] fill (cells : int array) off ~tag ~addr ~aux ~v ~v2 ~tid ~lbl =
  if off < 0 || off + cell_width > Array.length cells then invalid_arg "Arena: cell out of range";
  Array.unsafe_set cells off tag;
  Array.unsafe_set cells (off + 1) addr;
  Array.unsafe_set cells (off + 2) aux;
  Array.unsafe_set cells (off + 3) v;
  Array.unsafe_set cells (off + 4) v2;
  Array.unsafe_set cells (off + 5) tid;
  Array.unsafe_set cells (off + 6) lbl

let encode_store t cells off ~addr ~width ~value ~tid ~label =
  fill cells off ~tag:tag_store ~addr ~aux:width ~v:value ~v2:0 ~tid ~lbl:(intern t label)

let encode_load t cells off ~addr ~width ~value ~tid ~label =
  fill cells off ~tag:tag_load ~addr ~aux:width ~v:value ~v2:0 ~tid ~lbl:(intern t label)

let encode_rmw t cells off ~addr ~width ~old_value ~new_value ~tid ~label =
  let tag, v2 = match new_value with None -> (tag_rmw_none, 0) | Some v -> (tag_rmw_set, v) in
  fill cells off ~tag ~addr ~aux:width ~v:old_value ~v2 ~tid ~lbl:(intern t label)

let encode_flush t cells off ~line_addr ~kind ~tid ~label =
  fill cells off ~tag:tag_flush ~addr:line_addr ~aux:(flush_code kind) ~v:0 ~v2:0 ~tid
    ~lbl:(intern t label)

let encode_fence t cells off ~kind ~tid ~label =
  fill cells off ~tag:tag_fence ~addr:0 ~aux:(fence_code kind) ~v:0 ~v2:0 ~tid
    ~lbl:(intern t label)

let encode_thread_start t cells off ~tid ~parent ~label =
  fill cells off ~tag:tag_thread_start ~addr:0 ~aux:parent ~v:0 ~v2:0 ~tid ~lbl:(intern t label)

let encode_thread_join t cells off ~tid ~parent ~label =
  fill cells off ~tag:tag_thread_join ~addr:0 ~aux:parent ~v:0 ~v2:0 ~tid ~lbl:(intern t label)

let encode_failure_point t cells off ~label ~tid =
  fill cells off ~tag:tag_failure_point ~addr:0 ~aux:0 ~v:0 ~v2:0 ~tid ~lbl:(intern t label)

let encode_crash t cells off ~label ~tid =
  match label with
  | Some label ->
      fill cells off ~tag:tag_crash_label ~addr:0 ~aux:0 ~v:0 ~v2:0 ~tid ~lbl:(intern t label)
  | None -> fill cells off ~tag:tag_crash_anon ~addr:0 ~aux:0 ~v:0 ~v2:0 ~tid ~lbl:(-1)

let encode_end_execution _t cells off =
  fill cells off ~tag:tag_end ~addr:0 ~aux:0 ~v:0 ~v2:0 ~tid:0 ~lbl:(-1)

let encode t cells off = function
  | Event.Store { addr; width; value; tid; label } ->
      encode_store t cells off ~addr ~width ~value ~tid ~label
  | Event.Load { addr; width; value; tid; label } ->
      encode_load t cells off ~addr ~width ~value ~tid ~label
  | Event.Rmw { addr; width; old_value; new_value; tid; label } ->
      encode_rmw t cells off ~addr ~width ~old_value ~new_value ~tid ~label
  | Event.Flush { line_addr; kind; tid; label } ->
      encode_flush t cells off ~line_addr ~kind ~tid ~label
  | Event.Fence { kind; tid; label } -> encode_fence t cells off ~kind ~tid ~label
  | Event.Thread_start { tid; parent; label } ->
      encode_thread_start t cells off ~tid ~parent ~label
  | Event.Thread_join { tid; parent; label } -> encode_thread_join t cells off ~tid ~parent ~label
  | Event.Failure_point { label; tid } -> encode_failure_point t cells off ~label ~tid
  | Event.Crash { label; tid } -> encode_crash t cells off ~label ~tid
  | Event.End_execution -> encode_end_execution t cells off

let decode t cells off =
  let tag = cells.(off) in
  let addr = cells.(off + 1) in
  let aux = cells.(off + 2) in
  let v = cells.(off + 3) in
  let v2 = cells.(off + 4) in
  let tid = cells.(off + 5) in
  let lbl = cells.(off + 6) in
  let label () = label_name t lbl in
  if tag = tag_store then Event.Store { addr; width = aux; value = v; tid; label = label () }
  else if tag = tag_load then Event.Load { addr; width = aux; value = v; tid; label = label () }
  else if tag = tag_rmw_none then
    Event.Rmw { addr; width = aux; old_value = v; new_value = None; tid; label = label () }
  else if tag = tag_rmw_set then
    Event.Rmw { addr; width = aux; old_value = v; new_value = Some v2; tid; label = label () }
  else if tag = tag_flush then
    Event.Flush { line_addr = addr; kind = flush_of_code aux; tid; label = label () }
  else if tag = tag_fence then Event.Fence { kind = fence_of_code aux; tid; label = label () }
  else if tag = tag_thread_start then Event.Thread_start { tid; parent = aux; label = label () }
  else if tag = tag_thread_join then Event.Thread_join { tid; parent = aux; label = label () }
  else if tag = tag_failure_point then Event.Failure_point { label = label (); tid }
  else if tag = tag_crash_label then Event.Crash { label = Some (label ()); tid }
  else if tag = tag_crash_anon then Event.Crash { label = None; tid }
  else if tag = tag_end then Event.End_execution
  else invalid_arg "Arena.decode: corrupt cell"
