type t = {
  tid : int;
  sb : Store_buffer.t;
  fb : Flush_buffer.t;
  line_ts : int Pmem.Int_table.t;  (* t_{τ,line}: last store/clflush to the line, 0 if none *)
  mutable fence_ts : int;  (* t_τ: last sfence *)
}

let create ~tid =
  {
    tid;
    sb = Store_buffer.create ();
    fb = Flush_buffer.create ();
    line_ts = Pmem.Int_table.create ~default:0;
    fence_ts = 0;
  }

let copy th =
  {
    tid = th.tid;
    sb = Store_buffer.copy th.sb;
    fb = Flush_buffer.copy th.fb;
    line_ts = Pmem.Int_table.copy th.line_ts;
    fence_ts = th.fence_ts;
  }

let tid th = th.tid
let store_buffer th = th.sb
let flush_buffer th = th.fb
let line_ts th line = Pmem.Int_table.find th.line_ts line
let set_line_ts th line seq = Pmem.Int_table.replace th.line_ts line seq

(* Phase one: enqueue (Fig. 7). *)

let exec_store th addr ~value ~width ~label =
  if width < 1 then invalid_arg "Thread_state.exec_store: empty store";
  Store_buffer.enqueue th.sb (Store_buffer.Store { addr; value; width; label })

let exec_clflush th addr ~label =
  Store_buffer.enqueue th.sb (Store_buffer.Clflush { addr; label })

let exec_clflushopt th (sink : Sink.t) addr ~label =
  Store_buffer.enqueue th.sb (Store_buffer.Clflushopt { addr; enq_seq = sink.cur_seq (); label })

let exec_sfence th = Store_buffer.enqueue th.sb Store_buffer.Sfence

(* Phase two: eviction (Fig. 8). *)

let drain_flush_buffer th (sink : Sink.t) =
  Flush_buffer.drain th.fb (fun { Flush_buffer.addr; bound } -> sink.flush_line addr ~seq:bound)

let apply th (sink : Sink.t) entry =
  match entry with
  | Store_buffer.Store { addr; value; width; label } ->
      (* All bytes of one store hit the cache atomically, sharing one
         sequence number (paper §4, mixed-size accesses). *)
      let seq = sink.next_seq () in
      for i = 0 to width - 1 do
        sink.push_store (addr + i) ~value:(Pmem.Bytes_le.byte_at ~width value i) ~seq ~label
      done;
      Pmem.Addr.iter_lines_spanned (fun line -> set_line_ts th line seq) addr width
  | Store_buffer.Clflush { addr; label = _ } ->
      let seq = sink.next_seq () in
      sink.flush_line addr ~seq;
      set_line_ts th (Pmem.Addr.line_of addr) seq
  | Store_buffer.Clflushopt { addr; enq_seq; label = _ } ->
      let line = Pmem.Addr.line_of addr in
      let bound = Int.max enq_seq (Int.max (line_ts th line) th.fence_ts) in
      Flush_buffer.add th.fb { Flush_buffer.addr; bound }
  | Store_buffer.Sfence ->
      let seq = sink.next_seq () in
      drain_flush_buffer th sink;
      th.fence_ts <- seq

let evict_one th sink =
  match Store_buffer.dequeue th.sb with
  | None -> false
  | Some entry ->
      apply th sink entry;
      true

let rec drain th sink = if evict_one th sink then drain th sink

let exec_mfence th sink =
  drain th sink;
  drain_flush_buffer th sink

let reset th =
  Store_buffer.clear th.sb;
  Flush_buffer.clear th.fb;
  Pmem.Int_table.reset th.line_ts;
  th.fence_ts <- 0
