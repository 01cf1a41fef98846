(* The TSO storage machinery: buffers, eviction algorithms, and Table 1
   checked behaviourally. *)

let mk_sink () =
  let seq = ref 0 in
  let record = Exec.Exec_record.create ~id:1 in
  (Tso.Sink.to_exec_record ~seq record, record, seq)

let test_store_buffer_fifo () =
  let sb = Tso.Store_buffer.create () in
  Tso.Store_buffer.enqueue sb (Tso.Store_buffer.Store { addr = 0; value = 1; width = 1; label = "a" });
  Tso.Store_buffer.enqueue sb Tso.Store_buffer.Sfence;
  Tso.Store_buffer.enqueue sb (Tso.Store_buffer.Store { addr = 8; value = 2; width = 1; label = "b" });
  Alcotest.(check int) "length" 3 (Tso.Store_buffer.length sb);
  Alcotest.(check bool) "pending writes" true (Tso.Store_buffer.pending_writes sb);
  (match Tso.Store_buffer.dequeue sb with
  | Some (Tso.Store_buffer.Store { label = "a"; _ }) -> ()
  | _ -> Alcotest.fail "FIFO order violated");
  (match Tso.Store_buffer.dequeue sb with
  | Some Tso.Store_buffer.Sfence -> ()
  | _ -> Alcotest.fail "FIFO order violated");
  Alcotest.(check int) "remaining" 1 (Tso.Store_buffer.length sb)

(* [Store_buffer.forward] over a fresh scratch array: the bytes found (or
   -1) and how many were found. *)
let forward sb addr width =
  let out = Array.make 8 0 in
  let found = Tso.Store_buffer.forward sb addr ~width out in
  (Array.to_list (Array.sub out 0 width), found)

let test_store_buffer_bypass () =
  let sb = Tso.Store_buffer.create () in
  Tso.Store_buffer.enqueue sb
    (Tso.Store_buffer.Store { addr = 100; value = 0x04030201; width = 4; label = "old" });
  Tso.Store_buffer.enqueue sb
    (Tso.Store_buffer.Store { addr = 102; value = 9; width = 1; label = "new" });
  let check name expected got = Alcotest.(check (pair (list int) int)) name expected got in
  check "newest wins" ([ 9 ], 1) (forward sb 102 1);
  check "older byte" ([ 2 ], 1) (forward sb 101 1);
  check "miss" ([ -1 ], 0) (forward sb 104 1);
  check "one load, both stores" ([ 1; 2; 9; 4; -1; -1; -1; -1 ], 4) (forward sb 100 8);
  check "unaligned, partly covered" ([ -1; -1; 1; 2 ], 2) (forward sb 98 4)

let test_store_atomic_bytes () =
  (* All bytes of a store take effect with one sequence number. *)
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:0x0807060504030201 ~width:8 ~label:"w";
  Tso.Thread_state.drain th sink;
  let seqs =
    List.map
      (fun i -> (Option.get (Exec.Exec_record.last_store record (100 + i))).Exec.Store_queue.seq)
      [ 0; 1; 7 ]
  in
  Alcotest.(check (list int)) "one seq for all bytes" [ 1; 1; 1 ] seqs

let test_clflush_raises_lo () =
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflush th 100 ~label:"fl";
  Tso.Thread_state.drain th sink;
  let iv = Exec.Exec_record.cacheline record 100 in
  Alcotest.(check int) "flush seq" 2 (Pmem.Interval.lo iv)

let test_clflushopt_waits_for_fence () =
  (* An evicted clflushopt parks in the flush buffer; only a fence applies it. *)
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th sink 100 ~label:"opt";
  Tso.Thread_state.drain th sink;
  Alcotest.(check int) "not yet applied" 0
    (Pmem.Interval.lo (Exec.Exec_record.cacheline record 100));
  Alcotest.(check int) "parked in fb" 1 (Tso.Flush_buffer.length (Tso.Thread_state.flush_buffer th));
  Tso.Thread_state.exec_sfence th;
  Tso.Thread_state.drain th sink;
  (* cacheline returns a copy: re-fetch after the drain mutates the record. *)
  Alcotest.(check bool) "applied after sfence" true
    (Pmem.Interval.lo (Exec.Exec_record.cacheline record 100) >= 1);
  Alcotest.(check int) "fb empty" 0 (Tso.Flush_buffer.length (Tso.Thread_state.flush_buffer th))

let test_clflushopt_bound_is_preceding_store () =
  (* The applied lower bound covers the same-line store that preceded the
     clflushopt (they cannot reorder), Fig. 8's max computation. *)
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w1";
  Tso.Thread_state.drain th sink (* store gets seq 1 *);
  Tso.Thread_state.exec_clflushopt th sink 100 ~label:"opt";
  Tso.Thread_state.drain th sink;
  Tso.Thread_state.exec_store th 100 ~value:2 ~width:1 ~label:"w2";
  Tso.Thread_state.drain th sink (* seq 2: must NOT be covered *);
  Tso.Thread_state.exec_sfence th;
  Tso.Thread_state.drain th sink;
  let iv = Exec.Exec_record.cacheline record 100 in
  Alcotest.(check int) "bound = first store's seq" 1 (Pmem.Interval.lo iv)

let test_mfence_immediate () =
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th sink 100 ~label:"opt";
  Tso.Thread_state.exec_mfence th sink;
  Alcotest.(check bool) "sb drained" true
    (Tso.Store_buffer.is_empty (Tso.Thread_state.store_buffer th));
  Alcotest.(check bool) "flush applied" true
    (Pmem.Interval.lo (Exec.Exec_record.cacheline record 100) >= 1)

let test_reset_clears_everything () =
  let sink, _, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th sink 100 ~label:"opt";
  Tso.Thread_state.reset th;
  Alcotest.(check bool) "sb empty" true
    (Tso.Store_buffer.is_empty (Tso.Thread_state.store_buffer th));
  Alcotest.(check bool) "fb empty" true
    (Tso.Flush_buffer.is_empty (Tso.Thread_state.flush_buffer th))

(* --- Table 1, declarative form ---------------------------------------------- *)

let sym e l = Tso.Constraints.(ordering_symbol (preserved ~earlier:e ~later:l))

let test_table1_rows () =
  let open Tso.Constraints in
  (* Spot-check every interesting cell of the paper's table. *)
  Alcotest.(check string) "W-R" "N" (sym Write Read);
  Alcotest.(check string) "W-W" "Y" (sym Write Write);
  Alcotest.(check string) "W-clflushopt" "CL" (sym Write Clflushopt);
  Alcotest.(check string) "W-clflush" "Y" (sym Write Clflush);
  Alcotest.(check string) "sfence-R" "N" (sym Sfence Read);
  Alcotest.(check string) "sfence-clflushopt" "Y" (sym Sfence Clflushopt);
  Alcotest.(check string) "clflushopt-R" "N" (sym Clflushopt Read);
  Alcotest.(check string) "clflushopt-W" "N" (sym Clflushopt Write);
  Alcotest.(check string) "clflushopt-clflushopt" "N" (sym Clflushopt Clflushopt);
  Alcotest.(check string) "clflushopt-RMW" "Y" (sym Clflushopt Rmw);
  Alcotest.(check string) "clflushopt-mfence" "Y" (sym Clflushopt Mfence);
  Alcotest.(check string) "clflushopt-sfence" "Y" (sym Clflushopt Sfence);
  Alcotest.(check string) "clflushopt-clflush" "CL" (sym Clflushopt Clflush);
  Alcotest.(check string) "clflush-clflushopt" "CL" (sym Clflush Clflushopt);
  Alcotest.(check string) "clflush-R" "N" (sym Clflush Read);
  List.iter
    (fun later -> Alcotest.(check string) "Read row all ordered" "Y" (sym Read later))
    all_kinds;
  List.iter
    (fun later -> Alcotest.(check string) "mfence row all ordered" "Y" (sym Mfence later))
    all_kinds;
  List.iter
    (fun later -> Alcotest.(check string) "RMW row all ordered" "Y" (sym Rmw later))
    all_kinds

(* Behavioural check of the table's headline cell: a later store to another
   line may overtake an earlier clflushopt (W column of the clflushopt row),
   while an sfence forbids it. Observed through the applied lower bound. *)
let test_table1_behavioural_clflushopt_store () =
  let sink, record, _ = mk_sink () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w1";
  Tso.Thread_state.exec_clflushopt th sink 100 ~label:"opt";
  Tso.Thread_state.exec_store th 200 ~value:2 ~width:1 ~label:"other line";
  Tso.Thread_state.drain th sink;
  (* The other-line store took effect in the cache even though the earlier
     clflushopt has not been applied: they reordered. *)
  Alcotest.(check bool) "other store visible" true
    (Exec.Exec_record.has_stores record 200);
  Alcotest.(check int) "flush still pending" 0
    (Pmem.Interval.lo (Exec.Exec_record.cacheline record 100))

(* The ring buffer against a list FIFO, over enqueues, dequeues (so the ring
   wraps), copies and clears; store-buffer bypass ([forward], every load of
   width 1-8) against the reference rule. *)
type sb_op = Enq of Tso.Store_buffer.entry | Deq | Copy | Clear

let gen_sb_op =
  let open QCheck2.Gen in
  let store =
    map3
      (fun addr width value ->
        Tso.Store_buffer.Store { addr; value; width; label = Printf.sprintf "s%d+%d" addr width })
      (int_range 0 12) (oneofl [ 1; 2; 4; 8 ]) (int_range 0 0xffff)
  in
  frequency
    [
      (5, map (fun e -> Enq e) store);
      (1, pure (Enq (Tso.Store_buffer.Clflush { addr = 0; label = "cl" })));
      (1, pure (Enq Tso.Store_buffer.Sfence));
      (3, pure Deq);
      (1, pure Copy);
      (1, pure Clear);
    ]

(* The newest covering store's byte at [a], or -1: a fold oldest first in
   which the last covering store wins. *)
let reference_bypass entries a =
  List.fold_left
    (fun acc e ->
      match e with
      | Tso.Store_buffer.Store { addr; value; width; label = _ } when a >= addr && a < addr + width ->
          Pmem.Bytes_le.byte_at ~width value (a - addr)
      | _ -> acc)
    (-1) entries

(* Every load of width 1-8 over addresses 0-20: each byte as the reference
   rule has it, and the count of bytes found. *)
let forward_matches_reference sb entries =
  List.for_all
    (fun addr ->
      List.for_all
        (fun width ->
          let bytes, found = forward sb addr width in
          let expected = List.init width (fun i -> reference_bypass entries (addr + i)) in
          bytes = expected && found = List.length (List.filter (fun b -> b >= 0) expected))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    (List.init 21 Fun.id)

let prop_store_buffer_bypass =
  QCheck2.Test.make ~count:300 ~name:"ring store buffer = FIFO model, bypass = reference fold"
    QCheck2.Gen.(list_size (int_range 1 60) gen_sb_op)
    (fun ops ->
      let sb = ref (Tso.Store_buffer.create ()) and model = ref [] in
      List.for_all
        (fun op ->
          let same_op =
            match op with
            | Enq e ->
                Tso.Store_buffer.enqueue !sb e;
                model := !model @ [ e ];
                true
            | Deq -> (
                match (Tso.Store_buffer.dequeue !sb, !model) with
                | Some e, e' :: rest ->
                    model := rest;
                    e == e'
                | None, [] -> true
                | _ -> false)
            | Copy ->
                sb := Tso.Store_buffer.copy !sb;
                true
            | Clear ->
                Tso.Store_buffer.clear !sb;
                model := [];
                true
          in
          let entries = Tso.Store_buffer.entries !sb in
          same_op
          && List.length entries = List.length !model
          && List.for_all2 ( == ) entries !model
          && Tso.Store_buffer.length !sb = List.length !model
          && forward_matches_reference !sb entries)
        ops)

let () =
  Alcotest.run "tso"
    [
      ( "buffers",
        [
          Alcotest.test_case "fifo" `Quick test_store_buffer_fifo;
          Alcotest.test_case "bypass" `Quick test_store_buffer_bypass;
          QCheck_alcotest.to_alcotest prop_store_buffer_bypass;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "atomic multi-byte store" `Quick test_store_atomic_bytes;
          Alcotest.test_case "clflush raises lo" `Quick test_clflush_raises_lo;
          Alcotest.test_case "clflushopt waits for fence" `Quick test_clflushopt_waits_for_fence;
          Alcotest.test_case "clflushopt bound" `Quick test_clflushopt_bound_is_preceding_store;
          Alcotest.test_case "mfence immediate" `Quick test_mfence_immediate;
          Alcotest.test_case "reset" `Quick test_reset_clears_everything;
        ] );
      ( "table1",
        [
          Alcotest.test_case "declarative cells" `Quick test_table1_rows;
          Alcotest.test_case "behavioural reordering" `Quick test_table1_behavioural_clflushopt_store;
        ] );
    ]
