(* Unit tests for execution records and the Fig. 9/10 read-from analysis. *)

let entry value seq = { Exec.Store_queue.value; seq; label = Printf.sprintf "s%d" seq }

let test_store_queue_basics () =
  let q = Exec.Store_queue.create () in
  Alcotest.(check bool) "empty" true (Exec.Store_queue.is_empty q);
  Exec.Store_queue.push q (entry 1 5);
  Exec.Store_queue.push q (entry 2 9);
  Exec.Store_queue.push q (entry 3 12);
  Alcotest.(check int) "length" 3 (Exec.Store_queue.length q);
  Alcotest.(check int) "first" 1 (Option.get (Exec.Store_queue.first q)).Exec.Store_queue.value;
  Alcotest.(check int) "last" 3 (Option.get (Exec.Store_queue.last q)).Exec.Store_queue.value;
  Alcotest.(check int) "get" 2 (Exec.Store_queue.get q 1).Exec.Store_queue.value;
  Alcotest.check_raises "non-monotone push"
    (Invalid_argument "Store_queue.push: sequence numbers must increase") (fun () ->
      Exec.Store_queue.push q (entry 4 12))

let test_next_seq_after () =
  let q = Exec.Store_queue.create () in
  List.iter (fun s -> Exec.Store_queue.push q (entry s s)) [ 5; 9; 12; 20 ];
  Alcotest.(check int) "before all" 5 (Exec.Store_queue.next_seq_after q 0);
  Alcotest.(check int) "at 5" 9 (Exec.Store_queue.next_seq_after q 5);
  Alcotest.(check int) "between" 12 (Exec.Store_queue.next_seq_after q 10);
  Alcotest.(check int) "at last" Pmem.Interval.infinity (Exec.Store_queue.next_seq_after q 20);
  Alcotest.(check int) "past" Pmem.Interval.infinity (Exec.Store_queue.next_seq_after q 99)

let prop_next_seq_after =
  QCheck.Test.make ~name:"next_seq_after = first strictly greater" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (int_range 1 100)) (int_range 0 110))
    (fun (seqs, s) ->
      let seqs = List.sort_uniq compare seqs in
      let q = Exec.Store_queue.create () in
      List.iter (fun x -> Exec.Store_queue.push q (entry x x)) seqs;
      let expected =
        match List.filter (fun x -> x > s) seqs with
        | [] -> Pmem.Interval.infinity
        | x :: _ -> x
      in
      Exec.Store_queue.next_seq_after q s = expected)

let test_exec_record () =
  let e = Exec.Exec_record.create ~id:1 in
  Alcotest.(check bool) "not initial" false (Exec.Exec_record.is_initial e);
  Exec.Exec_record.push_store e 100 ~value:7 ~seq:1 ~label:"a";
  Exec.Exec_record.push_store e 100 ~value:8 ~seq:2 ~label:"b";
  Exec.Exec_record.push_store e 200 ~value:9 ~seq:3 ~label:"c";
  Alcotest.(check int) "store count" 3 (Exec.Exec_record.store_count e);
  Alcotest.(check int) "queue length" 2
    (Exec.Exec_record.visible_length e 100 (Exec.Exec_record.store_queue e 100));
  Alcotest.(check bool) "no queue for untouched" true
    (Exec.Exec_record.visible_stores e 300 = None);
  Alcotest.(check int) "unflushed before flush" 2 (Exec.Exec_record.unflushed_store_count e 100);
  Exec.Exec_record.flush_line e 100 ~seq:5;
  Alcotest.(check int) "unflushed after flush" 0 (Exec.Exec_record.unflushed_store_count e 100);
  Alcotest.(check int) "other line unaffected" 1 (Exec.Exec_record.unflushed_store_count e 200);
  Alcotest.(check int) "flush count" 1 (Exec.Exec_record.flush_count e);
  Alcotest.(check int) "written addrs" 2 (List.length (Exec.Exec_record.written_addrs e))

let test_exec_stack () =
  let s = Exec.Exec_stack.create () in
  Alcotest.(check int) "depth" 1 (Exec.Exec_stack.depth s);
  let top = Exec.Exec_stack.top s in
  Alcotest.(check int) "top id" 1 (Exec.Exec_record.id top);
  let below = Exec.Exec_stack.prev s top in
  Alcotest.(check bool) "initial below" true (Exec.Exec_record.is_initial below);
  let e2 = Exec.Exec_stack.push_fresh s in
  Alcotest.(check int) "new top id" 2 (Exec.Exec_record.id e2);
  Alcotest.(check int) "depth 2" 2 (Exec.Exec_stack.depth s);
  Alcotest.(check int) "prev of new top" 1 (Exec.Exec_record.id (Exec.Exec_stack.prev s e2));
  Alcotest.check_raises "prev of initial" (Invalid_argument "Exec_stack.prev: no predecessor")
    (fun () -> ignore (Exec.Exec_stack.prev s below))

(* --- read-from semantics ------------------------------------------------- *)

let source_values srcs = List.map (fun s -> s.Exec.Read_from.value) srcs

(* One failed execution over the initial image. *)
let stack_with_stores stores ~flush_at =
  let s = Exec.Exec_stack.create () in
  let e1 = Exec.Exec_stack.top s in
  List.iter (fun (addr, value, seq) -> Exec.Exec_record.push_store e1 addr ~value ~seq ~label:"w") stores;
  (match flush_at with
  | Some (addr, seq) -> Exec.Exec_record.flush_line e1 addr ~seq
  | None -> ());
  ignore (Exec.Exec_stack.push_fresh s);
  s

let test_rf_unflushed_line () =
  (* No flush: every store plus the initial zero is a candidate. *)
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2); (100, 3, 3) ] ~flush_at:None in
  let srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "newest first, zero last" [ 3; 2; 1; 0 ] (source_values srcs)

let test_rf_flushed_line () =
  (* Flush after seq 2: the newest store at or before the flush is definite;
     later stores remain possible; the initial zero is not. *)
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2); (100, 3, 4) ] ~flush_at:(Some (100, 3)) in
  let srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "window plus newest definite" [ 3; 2 ] (source_values srcs)

let test_rf_fully_flushed () =
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2) ] ~flush_at:(Some (100, 5)) in
  let srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "single definite value" [ 2 ] (source_values srcs)

let test_rf_current_execution_wins () =
  let s = stack_with_stores [ (100, 1, 1) ] ~flush_at:None in
  let top = Exec.Exec_stack.top s in
  Exec.Exec_record.push_store top 100 ~value:9 ~seq:10 ~label:"recovery write";
  let srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "own store shadows history" [ 9 ] (source_values srcs);
  Alcotest.(check bool) "no persistency constraint" true
    ((List.hd srcs).Exec.Read_from.seq = None)

let test_rf_sb_bypass_wins () =
  let s = stack_with_stores [ (100, 1, 1) ] ~flush_at:None in
  let srcs = Exec.Read_from.build_may_read_from ~sb_value:(7, "sb") s 100 in
  Alcotest.(check (list int)) "store buffer bypass" [ 7 ] (source_values srcs)

let test_do_read_refines_same_line () =
  (* The Fig. 2/3 scenario at byte granularity: after committing to the
     second store of a line, earlier stores to other bytes of that line are
     no longer candidates. *)
  let s =
    stack_with_stores
      [ (100, 1, 1) (* x=1 *); (108, 5, 2) (* y=5 *); (100, 2, 3) (* x=2 *) ]
      ~flush_at:None
  in
  let x_srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "x candidates" [ 2; 1; 0 ] (source_values x_srcs);
  (* Commit x to the newest store (seq 3). *)
  Exec.Read_from.do_read s 100 (List.hd x_srcs);
  let y_srcs = Exec.Read_from.build_may_read_from s 108 in
  Alcotest.(check (list int)) "y pinned by x's refinement" [ 5 ] (source_values y_srcs)

let test_do_read_refines_upper_bound () =
  let s = stack_with_stores [ (100, 1, 1); (108, 5, 2); (100, 2, 3) ] ~flush_at:None in
  let x_srcs = Exec.Read_from.build_may_read_from s 100 in
  (* Commit x to the initial zero: the line was never written back after
     any store, so y must also read zero. *)
  let zero = List.nth x_srcs 2 in
  Alcotest.(check int) "zero candidate" 0 zero.Exec.Read_from.value;
  Exec.Read_from.do_read s 100 zero;
  let y_srcs = Exec.Read_from.build_may_read_from s 108 in
  Alcotest.(check (list int)) "y pinned to zero" [ 0 ] (source_values y_srcs)

let test_rf_two_failures_deep () =
  (* Two failed executions: a value flushed in the older one is readable
     when the newer one never persisted its overwrite. *)
  let s = Exec.Exec_stack.create () in
  let e1 = Exec.Exec_stack.top s in
  Exec.Exec_record.push_store e1 100 ~value:1 ~seq:1 ~label:"old";
  Exec.Exec_record.flush_line e1 100 ~seq:2;
  let e2 = Exec.Exec_stack.push_fresh s in
  Exec.Exec_record.push_store e2 100 ~value:2 ~seq:3 ~label:"new unflushed";
  ignore (Exec.Exec_stack.push_fresh s);
  let srcs = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "new store or older flushed value" [ 2; 1 ] (source_values srcs);
  (* Committing to the old value proves e2 never flushed the line after its
     store: e2's candidates collapse for subsequent reads. *)
  Exec.Read_from.do_read s 100 (List.nth srcs 1);
  let srcs' = Exec.Read_from.build_may_read_from s 100 in
  Alcotest.(check (list int)) "refined to the old value" [ 1 ] (source_values srcs')

(* Reference model of ReadPreFailure for a single byte of a single failed
   execution: candidates are every store in the open window (lo, hi) newest
   first, then the newest store at or before lo — or the initial zero when
   no store predates lo. *)
let reference_candidates stores ~lo =
  let in_window = List.rev (List.filter (fun (s, _) -> s > lo) stores) in
  let le_lo = List.filter (fun (s, _) -> s <= lo) stores in
  let tail =
    match List.rev le_lo with (_, v) :: _ -> [ v ] | [] -> [ 0 ]
  in
  List.map snd in_window @ tail

let prop_candidates_match_reference =
  QCheck.Test.make ~name:"BuildMayReadFrom matches the Fig. 9 reference" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 8) (int_range 1 100))
        (option (int_range 0 60)))
    (fun (values, flush_after) ->
      (* Stores at seqs 2,4,6,...; optional flush at an interleaving seq. *)
      let stores = List.mapi (fun i v -> ((2 * i) + 2, v)) values in
      let s = Exec.Exec_stack.create () in
      let e1 = Exec.Exec_stack.top s in
      List.iter
        (fun (seq, v) -> Exec.Exec_record.push_store e1 100 ~value:(v land 0xff) ~seq ~label:"w")
        stores;
      let lo =
        match flush_after with
        | Some f when f > 0 ->
            Exec.Exec_record.flush_line e1 100 ~seq:f;
            f
        | _ -> 0
      in
      ignore (Exec.Exec_stack.push_fresh s);
      let got =
        List.map (fun src -> src.Exec.Read_from.value) (Exec.Read_from.build_may_read_from s 100)
      in
      let expected =
        reference_candidates (List.map (fun (q, v) -> (q, v land 0xff)) stores) ~lo
      in
      got = expected)

let prop_do_read_narrows =
  QCheck.Test.make ~name:"committing to a candidate never widens later candidate sets" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 100))
    (fun values ->
      let stores = List.mapi (fun i v -> ((2 * i) + 2, v land 0xff)) values in
      let s = Exec.Exec_stack.create () in
      let e1 = Exec.Exec_stack.top s in
      List.iter (fun (seq, v) -> Exec.Exec_record.push_store e1 100 ~value:v ~seq ~label:"w") stores;
      ignore (Exec.Exec_stack.push_fresh s);
      let before = Exec.Read_from.build_may_read_from s 100 in
      List.for_all
        (fun src ->
          (* Refine on a copy of the stack state is impossible (mutable), so
             rebuild per candidate. *)
          let s = Exec.Exec_stack.create () in
          let e1 = Exec.Exec_stack.top s in
          List.iter
            (fun (seq, v) -> Exec.Exec_record.push_store e1 100 ~value:v ~seq ~label:"w")
            stores;
          ignore (Exec.Exec_stack.push_fresh s);
          let cands = Exec.Read_from.build_may_read_from s 100 in
          let chosen =
            List.find (fun c -> c.Exec.Read_from.seq = src.Exec.Read_from.seq) cands
          in
          Exec.Read_from.do_read s 100 chosen;
          let after = Exec.Read_from.build_may_read_from s 100 in
          (* The committed value must still be readable, and the set shrinks
             to candidates consistent with it. *)
          List.exists (fun c -> c.Exec.Read_from.value = chosen.Exec.Read_from.value) after
          && List.length after <= List.length cands)
        before)

(* --- model-based properties ---------------------------------------------- *)

(* Records, views and writable views against a naive model: per record, the
   list of stores it shows (addr, value, seq; oldest first) and each line's
   last-writeback lower bound. Addresses span three cache lines. *)
type model = { stores : (int * int * int) list; lows : (int * int) list; writable : bool }

type cmd =
  | Push of int * int * int  (** handle, addr, value *)
  | Flush of int * int  (** handle, addr *)
  | View of int * int  (** handle, how far the bound lags the newest seq *)
  | Freeze of int  (** handle *)

let lines = [ 0; 1; 2 ]
let all_addrs = List.concat_map (fun l -> List.init 4 (fun o -> (64 * l) + o)) lines
let gen_addr = QCheck2.Gen.(map2 (fun l o -> (64 * l) + o) (int_range 0 2) (int_range 0 3))
let gen_handle = QCheck2.Gen.int_range 0 15

let gen_cmd =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun h a v -> Push (h, a, v)) gen_handle gen_addr (int_range 0 255));
        (2, map2 (fun h a -> Flush (h, a)) gen_handle gen_addr);
        (1, map2 (fun h lag -> View (h, lag)) gen_handle (int_range 0 3));
        (1, map (fun h -> Freeze h) gen_handle);
      ])

let print_cmd = function
  | Push (h, a, v) -> Printf.sprintf "push h%d %d=%d" h a v
  | Flush (h, a) -> Printf.sprintf "flush h%d %d" h a
  | View (h, lag) -> Printf.sprintf "view h%d lag %d" h lag
  | Freeze h -> Printf.sprintf "freeze h%d" h

let model_lo m line = Option.value ~default:0 (List.assoc_opt line m.lows)

(* Every accessor of [r] agrees with its model. *)
let agrees r m =
  let of_addr a = List.filter (fun (a', _, _) -> a' = a) m.stores in
  let addr_ok a =
    let mine = of_addr a in
    let seqs = List.map (fun (_, _, s) -> s) mine in
    let next s = match List.filter (fun x -> x > s) seqs with x :: _ -> x | [] -> Pmem.Interval.infinity in
    let lo = model_lo m (Pmem.Addr.line_of a) in
    Exec.Exec_record.fold_stores (fun e acc -> (a, e.Exec.Store_queue.value, e.seq) :: acc) r a []
    = List.rev mine
    && Exec.Exec_record.last_store_byte r a
       = (match List.rev mine with (_, v, _) :: _ -> v | [] -> -1)
    && Exec.Exec_record.has_stores r a = (mine <> [])
    && List.for_all (fun s -> Exec.Exec_record.next_store_seq_after r a s = next s) (0 :: seqs)
    && Exec.Exec_record.unflushed_store_count r a = List.length (List.filter (fun s -> s > lo) seqs)
    && Exec.Exec_record.line_lo r a = lo
  in
  List.for_all addr_ok all_addrs
  && Exec.Exec_record.written_addrs r
     = List.sort_uniq compare (List.map (fun (a, _, _) -> a) m.stores)

let prop_record_matches_model =
  QCheck2.Test.make ~count:300 ~name:"records, views and freezes match a list model"
    ~print:(fun cmds -> String.concat "; " (List.map print_cmd cmds))
    QCheck2.Gen.(list_size (int_range 1 40) gen_cmd)
    (fun cmds ->
      let seq = ref 0 in
      let handles = ref [ (Exec.Exec_record.create ~id:1, { stores = []; lows = []; writable = true }) ] in
      let pick h = List.nth !handles (h mod List.length !handles) in
      let add hm = handles := !handles @ [ hm ] in
      List.for_all
        (fun cmd ->
          let ok =
            match cmd with
            | Push (h, a, value) ->
                let r, m = pick h in
                incr seq;
                if m.writable then begin
                  Exec.Exec_record.push_store r a ~value ~seq:!seq ~label:"w";
                  handles :=
                    List.map
                      (fun (r', m') -> if r' == r then (r', { m' with stores = m'.stores @ [ (a, value, !seq) ] }) else (r', m'))
                      !handles;
                  true
                end
                else begin
                  match Exec.Exec_record.push_store r a ~value ~seq:!seq ~label:"w" with
                  | () -> false
                  | exception Invalid_argument _ -> true
                end
            | Flush (h, a) ->
                let r, _ = pick h in
                incr seq;
                Exec.Exec_record.flush_line r a ~seq:!seq;
                let line = Pmem.Addr.line_of a in
                handles :=
                  List.map
                    (fun (r', m') ->
                      if r' == r then
                        (r', { m' with lows = (line, max !seq (model_lo m' line)) :: List.remove_assoc line m'.lows })
                      else (r', m'))
                    !handles;
                true
            | View (h, lag) ->
                let r, m = pick h in
                let bound = max 0 (!seq - lag) in
                add
                  ( Exec.Exec_record.snapshot_view ~bound r,
                    { m with stores = List.filter (fun (_, _, s) -> s <= bound) m.stores; writable = false } );
                true
            | Freeze h ->
                let r, m = pick h in
                add (Exec.Exec_record.snapshot_freeze r, { m with writable = true });
                true
          in
          ok && List.for_all (fun (r, m) -> agrees r m) !handles)
        cmds)

(* Random execution stacks: stores and flushes into the top record, crashes,
   restores of the whole stack from snapshot views (a writable top, as under
   buffered eviction), and loads of width 1-8 that commit to a chosen
   candidate. Stores and loads land on the last and first bytes of lines
   0-3, so loads are unaligned and cross lines. Two stacks are built in
   lockstep so a load can be taken through [read_single_span] on one and
   byte by byte through [do_read] on the other. *)
type step =
  | S_push of int * int
  | S_flush of int
  | S_crash
  | S_restore
  | S_read of int * int * int * int
      (** addr, width, bytes known beforehand (a bit mask), which candidate
          to commit to *)

let span_lines = [ 0; 1; 2; 3 ]
let gen_span_addr = QCheck2.Gen.(map2 (fun l o -> (64 * l) + o) (int_range 0 2) (int_range 58 69))

let gen_step =
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun a v -> S_push (a, v)) gen_span_addr (int_range 0 255));
        (2, map (fun a -> S_flush a) gen_span_addr);
        (1, pure S_crash);
        (1, pure S_restore);
        ( 4,
          map4
            (fun a w known k -> S_read (a, w, known, k))
            gen_span_addr (int_range 1 8)
            (frequency [ (3, pure 0); (1, int_range 0 255) ])
            (int_range 0 7) );
      ])

let print_step = function
  | S_push (a, v) -> Printf.sprintf "push %d=%d" a v
  | S_flush a -> Printf.sprintf "flush %d" a
  | S_crash -> "crash"
  | S_restore -> "restore"
  | S_read (a, w, known, k) -> Printf.sprintf "read %d/%d known %x #%d" a w known k

let intervals s =
  List.concat_map
    (fun e ->
      List.map
        (fun l ->
          let a = 64 * l in
          (Exec.Exec_record.line_lo e a, Exec.Exec_record.line_hi e a))
        span_lines)
    (Exec.Exec_stack.to_list s)

(* Commits byte [a] to its [k]-th candidate (mod the count); returns the
   candidate count and the byte. *)
let commit s a k =
  let c = Exec.Read_from.build_may_read_from s a in
  let src = List.nth c (k mod List.length c) in
  Exec.Read_from.do_read s a src;
  (List.length c, src.Exec.Read_from.value)

let prop_span_read_matches_do_read =
  QCheck2.Test.make ~count:500
    ~name:"read_single_span = the lone candidates of build_may_read_from"
    ~print:(fun steps -> String.concat "; " (List.map print_step steps))
    QCheck2.Gen.(list_size (int_range 1 40) gen_step)
    (fun steps ->
      let s1 = Exec.Exec_stack.create () and s2 = Exec.Exec_stack.create () in
      let seq = ref 0 in
      let both f = f s1; f s2 in
      List.for_all
        (fun step ->
          match step with
          | S_push (a, value) ->
              incr seq;
              both (fun s ->
                  Exec.Exec_record.push_store (Exec.Exec_stack.top s) a ~value ~seq:!seq ~label:"w");
              true
          | S_flush a ->
              incr seq;
              both (fun s -> Exec.Exec_record.flush_line (Exec.Exec_stack.top s) a ~seq:!seq);
              true
          | S_crash ->
              both (fun s -> ignore (Exec.Exec_stack.push_fresh s));
              true
          | S_restore ->
              both (fun s ->
                  Exec.Exec_stack.restore s
                    (List.mapi
                       (fun i e ->
                         if Exec.Exec_record.is_initial e then e
                         else if i = 0 then
                           Exec.Exec_record.snapshot_freeze (Exec.Exec_record.snapshot_view ~bound:!seq e)
                         else Exec.Exec_record.snapshot_view e)
                       (Exec.Exec_stack.to_list s)));
              true
          | S_read (a, w, known_mask, k) ->
              let known i = known_mask land (1 lsl i) <> 0 in
              let out = Array.init 8 (fun i -> if i < w && known i then 200 + i else -1) in
              let first_multi = Exec.Read_from.read_single_span s1 a ~width:w out in
              (* The reference: every unknown byte in order through the
                 candidate list and [do_read]. *)
              let expected_multi = ref w and values_agree = ref true in
              for i = 0 to w - 1 do
                if not (known i) then begin
                  let n, value = commit s2 (a + i) k in
                  if n > 1 && !expected_multi = w then expected_multi := i;
                  if i < !expected_multi && out.(i) <> value then values_agree := false
                end
                else if i < first_multi && out.(i) <> 200 + i then values_agree := false
              done;
              (* The span walk refined nothing; the bytes from the first
                 multi-candidate one on are committed one by one. *)
              for i = first_multi to w - 1 do
                if not (known i) then ignore (commit s1 (a + i) k)
              done;
              first_multi = !expected_multi && !values_agree && intervals s1 = intervals s2)
        steps)

let () =
  Alcotest.run "exec"
    [
      ( "store-queue",
        [
          Alcotest.test_case "basics" `Quick test_store_queue_basics;
          Alcotest.test_case "next_seq_after" `Quick test_next_seq_after;
          QCheck_alcotest.to_alcotest prop_next_seq_after;
        ] );
      ( "records",
        [
          Alcotest.test_case "exec record" `Quick test_exec_record;
          Alcotest.test_case "exec stack" `Quick test_exec_stack;
        ] );
      ( "read-from",
        [
          Alcotest.test_case "unflushed line" `Quick test_rf_unflushed_line;
          Alcotest.test_case "flushed line" `Quick test_rf_flushed_line;
          Alcotest.test_case "fully flushed" `Quick test_rf_fully_flushed;
          Alcotest.test_case "current execution wins" `Quick test_rf_current_execution_wins;
          Alcotest.test_case "sb bypass wins" `Quick test_rf_sb_bypass_wins;
          Alcotest.test_case "same-line refinement" `Quick test_do_read_refines_same_line;
          Alcotest.test_case "upper-bound refinement" `Quick test_do_read_refines_upper_bound;
          Alcotest.test_case "two failures deep" `Quick test_rf_two_failures_deep;
          QCheck_alcotest.to_alcotest prop_candidates_match_reference;
          QCheck_alcotest.to_alcotest prop_do_read_narrows;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_record_matches_model;
          QCheck_alcotest.to_alcotest prop_span_read_matches_do_read;
        ] );
    ]
