(* Unit and property tests for the pmem substrate. *)

let test_addr_lines () =
  Alcotest.(check int) "line of 0" 0 (Pmem.Addr.line_of 0);
  Alcotest.(check int) "line of 63" 0 (Pmem.Addr.line_of 63);
  Alcotest.(check int) "line of 64" 1 (Pmem.Addr.line_of 64);
  Alcotest.(check int) "base" 64 (Pmem.Addr.line_base 100);
  Alcotest.(check int) "offset" 36 (Pmem.Addr.line_offset 100);
  Alcotest.(check bool) "same line" true (Pmem.Addr.same_line 64 127);
  Alcotest.(check bool) "diff line" false (Pmem.Addr.same_line 63 64);
  Alcotest.(check (list int)) "span one" [ 1 ] (Pmem.Addr.lines_spanned 64 64);
  Alcotest.(check (list int)) "span two" [ 0; 1 ] (Pmem.Addr.lines_spanned 60 8);
  Alcotest.(check (list int)) "span three" [ 0; 1; 2 ] (Pmem.Addr.lines_spanned 0 129)

let test_interval_basics () =
  let iv = Pmem.Interval.make () in
  Alcotest.(check int) "lo" 0 (Pmem.Interval.lo iv);
  Alcotest.(check int) "hi" Pmem.Interval.infinity (Pmem.Interval.hi iv);
  Alcotest.(check bool) "not empty" false (Pmem.Interval.is_empty iv);
  Pmem.Interval.raise_lo iv 10;
  Pmem.Interval.raise_lo iv 5 (* no-op: lower than current *);
  Alcotest.(check int) "lo raised" 10 (Pmem.Interval.lo iv);
  Pmem.Interval.lower_hi iv 20;
  Pmem.Interval.lower_hi iv 30 (* no-op *);
  Alcotest.(check int) "hi lowered" 20 (Pmem.Interval.hi iv);
  Alcotest.(check bool) "mem 10" true (Pmem.Interval.mem iv 10);
  Alcotest.(check bool) "mem 19" true (Pmem.Interval.mem iv 19);
  Alcotest.(check bool) "not mem 20" false (Pmem.Interval.mem iv 20);
  Pmem.Interval.lower_hi iv 10;
  Alcotest.(check bool) "now empty" true (Pmem.Interval.is_empty iv)

let test_interval_copy_set () =
  let a = Pmem.Interval.make () in
  Pmem.Interval.raise_lo a 3;
  let b = Pmem.Interval.copy a in
  Pmem.Interval.raise_lo a 9;
  Alcotest.(check int) "copy is independent" 3 (Pmem.Interval.lo b);
  Pmem.Interval.set b a;
  Alcotest.(check bool) "set copies bounds" true (Pmem.Interval.equal a b)

let test_bytes_known () =
  Alcotest.(check (list int)) "explode 1" [ 0xff ] (Pmem.Bytes_le.explode ~width:1 0xff);
  Alcotest.(check (list int)) "explode 2 LE" [ 0x34; 0x12 ] (Pmem.Bytes_le.explode ~width:2 0x1234);
  Alcotest.(check int) "implode" 0x1234 (Pmem.Bytes_le.implode [ 0x34; 0x12 ]);
  Alcotest.(check int) "byte_at" 0x12 (Pmem.Bytes_le.byte_at ~width:2 0x1234 1);
  Alcotest.(check int) "truncate" 0x34 (Pmem.Bytes_le.truncate ~width:1 0x1234);
  Alcotest.(check int) "truncate id" max_int (Pmem.Bytes_le.truncate ~width:8 max_int)

let test_bytes_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bytes_le: width 0 not in [1, 8]") (fun () ->
      ignore (Pmem.Bytes_le.explode ~width:0 1));
  Alcotest.check_raises "width 9" (Invalid_argument "Bytes_le: width 9 not in [1, 8]") (fun () ->
      ignore (Pmem.Bytes_le.explode ~width:9 1))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"explode/implode roundtrip" ~count:500
    QCheck.(pair (int_range 1 8) int)
    (fun (width, v) ->
      let v = Pmem.Bytes_le.truncate ~width v in
      Pmem.Bytes_le.implode (Pmem.Bytes_le.explode ~width v) = v)

let prop_bytes_roundtrip_full_width =
  QCheck.Test.make ~name:"width-8 roundtrip incl. negatives" ~count:500 QCheck.int (fun v ->
      Pmem.Bytes_le.implode (Pmem.Bytes_le.explode ~width:8 v) = v)

let test_crc_known () =
  (* Standard CRC-32 test vector. *)
  Alcotest.(check int) "123456789" 0xcbf43926 (Pmem.Crc32.digest_string "123456789");
  Alcotest.(check int) "empty" 0 (Pmem.Crc32.digest_string "")

let prop_crc_incremental =
  QCheck.Test.make ~name:"incremental crc = one-shot crc" ~count:200
    QCheck.(list (int_range 0 255))
    (fun bytes ->
      Pmem.Crc32.digest_bytes bytes
      = Pmem.Crc32.finish (List.fold_left Pmem.Crc32.update Pmem.Crc32.empty bytes))

let prop_crc_discriminates =
  QCheck.Test.make ~name:"crc differs on a flipped byte" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 32) (int_range 0 255)) (int_range 0 31))
    (fun (bytes, i) ->
      QCheck.assume (bytes <> []);
      let i = i mod List.length bytes in
      let flipped = List.mapi (fun j b -> if j = i then b lxor 0x5a else b) bytes in
      Pmem.Crc32.digest_bytes bytes <> Pmem.Crc32.digest_bytes flipped)

let test_region () =
  let r = Pmem.Region.v ~base:0x1000 ~size:256 in
  Alcotest.(check bool) "contains start" true (Pmem.Region.contains r 0x1000 1);
  Alcotest.(check bool) "contains all" true (Pmem.Region.contains r 0x1000 256);
  Alcotest.(check bool) "limit excluded" false (Pmem.Region.contains r 0x1100 1);
  Alcotest.(check bool) "below" false (Pmem.Region.contains r 0xfff 1);
  Alcotest.(check bool) "overrun" false (Pmem.Region.contains r 0x10ff 2);
  Alcotest.(check int) "limit" 0x1100 (Pmem.Region.limit r);
  Alcotest.check_raises "unaligned base"
    (Invalid_argument "Region.v: base must be positive and cache-line aligned") (fun () ->
      ignore (Pmem.Region.v ~base:0x1001 ~size:64))

(* The int-keyed table against an association list, across growth (keys
   spread well past the initial 16 slots), copies that must stay
   independent of their source, and resets. *)
type table_op = Replace of int * int | Copy | Reset

let prop_int_table_model =
  QCheck2.Test.make ~count:100 ~name:"Int_table = association-list model"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (20, map2 (fun k v -> Replace (k, v)) (int_range 0 300) (int_range 1 1000));
             (1, pure Copy);
             (1, pure Reset);
           ]))
    (fun ops ->
      let t = ref (Pmem.Int_table.create ~default:0) and model = ref [] in
      let agrees t model =
        List.for_all (fun k -> Pmem.Int_table.find t k = Option.value ~default:0 (List.assoc_opt k model))
          (List.init 302 (fun k -> k - 1))
        &&
        let bound = ref [] in
        Pmem.Int_table.iter (fun k v -> bound := (k, v) :: !bound) t;
        List.sort compare !bound = List.sort compare model
      in
      List.for_all
        (fun op ->
          match op with
          | Replace (k, v) ->
              Pmem.Int_table.replace !t k v;
              model := (k, v) :: List.remove_assoc k !model;
              agrees !t !model
          | Copy ->
              let before = !model in
              let c = Pmem.Int_table.copy !t in
              Pmem.Int_table.replace !t 0 (-7);
              let ok = agrees c before in
              t := c;
              model := before;
              ok
          | Reset ->
              Pmem.Int_table.reset !t;
              model := [];
              agrees !t !model)
        ops)

let () =
  Alcotest.run "pmem"
    [
      ( "addr",
        [ Alcotest.test_case "lines" `Quick test_addr_lines ] );
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "copy/set" `Quick test_interval_copy_set;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "known values" `Quick test_bytes_known;
          Alcotest.test_case "invalid widths" `Quick test_bytes_invalid;
          QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_bytes_roundtrip_full_width;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known;
          QCheck_alcotest.to_alcotest prop_crc_incremental;
          QCheck_alcotest.to_alcotest prop_crc_discriminates;
        ] );
      ("region", [ Alcotest.test_case "bounds" `Quick test_region ]);
      ("int-table", [ QCheck_alcotest.to_alcotest prop_int_table_model ]);
    ]
