(* Records indexed by id: the record with id [i] sits at [execs.(i)], so
   [prev] — called once per record on every recovery read — is one array
   read. Ids are contiguous from the initial image (id 0) to the top. *)
type t = { mutable execs : Exec_record.t array; mutable top : int }

let create () =
  { execs = [| Exec_record.initial (); Exec_record.create ~id:1 |]; top = 1 }

let top s = s.execs.(s.top)

let prev s e =
  let i = Exec_record.id e in
  if i < 1 || i > s.top then invalid_arg "Exec_stack.prev: no predecessor";
  s.execs.(i - 1)

let push_fresh s =
  let id = s.top + 1 in
  let e = Exec_record.create ~id in
  if id = Array.length s.execs then begin
    let execs = Array.make (2 * id) e in
    Array.blit s.execs 0 execs 0 id;
    s.execs <- execs
  end;
  s.execs.(id) <- e;
  s.top <- id;
  e

let restore s records =
  (match records with [] -> invalid_arg "Exec_stack.restore: empty record list" | _ :: _ -> ());
  let execs = Array.of_list (List.rev records) in
  if not (Exec_record.is_initial execs.(0)) then
    invalid_arg "Exec_stack.restore: bottom record must be the initial image";
  Array.iteri
    (fun i e ->
      if Exec_record.id e <> i then invalid_arg "Exec_stack.restore: record ids must be contiguous")
    execs;
  s.execs <- execs;
  s.top <- Array.length execs - 1

let depth s = s.top

let to_list s =
  let rec loop i acc = if i > s.top then acc else loop (i + 1) (s.execs.(i) :: acc) in
  loop 0 []
