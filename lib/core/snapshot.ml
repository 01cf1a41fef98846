type key = (Choice.kind * int * int) array

type t = {
  key : key;
  stack : Exec.Exec_record.t list;  (* top-first master copies; never mutated *)
  seq : int;
  threads : Tso.Thread_state.t list;
  trace : Trace.t;
  failure_count : int;
  fp_count : int;
  rng : int;
  last : string;
  crash_label : string option;
}

(* Sorted by key length, deepest first, so the first [recorded_matches] hit
   in [find] is the deepest usable snapshot — the one that skips the most
   pre-failure work. *)
type cache = { mutable snaps : t list }

let max_cached = 256

let create_cache () = { snaps = [] }

let failure_key choice =
  Array.append (Choice.consumed choice) [| (Choice.Failure_point, 2, 1) |]

let crash_key choice = Choice.consumed choice

(* Decision keys are compared cell by cell. At [Choice.kind], a constant
   constructor type, and at [int], [=] and [<] compile to single integer
   compares; [=] on the whole arrays of tuples was a [compare_val] walk.
   [same_cells] starts at the deepest cell, where keys that share a prefix
   differ. *)
let rec same_cells (a : key) (b : key) i =
  i < 0
  ||
  let ka, na, ca = a.(i) and kb, nb, cb = b.(i) in
  ca = cb && na = nb && ka = kb && same_cells a b (i - 1)

let same_key (a : key) (b : key) =
  Array.length a = Array.length b && same_cells a b (Array.length a - 1)

let rec mem_in key = function [] -> false | s :: rest -> same_key s.key key || mem_in key rest
let mem cache key = mem_in key cache.snaps

(* Every record in a snapshot is a bounded view (Exec_record.snapshot_view):
   line intervals copied — the recovery read-from analysis refines them in
   place even on buried records — store queues shared with the capturing
   execution, entries newer than the capture hidden behind the view's seq
   bound. The top record is the one the crashing execution keeps writing
   into, so its view is bounded at the capture-time sequence number; buried
   records' queues are frozen already and keep whatever bound they carry
   (restored replays can themselves be captured). The initial image is
   immutable and shared outright. *)
let capture ~key ~stack ~seq ~threads ~trace ~failure_count ~fp_count ~rng ~last
    ~crash_label =
  let stack =
    List.mapi
      (fun i e ->
        if Exec.Exec_record.is_initial e then e
        else if i = 0 then Exec.Exec_record.snapshot_view ~bound:seq e
        else Exec.Exec_record.snapshot_view e)
      (Exec.Exec_stack.to_list stack)
  in
  {
    key;
    stack;
    seq;
    threads = List.map Tso.Thread_state.copy threads;
    trace = Trace.copy trace;
    failure_count;
    fp_count;
    rng;
    last;
    crash_label;
  }

(* Per-restore copies: views of the master's views (fresh line intervals,
   still-shared queues). Under buffered eviction the top must instead be a
   private truncated copy ([deep_top]) — the drain at the restored crash
   pushes the surviving store-buffer entries into it. *)
let materialize ~deep_top snap =
  let stack =
    List.mapi
      (fun i e ->
        if Exec.Exec_record.is_initial e then e
        else if i = 0 && deep_top then Exec.Exec_record.snapshot_freeze e
        else Exec.Exec_record.snapshot_view e)
      snap.stack
  in
  (stack, List.map Tso.Thread_state.copy snap.threads)

(* [advance] is a lexicographic increment over the chosen-vector, so once
   this worker's search has reached the path of [now], a snapshot that is
   lexicographically behind [now] on a shared prefix can never match one of
   this worker's future replays. Pruning is only a wall-time heuristic —
   subtrees donated via [Choice.split] live in other workers with their own
   caches, and a missing snapshot merely costs one full replay, which
   re-captures it. *)
let rec passed (k : key) (now : key) i n =
  i < n
  &&
  let ka, na, ca = k.(i) and kb, nb, cb = now.(i) in
  ka = kb && na = nb && (ca < cb || (ca = cb && passed k now (i + 1) n))

let dead ~now s = passed s.key now 0 (Int.min (Array.length s.key) (Array.length now))

let store cache snap =
  let snaps = List.filter (fun s -> not (dead ~now:snap.key s)) cache.snaps in
  let rec insert = function
    | [] -> [ snap ]
    | s :: _ as rest when Array.length s.key <= Array.length snap.key -> snap :: rest
    | s :: rest -> s :: insert rest
  in
  let snaps = insert snaps in
  (* Evict the shallowest entries first: they are the cheapest to recompute
     and skip the least replay work per hit. *)
  cache.snaps <- List.filteri (fun i _ -> i < max_cached) snaps

(* Besides returning the deepest match, [find] garbage-collects: an entry the
   replay's recorded prefix has lexicographically passed can never match
   again in this worker, and with the cache sorted deepest-first every such
   entry sits in front of the match, so each is scanned at most once more
   before being dropped. Without this, every [find] would re-walk the shared
   prefix of all already-explored deeper snapshots — O(depth^3) over a run. *)
let find cache choice =
  let matched = ref None in
  let live =
    List.filter
      (fun s ->
        match !matched with
        | Some _ -> true
        | None -> (
            match Choice.classify_recorded choice s.key with
            | `Match ->
                matched := Some s;
                true
            | `Passed -> false
            | `Keep -> true))
      cache.snaps
  in
  cache.snaps <- live;
  !matched

let clear_cache cache = cache.snaps <- []
