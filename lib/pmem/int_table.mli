(** An int-keyed, open-addressed hash table with a default value.

    Keys are non-negative ints (byte addresses, cache-line numbers); keys
    and values live in two flat arrays probed linearly, so a lookup is an
    integer multiply and a few array reads — no polymorphic hashing, no
    structural comparison and no allocation. A lookup of an absent key
    returns the table's [default] instead of an option, so hot paths never
    box a result. There are no deletions. *)

type 'a t

val create : default:'a -> 'a t
(** An empty table with a small initial capacity (16 slots). *)

val copy : 'a t -> 'a t
(** An independent copy: later updates to either table do not affect the
    other (the values themselves are shared). *)

val find : 'a t -> int -> 'a
(** [find t key] is the value bound to [key], or [default] if none. *)

val replace : 'a t -> int -> 'a -> unit
(** [replace t key v] binds [key] to [v]. Raises [Invalid_argument] on a
    negative key. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Applies the function to every binding, in unspecified order. *)

val reset : 'a t -> unit
(** Removes every binding and shrinks the table to its initial capacity. *)
