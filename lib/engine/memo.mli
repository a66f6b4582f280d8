(** A domain-safe string-keyed memo table with hit/miss accounting.

    The parallel pair-testing engine shares one table across all worker
    domains: lookups and inserts take a single mutex (the guarded section
    is a hash-table probe, orders of magnitude cheaper than the dependence
    test it saves). Two workers may race to compute the same key; both
    computes are correct and the last insert wins, so the race costs one
    duplicated computation and never changes an answer. *)

type 'v t

val create : ?size:int -> ?capacity:int -> unit -> 'v t
(** [size] is the initial hash-table sizing hint. [capacity], when given,
    bounds the number of resident entries: an insert that would exceed it
    evicts the oldest entries (FIFO over insertion order) and counts each
    one in {!evictions}. Without [capacity] the table grows unboundedly
    (the historical behavior). *)

val find_opt : 'v t -> string -> 'v option
(** Bumps the hit or miss counter. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace, evicting past [capacity]. Does not touch the
    hit/miss counters. *)

val length : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int

val evictions : 'v t -> int
(** Entries dropped by capacity eviction since creation. *)

val hit_rate : 'v t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val reset_stats : 'v t -> unit
