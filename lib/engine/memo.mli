(** A domain-safe string-keyed memo table with hit/miss accounting.

    The parallel pair-testing engine shares one table across all worker
    domains: lookups and inserts take a single mutex (the guarded section
    is a hash-table probe, orders of magnitude cheaper than the dependence
    test it saves). Two workers may race to compute the same key; both
    computes are correct and the last insert wins, so the race costs one
    duplicated computation and never changes an answer. The table is
    unbounded: it lives as long as one analysis configuration. *)

type 'v t

val create : unit -> 'v t

val find_opt : 'v t -> string -> 'v option
(** Bumps the hit or miss counter. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace. Does not touch the hit/miss counters. *)

val length : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int
