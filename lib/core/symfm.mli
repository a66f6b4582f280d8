(** Fourier-Motzkin elimination with symbolic bounds.

    A miniature FM engine over a small, fixed set of iteration variables
    whose constraint bounds are symbol-only affine forms: eliminating a
    variable combines integer-scaled constraints, and final contradictions
    are decided by the sign oracle. Sound: [infeasible = true] is a proof
    (rational infeasibility implies integer infeasibility; unknown symbolic
    comparisons are treated as satisfiable).

    The Delta test uses this on coupled RDIV groups (at most four
    variables: alpha_i, alpha_j, beta_i, beta_j), where the paper's
    restricted propagation meets triangular bounds — e.g. proving that a
    transposed reference in a strict triangle can never collide. The
    general-purpose rational FM used by the Power test lives in
    [dt_exact]; this one exists so the *practical* suite can stay
    independent of the expensive machinery while handling the common
    special case exactly. *)

open Dt_ir

type constr = {
  coeffs : int array;  (** length = nvars; sum coeffs.(v) * x_v *)
  bound : Affine.t;  (** symbol-only affine: sum <= bound *)
}

val le : int array -> Affine.t -> constr
val eq : int array -> Affine.t -> constr list
(** An equality as two inequalities. *)

val infeasible : Assume.t -> nvars:int -> constr list -> bool
(** [true] proves there is no rational (hence no integer) solution.
    @raise Dt_guard.Ops.Overflow when a combined coefficient or bound
    leaves the native int range. *)

val max_constraints : int
(** Safety cap: elimination aborts (returning [false], i.e. "cannot
    disprove") once the constraint set exceeds this size. *)
