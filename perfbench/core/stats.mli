(** Order statistics over benchmark samples. *)

val quantile : float array -> float -> float
(** [quantile samples q] interpolates linearly between the closest ranks:
    [q = 0.] is the minimum, [q = 1.] the maximum.
    @raise Invalid_argument on no samples or [q] outside [\[0, 1\]]. *)

val median : float array -> float

val beyond : int -> float -> int
(** [beyond n q]: how many of [n] samples rank strictly above the
    [q]-quantile — a tail percentile is reported only when this is at
    least ten. *)

val geomean : float list -> float
(** @raise Invalid_argument on an empty list. *)
