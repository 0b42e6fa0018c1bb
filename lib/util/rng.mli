(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the reproduction — workload models,
    program generation, lossy links, sampling, schedulers — draws from
    an explicit [Rng.t] so that whole-fleet simulations replay bit-for-
    bit from a seed.  The generator is SplitMix64, which supports cheap
    {!split}ting into statistically independent streams, one per pod or
    per simulated component. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator derived from [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns an independent child generator.
    Used to hand each pod / link / workload its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); used for arrival processes
    and link latencies.  @raise Invalid_argument if [rate <= 0.]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success
    of a Bernoulli(p); used for 1/n trace sampling countdowns.
    @raise Invalid_argument unless [0 < p <= 1]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples from a Zipf distribution over [\[0, n)] with
    exponent [s]: the skewed popularity law that makes common execution
    paths saturate early while rare paths straggle (motivating the
    paper's execution guidance).  @raise Invalid_argument if [n <= 0]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val weighted_choice : t -> ('a * float) array -> 'a
(** Element sampled proportionally to its (non-negative) weight.
    @raise Invalid_argument if the array is empty or all weights are
    zero. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] is [k] distinct elements of
    [arr] in random order.  @raise Invalid_argument if
    [k > Array.length arr]. *)
