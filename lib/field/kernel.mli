(** Fused GF(2^m) row kernels.

    Every hot loop in the repo — Gaussian elimination, matrix products, RLNC
    packet insertion, equality-check encoding — bottoms out in "combine one
    row of field symbols into another". Going through {!Gf2p.mul} for each
    symbol pays an [Atomic.get], a variant match and an assertion per
    multiply. A kernel resolves a field's
    exp/log tables {e once} into a first-class record, then exposes fused
    primitives whose inner loops are pure array arithmetic:

    - [m = 8]: a [Bytes]-backed sentinel-extended exp table (about 1 KiB,
      cache-resident);
    - [m <= 16]: log-domain loops over sentinel-extended tables, the exp
      side an unboxed int16 bigarray;
    - [m > 16]: 4-bit nibble-sliced carry-less multiplication (below).

    The sentinel extension removes every per-element zero branch: log'(0)
    is a sentinel S = 2*(2^m - 1) past any legitimate log value and the
    exp table is zero over [S, 2S], so exp'(log'(a) + log'(b)) = a*b for
    all operands including zero — one pure load chain per element.

    {2 Nibble slicing (m > 16)}

    Full exp/log tables do not fit above 16 bits, but 4-bit slices do. For
    a row-constant scalar [a], the kernel precomputes [ceil(m/4)] tables of
    16 products [MT(j)(v) = a * v * x^(4j) mod poly]; an element multiply
    is then one lookup + xor per nonzero nibble of the element — about
    [m/4] branch-free steps instead of up to [m] conditional shift-reduce
    steps of the peasant loop. When neither operand is row-constant
    ({!dot}, scalar {!mul}), only the base 16-entry table is built and the
    other operand is folded in by a branch-free Horner recurrence whose
    shift-by-4 reduces through a fixed 16-entry table
    [red4(t) = t * x^m mod poly]. The Horner step masks the accumulator to
    [m - 4] bits {e before} shifting, so nothing exceeds the native 63-bit
    int even at the [Gf2p.max_degree = 61] boundary. Rows shorter than 8
    elements fall back to an [m]-entry shift table ([a * x^j]) whose build
    cost amortizes faster.

    The nibble tables live in a per-kernel, per-domain scratch buffer
    ([Domain.DLS], [ceil(m/4) * 16] ints) resolved once in {!of_field}:
    no row primitive allocates, and concurrent {!Nab_util.Pool} workers
    each fill their own domain's buffer, so sharing one kernel across
    domains is race-free. The scratch is only valid within a single
    primitive call — it is clobbered by the next call on that domain.

    All primitives take explicit offsets and lengths so callers can work on
    flat row-major buffers without slicing. Ranges are bounds-checked once
    per call, then the loop runs unchecked. [x] and [y] may alias the same
    array only if the two ranges do not overlap (distinct rows of one flat
    matrix are fine).

    Kernels are immutable and domain-safe: {!of_field} memoizes per
    [(degree, reduction polynomial)] under a mutex, and the resolved tables
    are never written after publication. *)

type t

val of_field : Gf2p.t -> t
(** Resolve (and memoize) the kernel for a field. First call per field may
    build the {!Gf2p.tables}; subsequent calls are a cheap lookup.

    Memoization is keyed by [(degree, reduction polynomial)], so distinct
    {!Gf2p.create_with_poly} descriptors with the same parameters all alias
    one cached kernel. When the polynomial is the canonical one for its
    degree, the kernel resolves against (and {!field} returns) the
    canonical {!Gf2p.create} descriptor — repeatedly minted copies do not
    pin each other alive. For a genuinely non-default polynomial, the first
    descriptor seen is retained and returned by {!field} for all later
    aliases; descriptors with equal parameters are observably
    interchangeable, so only physical identity differs. *)

val field : t -> Gf2p.t
(** The descriptor the kernel was resolved against — the canonical one for
    its [(degree, poly)] pair when that pair is canonical (see
    {!of_field}); not necessarily the descriptor passed in. *)

val degree : t -> int

val tabled : t -> bool
(** Whether the kernel runs on exp/log tables ([m <= 16]). *)

(** {1 Scalar operations}

    Same results as the {!Gf2p} counterparts, without the per-call cache
    lookup. *)

val add : t -> int -> int -> int
val mul : t -> int -> int -> int

val inv : t -> int -> int
(** Raises [Division_by_zero] on [0]. *)

val div : t -> int -> int -> int

val muladd : t -> int -> int -> int -> int
(** [muladd k acc a b = acc + a * b] — the fused step of Horner and dot
    loops. *)

(** {1 Fused row primitives}

    All raise [Invalid_argument] if an offset/length pair runs out of
    bounds, and assert (debug builds) that scalars are reduced field
    elements. *)

val axpy :
  t -> a:int -> x:int array -> xoff:int -> y:int array -> yoff:int -> len:int -> unit
(** [y(i) <- y(i) + a * x(i)] over the given ranges. [a = 0] is a no-op;
    [a = 1] runs a pure XOR loop. *)

val axpy_row : t -> a:int -> x:int array -> y:int array -> unit
(** {!axpy} over two whole rows of equal length. *)

val scal : t -> a:int -> x:int array -> off:int -> len:int -> unit
(** In-place [x(i) <- a * x(i)]. *)

val scal_row : t -> a:int -> x:int array -> unit

val dot :
  t -> x:int array -> xoff:int -> y:int array -> yoff:int -> len:int -> int
(** Inner product of the two ranges. *)

val mul_row_matrix :
  t ->
  x:int array ->
  xoff:int ->
  rows:int ->
  b:int array ->
  boff:int ->
  cols:int ->
  y:int array ->
  yoff:int ->
  unit
(** [y <- y + x * B] for a [rows]-length coefficient slice [x] and a flat
    row-major [rows * cols] matrix [B] starting at [boff]: accumulates
    [x(k) * B(k, j)] into [y(j)]. The caller zero-fills [y] for a plain
    product. *)

(** {1 Accounting}

    Global, domain-safe counters of the work issued to the kernels, for
    {!Nab_obs} wiring and the micro-benchmarks. [flops] counts field
    multiply-accumulate slots issued to fused loops: one per element of an
    {!axpy}/{!scal}/{!dot} range {e when the path performs field
    multiplies}. Degenerate scalars issue no multiplies and count zero
    flops — {!axpy} with [a = 1] is a pure XOR loop and {!scal} with
    [a = 0] is a fill (an {!axpy} with [a = 0] is a no-op and counts
    nothing at all). Zero {e elements} inside a counted range still count:
    it is an issued-work measure, not a dynamic nonzero count. [symbols]
    counts field symbols read or written, including on the degenerate
    paths ([3 * len] for any executed axpy, [len] for the [a = 0] fill).
    Scalar operations are not counted. *)

type stats = { flops : int; symbols : int }

val stats : unit -> stats
val reset_stats : unit -> unit

val diff_stats : stats -> stats -> stats
(** [diff_stats before after] — elementwise [after - before]. *)
