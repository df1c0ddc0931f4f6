"""Exact counts of unextendable packing matrices and threshold bounds.

All counts are exact integers; ratios are exact rationals.  The two closed
forms count d x k packing matrices admitting no common derangement of all
rows:

* k = 2d-1:  w_odd(d)  = C(2d-1,d)^2 ((d-1)!)^d N(d).  A matrix is
  unextendable iff d of its positions carry a d x d Latin square whose d
  values then exclude those positions down to the remaining d-1 colours.
* k = 2d-2:  w_even(d) = N(d) C(2d-2,d) C(2d-2,d-1)
  (2((d-1)!)^d - (d-1)^2 (d-1 + 1/d) ((d-2)!)^d), obtained by
  inclusion-exclusion over the three possible maximal Hall violators via
  w1 - (d-1) w2 + w3.

The derived thresholds: x(d) = ((2d-1)!)^d / w_odd(d) and
y(d) = ((2d-2)!)^d / w_even(d).  A cover construction that greedily kills a
1/x fraction of surviving partial packings per added vertex terminates
within the floored iteration X_s = X_{s-1} - ceil(X_{s-1} w / X_0); the
closed-form estimates bounding that step count are also provided, with
certified integer ceilings via interval arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import WORK_LIMIT, ResourceLimitError, candidate_count, capped_product, check_work
from .latin import LATIN_SQUARE_COUNTS, _count_rows
from .packing import has_perfect_matching
from .perms import Perm, cycle_type, identity


def w_odd(d: int) -> int:
    """Number of unextendable d x (2d-1) packing matrices."""
    if not 2 <= d <= 11:
        raise ValueError(f"w_odd defined for 2 <= d <= 11, got {d}")
    return math.comb(2 * d - 1, d) ** 2 * math.factorial(d - 1) ** d * LATIN_SQUARE_COUNTS[d]


def w_even_parts(d: int) -> tuple[int, int, int]:
    """The inclusion-exclusion terms (w1, w2, w3) with w_even = w1 - (d-1) w2 + w3."""
    if not 3 <= d <= 11:
        raise ValueError(f"w_even defined for 3 <= d <= 11, got {d}")
    n = LATIN_SQUARE_COUNTS[d]
    c_d = math.comb(2 * d - 2, d)
    c_d1 = math.comb(2 * d - 2, d - 1)
    f1 = math.factorial(d - 1) ** d
    f2 = math.factorial(d - 2) ** d
    w1 = n * c_d * c_d1 * f1
    w2 = n * c_d**2 * f2
    w3 = n * c_d * c_d1 * (f1 - (d - 1) ** 3 * f2)
    return w1, w2, w3


def w_even(d: int) -> int:
    """Number of unextendable d x (2d-2) packing matrices.

    Evaluated in exact rationals (the closed form contains a 1/d term);
    a non-integral result would mean the formula was transcribed wrong and
    is treated as an internal error.
    """
    w1, w2, w3 = w_even_parts(d)  # checks d before N(d) is read
    n = LATIN_SQUARE_COUNTS[d]
    bracket = (
        2 * Fraction(math.factorial(d - 1) ** d)
        - (d - 1) ** 2 * (Fraction(d - 1) + Fraction(1, d)) * math.factorial(d - 2) ** d
    )
    value = n * math.comb(2 * d - 2, d) * math.comb(2 * d - 2, d - 1) * bracket
    if value.denominator != 1:
        raise AssertionError(f"w_even({d}) evaluated to non-integer {value}")
    result = int(value)
    if result != w1 - (d - 1) * w2 + w3:
        raise AssertionError(f"w_even({d}) disagrees with its inclusion-exclusion parts")
    return result


# ---------------------------------------------------------------------------
# brute-force counting (the independent oracle for the closed forms)
# ---------------------------------------------------------------------------


def _conjugacy_classes(k: int) -> list[tuple[Perm, int]]:
    """(representative, class size) per cycle type of the symmetric group on [k].

    Representatives are the lexicographically smallest members.
    """
    classes: dict[tuple[int, ...], list] = {}
    for p in itertools.permutations(range(1, k + 1)):
        entry = classes.setdefault(cycle_type(p), [p, 0])
        entry[1] += 1
        if p < entry[0]:
            entry[0] = p
    return [(rep, size) for rep, size in classes.values()]


def _partition_count(k: int) -> int:
    """Number of integer partitions of k, i.e. of cycle types in S_k."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for n in range(part, k + 1):
            ways[n] += ways[n - part]
    return ways[k]


def _count_block(k: int, fixed: tuple[Perm, ...], depth: int, memo: dict) -> int:
    """Forbidden matrices whose first rows are `fixed`, with `depth` free rows.

    `memo` is the ``latin._count_rows`` memo.  Its keys name states only up
    to positions and colours, never the block, so the blocks of one count
    may share it.
    """
    full = (1 << k) - 1
    cols = [0] * k
    for row in fixed:
        for j, c in enumerate(row):
            cols[j] |= 1 << (c - 1)

    def unextendable(state: list[int]) -> int:
        return 0 if has_perfect_matching([full & ~used for used in state]) else 1

    return _count_rows(k, cols, depth, unextendable, memo, avoid=False)


def forbidden_count_brute(
    d: int,
    k: int,
    workers: int = 1,
    use_class_reduction: bool | None = None,
) -> int:
    """Exhaustive count of unextendable d x k packing matrices.

    Relabeling all colours and all positions by the same permutation
    preserves unextendability, so the first row is fixed to the identity and
    the block count multiplied by k!.  With ``use_class_reduction`` (the
    default for d >= 3) the second row is additionally restricted to one
    representative per conjugacy class, weighting each block by the class
    size: simultaneous conjugation of all rows fixes the identity first row
    and again preserves unextendability.  Each block is counted by
    ``latin._count_rows``, whose memo keys a partial matrix by its column
    masks up to position order and one colour relabeling (relabeling
    positions alone, or colours alone, also preserves unextendability); the
    blocks of one count share that memo, and the full matrices are still
    judged one by one.  The reductions and the memo are exact and are
    cross-checked against a plain enumeration in the tests.  Every count
    runs in one process; ``workers`` is never read and stays only because
    the benchmark harness passes it.
    """
    if d < 1 or k < 1:
        raise ValueError("need d, k >= 1")
    if k == 1:
        return 1  # every row is (1), which no permutation of {1} avoids
    if d == 1:
        return 0  # a single row of k >= 2 colours has a derangement
    if use_class_reduction is None:
        use_class_reduction = d >= 3
    free_rows = d - 1
    kf = capped_product(range(1, k + 1))  # k! once either charge below is admitted
    if not use_class_reduction:
        check_work(candidate_count(d, k), "brute-force forbidden count")
        return kf * _count_block(k, (identity(k),), free_rows, {})

    # one block per cycle type; listing the classes alone walks all k! rows.
    # p(k) takes O(k^2) steps, so it is computed only when the rest is admitted
    cost = max(kf, candidate_count(d - 1, k))
    if cost <= WORK_LIMIT:
        cost = max(kf, _partition_count(k) * candidate_count(d - 1, k))
    check_work(cost, "brute-force forbidden count")
    blocks = _conjugacy_classes(k)
    ident = identity(k)
    memo: dict = {}
    return kf * sum(size * _count_block(k, (ident, rep), free_rows - 1, memo) for rep, size in blocks)


# ---------------------------------------------------------------------------
# threshold ratios and iteration bounds
# ---------------------------------------------------------------------------


def x_ratio(d: int) -> Fraction:
    """((2d-1)!)^d / w_odd(d): below this t, a (2d-1)-fold packing always exists."""
    return Fraction(math.factorial(2 * d - 1) ** d, w_odd(d))


def y_ratio(d: int) -> Fraction:
    """((2d-2)!)^d / w_even(d): the k = 2d-2 analogue of x_ratio."""
    return Fraction(math.factorial(2 * d - 2) ** d, w_even(d))


def iteration_bound(X0: int, w: int) -> int:
    """Steps of X_s = X_{s-1} - ceil(X_{s-1} w / X0) until X_s = 0.

    Equals the number of iterations of X -> floor((1 - 1/x) X) with
    x = X0/w, since n - ceil(a) = floor(n - a).  Exact integer arithmetic
    throughout.  The step count roughly equals x log X0; threshold_table
    only asks for it below DEFAULT_ITERATION_CAP.
    """
    if w <= 0:
        raise ValueError("w must be positive")
    if not 0 < w <= X0:
        raise ValueError(f"need 0 < w <= X0, got w={w}, X0={X0}")
    X = X0
    steps = 0
    while X > 0:
        X -= -(-X * w // X0)  # ceil(X*w/X0)
        steps += 1
    return steps


def _certified_ceil(build_expr, start_dps: int = 40, max_dps: int = 4000) -> int:
    """Integer ceiling of a real expression, certified by interval arithmetic.

    ``build_expr(iv)`` must evaluate the expression in the given mpmath
    interval context.  The ceilings of the two interval endpoints are taken
    exactly (the endpoints are dyadic rationals); precision is raised until
    they agree, so the returned integer is provably correct.
    """
    import mpmath
    from mpmath.libmp import round_ceiling, to_int

    dps = start_dps
    while dps <= max_dps:
        ctx = mpmath.iv
        old = ctx.dps
        try:
            ctx.dps = dps
            val = build_expr(ctx)
        finally:
            ctx.dps = old
        lo_raw, hi_raw = val._mpi_
        try:
            clo = to_int(lo_raw, round_ceiling)
            chi = to_int(hi_raw, round_ceiling)
        except (ValueError, OverflowError):
            clo, chi = 0, 1  # an endpoint overflowed to inf: precision too low
        if clo == chi:
            return int(clo)
        dps *= 2
    raise ResourceLimitError("could not certify the ceiling at reasonable precision")


def _certified_estimate(X0: int, w: int, formula) -> int:
    """Certified ceiling of ``formula(ctx, x, X0)`` with x = X0/w as an interval.

    Both estimates need x > 1 (ValueError otherwise).
    """
    x = Fraction(X0, w)
    if x <= 1:
        raise ValueError("estimate requires x = X0/w > 1")

    def expr(ctx):
        return formula(ctx, ctx.mpf(x.numerator) / ctx.mpf(x.denominator), ctx.mpf(X0))

    return _certified_ceil(expr)


def estimate_bound(X0: int, w: int) -> int:
    """Certified ceiling of log_{1-1/x}(x/X0) + x with x = X0/w.

    An upper estimate for the floored iteration: after that many rounds of
    removing at least a 1/x fraction (at least one item per round once few
    remain), nothing survives.  Always >= iteration_bound(X0, w).
    """
    return _certified_estimate(X0, w, lambda ctx, x, n: ctx.log(x / n) / ctx.log(1 - 1 / x) + x)


def estimate_bound_first_order(X0: int, w: int) -> int:
    """Certified ceiling of x log(X0/x) + x, the first-order weakening.

    Replaces log(1 - 1/x) by -1/x in estimate_bound; this is the variant
    whose values the reproduction report compares against the reference
    table.
    """
    return _certified_estimate(X0, w, lambda ctx, x, n: x * ctx.log(n / x) + x)


# ---------------------------------------------------------------------------
# scientific notation with directed rounding (exact integer arithmetic)
# ---------------------------------------------------------------------------


def sci3(value: int | Fraction, direction: str = "nearest") -> str:
    """3-significant-digit scientific form of a positive exact number.

    direction: 'nearest', 'down' (safe for lower bounds) or 'up' (safe for
    upper bounds).  Computed exactly; no floating point.
    """
    fr = Fraction(value)
    if fr <= 0:
        raise ValueError("positive values only")
    exp = 0
    while fr >= 10:
        fr /= 10
        exp += 1
    while fr < 1:
        fr *= 10
        exp -= 1
    scaled = fr * 100  # in [100, 1000)
    floor_m = int(scaled)
    if direction == "down":
        mant = floor_m
    elif direction == "up":
        mant = floor_m if scaled == floor_m else floor_m + 1
    elif direction == "nearest":
        mant = int(scaled + Fraction(1, 2))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if mant == 1000:
        mant = 100
        exp += 1
    return f"{mant // 100}.{mant % 100:02d}e{exp}"


# ---------------------------------------------------------------------------
# the threshold table
# ---------------------------------------------------------------------------

#: iteration_bound is only evaluated when its step count stays below this
DEFAULT_ITERATION_CAP = 100_000


@dataclass(frozen=True)
class ThresholdRow:
    """One table row: either the 2d-1 ('upper', fold k = 2d-2) or the 2d
    ('lower', fold k = 2d-1) flavour for a given d."""

    d: int
    flavour: str  # 'upper_2d_minus_1' or 'lower_2d'
    w: int
    X0: int
    ratio: Fraction
    iter_bound: int | None
    estimate_bound: int
    estimate_bound_first_order: int

    def __post_init__(self) -> None:
        if self.iter_bound is not None and self.iter_bound > self.estimate_bound:
            raise AssertionError("iteration bound exceeds its estimate")

    @property
    def best_upper(self) -> int:
        """Sharpest proven bound: the floored iteration when computed, else
        the literal estimate (which never exceeds the first-order one)."""
        return self.iter_bound if self.iter_bound is not None else self.estimate_bound

    @property
    def reference_upper(self) -> int:
        """The value comparable to the reference table: floored iteration for
        the small cases, the first-order estimate beyond."""
        return (
            self.iter_bound if self.iter_bound is not None else self.estimate_bound_first_order
        )


def _make_row(d: int, flavour: str, X0: int, w: int) -> ThresholdRow:
    ratio = Fraction(X0, w)
    est = estimate_bound(X0, w)
    est_fo = estimate_bound_first_order(X0, w)
    iter_val = iteration_bound(X0, w) if est_fo <= DEFAULT_ITERATION_CAP else None
    return ThresholdRow(
        d=d,
        flavour=flavour,
        w=w,
        X0=X0,
        ratio=ratio,
        iter_bound=iter_val,
        estimate_bound=est,
        estimate_bound_first_order=est_fo,
    )


def threshold_table(d_min: int, d_max: int) -> list[ThresholdRow]:
    """Rows for both threshold flavours, d_min <= d <= d_max (2..11).

    Per d: the k = 2d-2 flavour bounds the least t forcing packing number
    >= 2d-1 from above; x(d) of the k = 2d-1 flavour bounds the least t
    forcing 2d from below.  The floored iteration is evaluated whenever its
    step count is affordable (all d <= 4); the closed-form estimates are
    always included.
    """
    if not 2 <= d_min <= d_max <= 11:
        raise ValueError("need 2 <= d_min <= d_max <= 11")
    rows = []
    for d in range(d_min, d_max + 1):
        if d >= 3:
            rows.append(
                _make_row(d, "upper_2d_minus_1", math.factorial(2 * d - 2) ** d, w_even(d))
            )
        rows.append(
            _make_row(d, "lower_2d", math.factorial(2 * d - 1) ** d, w_odd(d))
        )
    return rows


def format_threshold_table(rows: list[ThresholdRow]) -> str:
    """Aligned text rendering with exact values and 3-digit scientific forms."""
    by_d: dict[int, dict[str, ThresholdRow]] = {}
    for row in rows:
        by_d.setdefault(row.d, {})[row.flavour] = row
    lines = [
        f"{'d':>3} | {'upper bound (fold 2d-2)':>28} | {'lower bound x(d) (fold 2d-1)':>32}",
        "-" * 72,
    ]
    for d in sorted(by_d):
        upper = by_d[d].get("upper_2d_minus_1")
        lower = by_d[d].get("lower_2d")
        if upper is None:
            up_txt = "-"
        else:
            up_val = upper.reference_upper
            up_txt = f"{up_val} ({sci3(up_val, 'up')})"
        if lower is None:
            lo_txt = "-"
        else:
            x = lower.ratio
            exact = str(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
            lo_txt = f"{exact} ({sci3(x, 'down')})"
        lines.append(f"{d:>3} | {up_txt:>28} | {lo_txt:>32}")
    return "\n".join(lines)
