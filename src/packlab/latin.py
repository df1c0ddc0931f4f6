"""Latin squares and rectangles: validity checking and exact counting.

The number of Latin squares of order n is denoted N(n) throughout the
package; it enters the closed-form counts of unextendable packing matrices.
Orders up to the enumeration limit are counted by a row-by-row
enumeration memoized on the per-column used-value masks up to position
order and one colour relabeling (``_count_rows``), whose last two rows
are counted from sets of the n! rows (``_row_sets``); orders 7..11 are
served from stored constants taken from the published enumeration of
B. D. McKay and I. M. Wanless, "On the number of Latin squares", Ann. Comb.
9 (2005) 335-344.  The stored values for small orders are re-derived by
enumeration in the test suite.  The same enumerator counts the forbidden
matrices in ``counting``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Sequence

from .errors import ResourceLimitError

#: exhaustive enumeration is used up to this order (n=6 takes ~0.06 s)
DEFAULT_ENUMERATION_LIMIT = 6

#: N(n) for 1 <= n <= 11 (McKay-Wanless 2005 for n >= 7)
LATIN_SQUARE_COUNTS: dict[int, int] = {
    1: 1,
    2: 2,
    3: 12,
    4: 576,
    5: 161280,
    6: 812851200,
    7: 61479419904000,
    8: 108776032459082956800,
    9: 5524751496156892842531225600,
    10: 9982437658213039871725064756920320000,
    11: 776966836171770144107444346734230682311065600000,
}

#: counts of reduced Latin squares (first row and first column in natural
#: order); satisfies N(n) = n! * (n-1)! * reduced(n), asserted in tests
REDUCED_LATIN_SQUARE_COUNTS: dict[int, int] = {
    1: 1,
    2: 1,
    3: 1,
    4: 4,
    5: 56,
    6: 9408,
    7: 16942080,
    8: 535281401856,
    9: 377597570964258816,
    10: 7580721483160132811489280,
    11: 5363937773277371298119673540771840,
}


def is_latin(rows: Sequence[Sequence[int]], value_set: Iterable[int]) -> bool:
    """True iff the r x n array has pairwise-distinct entries in every row
    and every column, with all entries drawn from value_set.

    Raises ValueError when the array is ragged or has more rows than columns.
    """
    if not rows:
        raise ValueError("empty array")
    r = len(rows)
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged array")
    if r > n:
        raise ValueError(f"more rows ({r}) than columns ({n})")
    values = set(value_set)
    for row in rows:
        if any(v not in values for v in row):
            return False
        if len(set(row)) != n:
            return False
    for j in range(n):
        col = [row[j] for row in rows]
        if len(set(col)) != r:
            return False
    return True


@functools.cache
def _histogram_table(k: int) -> tuple[tuple[int, ...], int, int]:
    """(table, lowest, ones) for the colour histograms of ``_relabeled``.

    Colour c owns bits [c * field, (c + 1) * field) of a packed histogram,
    split into k + 1 counters of k.bit_length() bits, one per popcount; a
    counter counts at most k masks, so it never carries.  table[m] adds 1
    to the popcount(m) counter of each colour in m; ``lowest`` masks colour
    0's field, and ``ones`` has a 1 at the bottom of each colour's field.
    Kept per k for the process: the callers admit k <= 10 (n <= 6 for
    rectangles, k! within the work limit for forbidden counts), so at most
    2^11 entries in all.
    """
    width = k.bit_length()
    field = (k + 1) * width
    ones = sum(1 << (c * field) for c in range(k))
    table = tuple(
        sum(1 << (c * field + m.bit_count() * width) for c in range(k) if m >> c & 1)
        for m in range(1 << k)
    )
    return table, (1 << field) - 1, ones


def _relabeled(k: int, cols: list[int]) -> tuple[int, ...] | None:
    """The sorted masks of `cols` under one colour relabeling, or None for the identity.

    Colours are ordered by their packed histogram of the popcounts of the
    masks that hold them, ties broken by label, and colour order[r] becomes
    r.  Any relabeling gives an exact key; this one is cheap, and is the
    identity when every colour sees the same popcounts, as in a Latin state.
    """
    table, lowest, ones = _histogram_table(k)
    packed = 0
    for m in cols:
        packed += table[m]
    if packed == (packed & lowest) * ones:
        return None
    field = lowest.bit_length()
    hist = [packed >> (c * field) & lowest for c in range(k)]
    order = sorted(range(k), key=hist.__getitem__)
    if all(c == r for r, c in enumerate(order)):
        return None
    rank = [0] * k
    for r, c in enumerate(order):
        rank[c] = 1 << r
    image = []
    for m in cols:
        new = 0
        while m:
            low = m & -m
            new |= rank[low.bit_length() - 1]
            m ^= low
        image.append(new)
    return tuple(sorted(image))


@functools.cache
def _row_sets(k: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """(rows, hits, meet) over the k! rows of [k] in ``itertools.permutations`` order.

    rows[i] is row i as colour bits by position.  A set of rows is a
    k!-bit int with bit i for row i: hits[j][m] is the set of rows whose
    colour at position j lies in the colour mask m, and meet[i] the set of
    rows that agree with row i in some position, row i included.  Kept per
    k for the process; only Latin counts ask, and they admit
    k <= DEFAULT_ENUMERATION_LIMIT, so at most 6 * 64 + 720 sets of 720 bits.
    """
    rows = list(itertools.permutations([1 << c for c in range(k)]))
    hits = [[0] * (1 << k) for _ in range(k)]
    for i, row in enumerate(rows):
        for j, bit in enumerate(row):
            hits[j][bit] |= 1 << i
    for by_mask in hits:
        for m in range(1, 1 << k):
            low = m & -m
            by_mask[m] = by_mask[m ^ low] | by_mask[low]
    meet = tuple(
        functools.reduce(operator.or_, (hits[j][bit] for j, bit in enumerate(row)))
        for row in rows
    )
    return tuple(rows), tuple(map(tuple, hits)), meet


def _members(rows: int):
    """The indices of the rows in the row set `rows`, in increasing order."""
    while rows:
        low = rows & -rows
        rows ^= low
        yield low.bit_length() - 1


def _latin_count(k: int, cols: list[int], depth: int, memo: dict) -> int:
    """``_count_rows`` of a Latin state: its next rows are those outside its clash set."""
    table, hits, meet = _row_sets(k)
    clash = 0
    for j, m in enumerate(cols):
        clash |= hits[j][m]
    free = ((1 << len(table)) - 1) & ~clash
    if depth == 1:
        return free.bit_count()
    if depth == 2:
        return sum((free & ~meet[i]).bit_count() for i in _members(free))
    return _append_each(k, cols, depth, None, memo, (table[i] for i in _members(free)))


def _append_each(k: int, cols: list[int], depth: int, leaf, memo: dict, rows) -> int:
    """Sum of ``_count_rows`` at depth - 1 over `rows` appended to `cols` in turn.

    A row is given as its colour bits by position.
    """
    state = cols[:]
    total = 0
    for row in rows:
        cols[:] = map(operator.or_, state, row)
        total += _count_rows(k, cols, depth - 1, leaf, memo)
    cols[:] = state
    return total


def _count_rows(k: int, cols: list[int], depth: int, leaf, memo: dict) -> int:
    """Sum over the ways to append `depth` rows to `cols` of the full state's score.

    Each row is a permutation of [k]; cols[j] is the bitmask of the values
    used so far in column j and is updated in place (and restored) as rows
    are appended.  With `leaf` None a row may not reuse a value in its
    column (Latin rows) and every full state scores 1; otherwise rows are
    free and a full state scores leaf(its admissible masks), mask j holding
    the colours column j does not use.  Permuting the positions and
    relabeling the colours of a state map its completions one to one onto
    those of its image, and every leaf used here is invariant under both.
    So a state at depth >= 1 is memoized in `memo` on (depth, sorted masks)
    and, unless ``_relabeled`` finds the identity, on (depth, sorted masks
    of its relabeled image); either key found answers the state, and a
    count is stored under both.

    Rows are drawn whole from the k! rows.  A Latin state's next rows are
    the rows outside its clash set, the union of the row sets
    hits[j][cols[j]] (``_row_sets``); its last two rows are counted from
    that set alone: one row can be any of them, and a second row after row
    i must also miss meet[i].  The last free row is one flat, lazy pass
    over ``itertools.permutations`` that scores every full state on its own.
    """
    full = (1 << k) - 1
    if depth == 0:
        return 1 if leaf is None else leaf([full & ~m for m in cols])
    key = (depth, tuple(sorted(cols)))
    total = memo.get(key)
    if total is not None:
        return total
    alias = _relabeled(k, cols)
    if alias is not None:
        alias = (depth, alias)
        total = memo.get(alias)
        if total is not None:
            memo[key] = total
            return total
    if leaf is None:
        total = _latin_count(k, cols, depth, memo)
    elif depth == 1:
        unused = [full & ~m for m in cols]
        others = [full ^ (1 << c) for c in range(k)]
        rows = itertools.permutations(others)
        total = sum(leaf(list(map(operator.and_, unused, row))) for row in rows)
    else:
        rows = itertools.permutations([1 << c for c in range(k)])
        total = _append_each(k, cols, depth, leaf, memo, rows)
    memo[key] = total
    if alias is not None:
        memo[alias] = total
    return total


def count_latin_rectangles(r: int, n: int) -> int:
    """Exact number of r x n Latin rectangles with entries from [n].

    Row-by-row enumeration, memoized on the multiset of per-column used-value
    masks, so rows that lead to the same state up to a column permutation
    are completed once (the first row alone leaves a single state).
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"rectangle enumeration supported for n <= {DEFAULT_ENUMERATION_LIMIT}, got n={n}"
        )
    return _count_rows(n, [0] * n, r, None, {})


def count_latin_squares(n: int) -> int:
    """Exact N(n): enumerated up to DEFAULT_ENUMERATION_LIMIT, stored constants beyond.

    N(n) is unknown for n >= 12; such orders are rejected.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= 12:
        raise ResourceLimitError(f"N({n}) is not known; supported range is 1..11")
    if n <= DEFAULT_ENUMERATION_LIMIT:
        return count_latin_rectangles(n, n)
    return LATIN_SQUARE_COUNTS[n]
