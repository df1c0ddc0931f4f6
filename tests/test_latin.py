import itertools
import math
import random

import pytest

from packlab.errors import ResourceLimitError
from packlab.latin import (
    LATIN_SQUARE_COUNTS,
    REDUCED_LATIN_SQUARE_COUNTS,
    _count_rows,
    count_latin_rectangles,
    count_latin_squares,
    is_latin,
)
from packlab.packing import has_perfect_matching


def test_is_latin_basics():
    assert is_latin([[1]], {1})
    assert is_latin([[1, 2], [2, 1]], {1, 2})
    assert not is_latin([[1, 2], [1, 2]], {1, 2})
    assert not is_latin([[1, 1], [2, 2]], {1, 2})
    assert not is_latin([[1, 2], [2, 3]], {1, 2})  # 3 outside the value set
    with pytest.raises(ValueError):
        is_latin([[1, 2], [1]], {1, 2})
    with pytest.raises(ValueError):
        is_latin([[1], [1]], {1})  # more rows than columns


def test_latin_rectangle_rows_allow_bigger_value_sets():
    assert is_latin([[4, 5, 6]], {4, 5, 6, 7})


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161280)])
def test_square_counts_small(n, expected):
    assert count_latin_squares(n) == expected


def test_square_counts_match_constants_table():
    for n in range(1, 6):
        assert count_latin_squares(n) == LATIN_SQUARE_COUNTS[n]


def test_stored_counts_consistent_with_reduced_counts():
    # N(n) = n! (n-1)! R(n), where R counts squares with sorted first row
    # and first column
    for n in range(1, 12):
        expected = math.factorial(n) * math.factorial(n - 1) * REDUCED_LATIN_SQUARE_COUNTS[n]
        assert LATIN_SQUARE_COUNTS[n] == expected


def test_rectangle_counts():
    assert count_latin_rectangles(1, 4) == 24
    assert count_latin_rectangles(3, 4) == 576
    assert count_latin_rectangles(2, 3) == 12  # 6 first rows x 2 derangements


def test_rectangle_square_bijection():
    for n in range(2, 6):
        assert count_latin_rectangles(n - 1, n) == count_latin_squares(n)


def _plain_rectangle_counts(n: int) -> list[int]:
    """[#r x n Latin rectangles for r = 1..n] by visiting every rectangle.

    Rows are appended one at a time from itertools.permutations, each
    differing from every earlier row in every position; no symmetry and no
    memo, so this is the oracle for the memoized enumerator.
    """
    perms = list(itertools.permutations(range(n)))
    discordant = {p: {q for q in perms if all(a != b for a, b in zip(p, q))} for p in perms}
    counts = [0] * n

    def extend(candidates, r):
        counts[r] += len(candidates)
        if r + 1 < n:
            for p in candidates:
                extend(candidates & discordant[p], r + 1)

    extend(set(perms), 0)
    return counts


@pytest.mark.parametrize("n", range(1, 6))
def test_rectangle_counts_match_plain_enumeration(n):
    plain = _plain_rectangle_counts(n)
    assert [count_latin_rectangles(r, n) for r in range(1, n + 1)] == plain
    if n <= 3:  # small enough to filter all r-tuples of rows directly
        perms = list(itertools.permutations(range(n)))
        for r in range(1, n + 1):
            tuples = itertools.product(perms, repeat=r)
            assert plain[r - 1] == sum(all(len(set(c)) == r for c in zip(*t)) for t in tuples)


def test_rejections():
    with pytest.raises(ResourceLimitError):
        count_latin_squares(12)
    with pytest.raises(ValueError):
        count_latin_squares(0)
    with pytest.raises(ValueError):
        count_latin_rectangles(3, 2)
    with pytest.raises(ResourceLimitError):
        count_latin_rectangles(2, 7)


def test_table_serves_large_orders():
    assert count_latin_squares(7) == 61479419904000
    assert count_latin_squares(11) == LATIN_SQUARE_COUNTS[11]


def test_order_six_by_enumeration():
    assert count_latin_squares(6) == 812851200


# ---------------------------------------------------------------------------
# the row memo of _count_rows: keys under position and colour symmetry
# ---------------------------------------------------------------------------


def _latin_leaf(state):
    return 1


def _unextendable_leaf(k):
    full = (1 << k) - 1
    return lambda state: 0 if has_perfect_matching([full & ~used for used in state]) else 1


def _leaves(k):
    """(leaf, avoid) as count_latin_rectangles and forbidden_count_brute use them."""
    return ((_latin_leaf, True), (_unextendable_leaf(k), False))


def _relabel(mask: int, sigma) -> int:
    return sum(1 << sigma[c] for c in range(len(sigma)) if mask >> c & 1)


def _plain_count_rows(k, cols, depth, leaf, avoid) -> int:
    """_count_rows by visiting every tuple of `depth` rows, with no memo."""
    total = 0
    for rows in itertools.product(itertools.permutations(range(k)), repeat=depth):
        state = list(cols)
        allowed = True
        for row in rows:
            for j, c in enumerate(row):
                allowed = allowed and not (avoid and state[j] >> c & 1)
                state[j] |= 1 << c
        total += leaf(state) if allowed else 0
    return total


@pytest.mark.parametrize(
    "k,depth,states",
    [(2, 1, 10), (2, 3, 10), (3, 1, 30), (3, 2, 30), (4, 1, 30), (4, 2, 20), (5, 1, 20), (5, 2, 2), (6, 1, 8)],
)
def test_count_rows_invariant_under_relabeling_and_position_permutation(k, depth, states):
    rng = random.Random(1000 * k + depth)
    for _ in range(states):
        cols = [rng.getrandbits(k) for _ in range(k)]
        sigma = rng.sample(range(k), k)
        pi = rng.sample(range(k), k)
        image = [_relabel(cols[pi[j]], sigma) for j in range(k)]
        for leaf, avoid in _leaves(k):
            want = _plain_count_rows(k, cols, depth, leaf, avoid)
            memo: dict = {}
            assert _count_rows(k, list(cols), depth, leaf, memo, avoid) == want
            # the shared memo may answer the image from keys the state stored
            assert _count_rows(k, list(image), depth, leaf, memo, avoid) == want
            assert _count_rows(k, list(image), depth, leaf, {}, avoid) == want


class _ImageCheckingMemo(dict):
    """A memo that checks each key it stores against the state being stored.

    `cols` is the list _count_rows updates in place, so at each store it
    holds the state the key names; the key must be that state's masks,
    sorted, under one of the k! colour relabelings.
    """

    def __init__(self, k, cols):
        super().__init__()
        self.sigmas = list(itertools.permutations(range(k)))
        self.cols = cols
        self.relabeled = 0

    def __setitem__(self, key, value):
        depth, masks = key
        images = {tuple(sorted(_relabel(m, s) for m in self.cols)) for s in self.sigmas}
        assert masks in images, (masks, self.cols)
        self.relabeled += masks != tuple(sorted(self.cols))
        super().__setitem__(key, value)


@pytest.mark.parametrize("k,depth", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 1)])
def test_count_rows_keys_are_sorted_relabeled_images(k, depth):
    rng = random.Random(k + 10 * depth)
    relabeled = 0
    for _ in range(6):
        cols = [rng.getrandbits(k) for _ in range(k)]
        for leaf, avoid in _leaves(k):
            memo = _ImageCheckingMemo(k, cols)
            assert _count_rows(k, cols, depth, leaf, memo, avoid) == _plain_count_rows(
                k, cols, depth, leaf, avoid
            )
            relabeled += memo.relabeled
    assert relabeled > 0  # the relabeled keys were exercised, not only the plain ones
