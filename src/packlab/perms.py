"""Permutations of {1..k} in one-line notation.

A permutation is a plain tuple of ints: ``p[j-1]`` is the image of position
``j``.  Values are 1-based everywhere, matching the serialized form
``"(2,1,3)"``.  Hot loops elsewhere in the package operate on these raw
tuples; the helpers here do the validation and the small algebra (compose,
invert, cycle type, parity) that everything else is built from.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import capped_product, check_work

Perm = tuple[int, ...]


def is_permutation(p: Sequence[int]) -> bool:
    """True iff p is a bijection of {1..len(p)} written in one-line notation."""
    k = len(p)
    if k == 0:
        return False
    seen = 0
    for v in p:
        if not isinstance(v, int) or not 1 <= v <= k:
            return False
        bit = 1 << v
        if seen & bit:
            return False
        seen |= bit
    return True


def validate_permutation(p: Sequence[int]) -> Perm:
    """Return p as a tuple, raising ValueError if it is not a permutation."""
    t = tuple(p)
    if not is_permutation(t):
        raise ValueError(f"not a permutation of {{1..{len(t)}}}: {t!r}")
    return t


def identity(k: int) -> Perm:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return tuple(range(1, k + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left composition: compose(p, q)(j) = p(q(j))."""
    if len(p) != len(q):
        raise ValueError(f"cannot compose permutations of sizes {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for j, v in enumerate(p):
        inv[v - 1] = j + 1
    return tuple(inv)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """The cycle lengths of p, sorted ascending; they sum to len(p)."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def sign(p: Perm) -> int:
    """+1 for even permutations, -1 for odd ones: (-1)^(k - #cycles)."""
    return -1 if (len(p) - len(cycle_type(p))) % 2 else 1


def parity(p: Perm) -> str:
    """'even' or 'odd'."""
    return "even" if sign(p) == 1 else "odd"


def is_derangement_of(p: Perm, q: Perm) -> bool:
    """True iff p(j) != q(j) for every position j. Requires equal sizes."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return all(a != b for a, b in zip(p, q))


def all_permutations(k: int) -> Iterator[Perm]:
    """All k! permutations of {1..k}, in lexicographic one-line order.

    The enumeration order is part of the contract: downstream tie-breaking
    (first witness, lexicographically smallest combination) depends on it.
    The k! permutations of k entries each are charged to the work limit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_work(capped_product(range(1, k + 1)) * k, f"enumerating the permutations of {{1..{k}}}")
    return itertools.permutations(range(1, k + 1))


def perm_to_str(p: Perm) -> str:
    """Serialized form: comma-separated 1-based values in parentheses."""
    return "(" + ",".join(str(v) for v in p) + ")"


def perm_from_str(s: str) -> Perm:
    """Parse the serialized form; ValueError for anything else, a non-string included."""
    if not isinstance(s, str):
        raise ValueError(f"permutation must be a string like '(2,1,3)', got {s!r}")
    text = s.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"permutation must look like '(2,1,3)', got {s!r}")
    try:
        values = tuple(int(part) for part in text[1:-1].split(","))
    except ValueError as exc:
        raise ValueError(f"bad permutation literal {s!r}") from exc
    return validate_permutation(values)
