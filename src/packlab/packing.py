"""Packing matrices and the Hall-condition extension engine.

A packing matrix has d rows, each a permutation of {1..k}; row i is the
colour vector of the i-th vertex of the small side of K_{d,t}.  Extending a
partial packing at a vertex of the large side amounts to finding a
permutation of {1..k} that differs from every row in every position.  That
is a perfect-matching question on the bipartite graph between positions and
colours where colour c is admissible at position j iff no row has c at j;
everything in this module reduces to that matching problem.

This module is the only place that turns rows into admissible masks (one
builder for plain matrices, covers and lists, fed per-row colour tables)
and masks into an extension.  ``hall_violators`` is the one enumerator of
the position sets that block every extension, behind the obstruction
shapes, the Latin witnesses and the list cuts of ``cases``.  The
independent verifier in ``certificates`` shares the builder and the
matching engine, and nothing else beyond ``perms``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .perms import Perm, is_permutation


@dataclass(frozen=True)
class PackingMatrix:
    """d rows, each a permutation of {1..k}."""

    k: int
    rows: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or not self.rows:
            raise ValueError("need k >= 1 and at least one row")
        for row in self.rows:
            if len(row) != self.k or not is_permutation(row):
                raise ValueError(f"row {row!r} is not a permutation of {{1..{self.k}}}")

    @property
    def d(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ObstructionReport:
    """A maximal Hall violator: ``positions`` can only receive ``colours``.

    kind is (len(positions), len(colours)); for k = 2d-2 it is one of
    (d-1, d-2), (d, d-2) or (d, d-1).
    """

    kind: tuple[int, int]
    positions: tuple[int, ...]
    colours: tuple[int, ...]


# ---------------------------------------------------------------------------
# bitmask matching engine
#
# adm[j] is the bitmask of colours admissible at position j (bit c-1 for
# colour c); k <= 11 in practice.  The one kernel ``_perfect`` computes no
# maximum size: a greedy pass gives each position its lowest free admissible
# colour, Kuhn's augmenting paths run only from the positions it left over,
# and the first of those that cannot augment ends the test (Kuhn never
# matches it later).  ``has_perfect_matching`` asks only whether it succeeds;
# ``lex_smallest_system`` turns its matching into the lex-first one, one
# augmenting path per colour it tries.
# ---------------------------------------------------------------------------


def admissible_masks(rows, k: int, tables=None) -> list[int]:
    """Per-position bitmask of the colours no row blocks at that position.

    tables[i][c] is the bit that colour c of row i blocks: by default bit
    c-1, bit sigma(c)-1 through an edge's matching sigma, the position bit
    of c in the vertex's list (0 when c is not in it) for a list instance.
    """
    adm = [(1 << k) - 1] * k
    for row, table in zip(rows, tables or itertools.repeat(_unit_table(k))):
        j = 0  # kept by hand: faster than enumerate on the count path
        for c in row:
            adm[j] &= ~table[c]
            j += 1
    return adm


@functools.cache
def _unit_table(k: int) -> tuple[int, ...]:
    return (0,) + tuple(1 << c for c in range(k))


def _perfect(adm: list[int]) -> dict[int, int] | None:
    """A perfect matching as {colour bit: position}, or None; colour bits may exceed len(adm)."""
    owner: dict[int, int] = {}  # colour bit -> position
    taken = 0
    left = []
    for j, m in enumerate(adm):
        free = m & ~taken
        if free:
            bit = free & -free
            taken |= bit
            owner[bit] = j
        else:
            left.append(j)
    for j in left:
        if not _augment(adm, owner, j, [0]):
            return None
    return owner


def _augment(adm: list[int], owner: dict[int, int], j: int, seen: list[int]) -> bool:
    """Kuhn's augmenting path from position j over colours not in seen[0].

    A module function, not a closure: a closure that refers to itself is a
    reference cycle per call, left for the garbage collector.
    """
    avail = adm[j] & ~seen[0]
    while avail:
        bit = avail & -avail
        seen[0] |= bit
        rival = owner.get(bit)
        if rival is None or _augment(adm, owner, rival, seen):
            owner[bit] = j
            return True
        avail &= ~seen[0]
    return False


def has_perfect_matching(adm: list[int]) -> bool:
    return _perfect(adm) is not None


def lex_smallest_system(adm: list[int]) -> Perm | None:
    """Lexicographically smallest perfect assignment position -> colour.

    Returns the assignment as a permutation in one-line notation, or None
    when no perfect matching exists.  Starting from one perfect matching,
    positions are fixed left to right.  Position j keeps its colour unless
    a smaller free admissible colour can be moved to it: an unowned colour
    (a colour bit past len(adm)) at once, an owned one when its owner has
    an augmenting path that avoids the fixed colours and the tried one and
    may end at j's colour, now freed.  Such a path exists iff the later
    positions can still all be matched, so the smallest success is the
    lex-first choice.  A failed path leaves the matching as it was.
    """
    owner = _perfect(adm)
    if owner is None:
        return None
    colour = [0] * len(adm)
    for bit, j in owner.items():
        colour[j] = bit
    fixed = 0
    for j, m in enumerate(adm):
        current = colour[j]
        tries = m & ~fixed & (current - 1)
        while tries:
            bit = tries & -tries
            tries ^= bit
            rival = owner.get(bit)
            del owner[current]
            if rival is None or _augment(adm, owner, rival, [fixed | bit]):
                owner[bit] = j
                for c, i in owner.items():
                    colour[i] = c
                break
            owner[current] = j
        fixed |= colour[j]
    return tuple(c.bit_length() for c in colour)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def find_common_derangement(matrix: PackingMatrix) -> Perm | None:
    """A permutation avoiding every row in every position, or None.

    Deterministic: the lexicographically smallest such permutation.
    """
    return lex_smallest_system(admissible_masks(matrix.rows, matrix.k))


def is_forbidden(matrix: PackingMatrix) -> bool:
    """True iff no permutation of {1..k} is a derangement of every row."""
    return not has_perfect_matching(admissible_masks(matrix.rows, matrix.k))


def hall_violators(cols: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(J, I_J) for every Hall violator J among k = len(cols) positions.

    cols[j] is the bitmask of the colours position j may not receive.  J
    runs over the nonempty 0-based position sets by size, then in
    ``itertools.combinations`` order; it violates when I_J, the AND of its
    cols, has more than k - |J| bits (fewer than |J| colours admissible).
    """
    k = len(cols)
    for size in range(1, k + 1):
        for positions in itertools.combinations(range(k), size):
            shared = functools.reduce(operator.and_, map(cols.__getitem__, positions))
            if shared.bit_count() > k - size:
                yield positions, shared


def _colour_columns(matrix: PackingMatrix) -> list[int]:
    """Per position, the bitmask of the colours some row has there (bit c-1)."""
    return [sum({1 << c - 1 for c in column}) for column in zip(*matrix.rows)]


def classify_obstructions(matrix: PackingMatrix) -> ObstructionReport:
    """Maximal Hall violator of a forbidden d x (2d-2) matrix.

    Reports the deepest of ``hall_violators``: maximum deficiency
    |J| - |N(J)| first, then the smallest position set, ties broken
    lexicographically (the first yielded).  Preferring the smaller set
    among equal deficiencies keeps the classification aligned with the
    inclusion-exclusion count of the closed form: a matrix whose d-1
    positions span only d values classifies as (d-1, d-2) even when
    padding a fourth position also yields a (d, d-1)-shaped violator.
    The resulting kind is one of (d-1, d-2), (d, d-2), (d, d-1).
    """
    d, k = matrix.d, matrix.k
    if d < 3 or k != 2 * d - 2:
        raise ValueError(f"obstruction classification needs k = 2d-2 and d >= 3, got d={d}, k={k}")
    if not is_forbidden(matrix):
        raise ValueError("matrix is extendable; no obstruction to classify")

    violators = hall_violators(_colour_columns(matrix))
    # -deficiency is k - |J| - |I_J|; min keeps the first of equal keys
    deepest = min(violators, key=lambda v: k - len(v[0]) - v[1].bit_count(), default=None)
    if deepest is None:
        raise AssertionError("a forbidden matrix has no Hall violator")
    positions, shared = deepest
    colours = tuple(c + 1 for c in range(k) if not shared >> c & 1)
    kind = (len(positions), len(colours))
    legal = {(d - 1, d - 2), (d, d - 2), (d, d - 1)}
    if kind not in legal:
        raise AssertionError(f"unexpected obstruction shape {kind} for d={d}")
    return ObstructionReport(kind=kind, positions=tuple(j + 1 for j in positions), colours=colours)


def forbidden_witness_latin_structure(
    matrix: PackingMatrix,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Latin-structure witness (C, J) of forbiddenness, or None.

    For k = 2d-1: a forbidden matrix always contains d positions J whose
    entries, across the d rows, use exactly d colours C and are distinct
    within each position; the d x d subarray on J is then a Latin square on
    C, and those positions can only receive the remaining d-1 colours.  For
    k = 2d-2 the analogous witness has |J| = d-1 and |C| = d (present for
    matrices whose obstruction involves d-1 positions sharing d colours;
    absent for purely (d, d-1)-obstructed ones).

    Witnesses are the Hall violators of that size with |I_J| = d (as
    k - |J| + 1 = d), each column of J then being C.  Returns the first.
    """
    d, k = matrix.d, matrix.k
    if k == 2 * d - 1:
        size_j = d
    elif k == 2 * d - 2:
        size_j = d - 1
    else:
        raise ValueError(f"need k = 2d-1 or k = 2d-2, got d={d}, k={k}")

    for positions, shared in hall_violators(_colour_columns(matrix)):
        if len(positions) == size_j and shared.bit_count() == d:
            colours = tuple(c + 1 for c in range(k) if shared >> c & 1)
            return colours, tuple(j + 1 for j in positions)
    return None


def brute_force_extension(matrix: PackingMatrix) -> Perm | None:
    """Independent oracle: scan all k! permutations in lexicographic order.

    Shares no machinery with the matching engine; used to cross-check it.
    """
    k = matrix.k
    column_sets = [{row[j] for row in matrix.rows} for j in range(k)]
    for candidate in itertools.permutations(range(1, k + 1)):
        if all(candidate[j] not in column_sets[j] for j in range(k)):
            return candidate
    return None
