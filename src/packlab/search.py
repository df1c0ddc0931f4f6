"""Packability and colourability deciders, cover construction, exact chi.

The structural shortcut used everywhere: the large side V of K_{d,t} is an
independent set, so a full packing exists iff some choice of colour vectors
on U extends independently at every v_j.  Relabeling the k colourings
simultaneously permutes all colour vectors the same way, so the first U
vector may be pinned to the identity; deciders therefore scan (k!)^(d-1)
candidates and run one matching check per vertex of V.

Cover constructions and the exhaustive cover scans behind chi_c and chi_c*
work in the same reduced space; they are thin callers of ``blocking``,
which builds the column masks and solves the set covers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .blocking import (
    colouring_masks,
    column_space,
    cover_from_columns,
    first_multiset_cover,
    greedy_cover,
    hill_climb_cover,
    packing_masks,
)
from .covers import (
    CorrespondenceCover,
    ListAssignment,
    PartialMatchingCover,
    list_to_partial_cover,
)
from .errors import canonical_cover_count, check_work, colouring_scan_steps, packing_scan_steps
from .packing import has_perfect_matching, lex_smallest_system, transported_masks
from .perms import identity


@dataclass(frozen=True)
class PackingWitness:
    """Colour vectors forming a full packing.

    In a correspondence instance the vectors are permutations of {1..k}
    (positions); in a list instance they are arrangements of each vertex's
    own colour list.
    """

    u_rows: tuple[tuple[int, ...], ...]
    v_rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchBudget:
    """Limits for randomized search; outcomes are a function of (seed, limits).

    At least one limit must be set: a search with neither may never end.
    """

    max_candidates: int | None = 2_000_000
    max_seconds: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse limits the search cannot honour (ValueError)."""
        count, seconds = self.max_candidates, self.max_seconds
        if count is not None and (
            isinstance(count, bool) or not isinstance(count, int) or count < 0
        ):
            raise ValueError(f"max_candidates must be None or an integer >= 0, got {count!r}")
        if seconds is not None and (
            isinstance(seconds, bool)
            or not isinstance(seconds, (int, float))
            or not math.isfinite(seconds)
            or seconds < 0
        ):
            raise ValueError(f"max_seconds must be None or a finite number >= 0, got {seconds!r}")
        if count is None and seconds is None:
            raise ValueError("a search budget needs max_candidates or max_seconds")


# ---------------------------------------------------------------------------
# packing deciders
# ---------------------------------------------------------------------------


def _decide_columns(columns, d: int, t: int, k: int) -> PackingWitness | None:
    """Core decider; columns[j][i] maps u_i-colours to v_j-colours (None = free).

    Scans candidate U matrices with the first row pinned to the identity, in
    lexicographic order of the remaining rows; at each vertex checks for a
    perfect matching between positions and colours.  Returns the first full
    witness (with lexicographically smallest extensions), or None.  Charged
    ``packing_scan_steps`` up front.
    """
    check_work(packing_scan_steps(d, t, k), "packing decision")
    perms = list(itertools.permutations(range(1, k + 1)))
    ident = identity(k)
    for rest in itertools.product(perms, repeat=d - 1):
        rows = (ident,) + rest
        all_adm: list[list[int]] = []
        for j in range(t):
            adm = transported_masks(rows, columns[j], k)
            if not has_perfect_matching(adm):
                break
            all_adm.append(adm)
        else:
            v_rows = tuple(lex_smallest_system(adm) for adm in all_adm)
            return PackingWitness(u_rows=rows, v_rows=v_rows)
    return None


def decide_correspondence_packing(
    cover: CorrespondenceCover | PartialMatchingCover,
) -> PackingWitness | None:
    """Full packing of a k-fold cover, or None when none exists.

    Exhaustive over the reduced candidate space; a ResourceLimitError (the
    instance was too big to decide) is distinct from the None verdict.
    """
    columns = [cover.column(j) for j in range(cover.t)]
    return _decide_columns(columns, cover.d, cover.t, cover.k)


def decide_list_packing(assignment: ListAssignment) -> PackingWitness | None:
    """List packing decided through the exact partial-matching translation.

    The witness is reported in the original colours, with row i of the U
    side an arrangement of L(u_i).
    """
    partial, u_maps, v_maps = list_to_partial_cover(assignment)
    witness = decide_correspondence_packing(partial)
    if witness is None:
        return None
    u_rows = tuple(
        tuple(u_maps[i][p - 1] for p in row) for i, row in enumerate(witness.u_rows)
    )
    v_rows = tuple(
        tuple(v_maps[j][p - 1] for p in row) for j, row in enumerate(witness.v_rows)
    )
    translated = PackingWitness(u_rows=u_rows, v_rows=v_rows)
    if not verify_list_witness(assignment, translated):
        raise AssertionError("translated list witness fails the colourwise check")
    return translated


def verify_list_witness(assignment: ListAssignment, witness: PackingWitness) -> bool:
    """Colourwise check of a packing of a list-assignment."""
    if len(witness.u_rows) != assignment.a or len(witness.v_rows) != assignment.b:
        return False
    for row, lst in zip(witness.u_rows, assignment.u_lists):
        if tuple(sorted(row)) != lst:
            return False
    for row, lst in zip(witness.v_rows, assignment.v_lists):
        if tuple(sorted(row)) != lst:
            return False
    for u_row in witness.u_rows:
        for v_row in witness.v_rows:
            if any(a == b for a, b in zip(u_row, v_row)):
                return False
    return True


# ---------------------------------------------------------------------------
# colouring deciders (single colouring instead of a packing)
# ---------------------------------------------------------------------------


def decide_correspondence_colouring(
    cover: CorrespondenceCover,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """One proper colouring (u_colours, v_colours) of the cover, or None.

    Scans the k^d colour choices on U; a vertex of V is colourable unless
    its d transported neighbour colours exhaust all of {1..k}.
    """
    d, t, k = cover.d, cover.t, cover.k
    check_work(colouring_scan_steps(d, t, k), "colouring decision")
    for u_col in itertools.product(range(1, k + 1), repeat=d):
        v_col = []
        for j in range(t):
            used = {cover.sigma[i][j][u_col[i] - 1] for i in range(d)}
            if len(used) == k:
                break
            v_col.append(min(set(range(1, k + 1)) - used))
        else:
            return u_col, tuple(v_col)
    return None


# ---------------------------------------------------------------------------
# cover construction in the reduced space
# ---------------------------------------------------------------------------


def greedy_unpackable_cover(d: int, k: int) -> tuple[CorrespondenceCover, list[int]]:
    """Build a cover with no k-packing by repeatedly adding the best vertex.

    At each step every matching combination is scored by how many surviving
    candidate matrices it blocks; the highest scorer wins, ties going to the
    lexicographically smallest combination.  Averaging guarantees each step
    blocks at least ceil(X/x) survivors (x = initial/forbidden), so the trace
    obeys X_s <= floor((1-1/x) X_{s-1}) and the construction terminates.

    Returns the cover and the trace [X_0, X_1, ..., 0] of survivor counts in
    the reduced space.
    """
    masks = packing_masks(d, k)
    if masks[0] == 0:
        raise ValueError(f"no unextendable matrices exist for d={d}, k={k}")
    picks, trace = greedy_cover(masks, len(masks))
    return cover_from_columns(column_space(d, k), picks), trace


def random_unpackable_cover_search(
    d: int,
    k: int,
    t_target: int,
    budget: SearchBudget,
    workers: int = 1,
) -> CorrespondenceCover | None:
    """Hill-climbing search for an unpackable cover with exactly t_target vertices.

    One canonical column per vertex, improved by ``blocking.hill_climb_cover``
    on the number of candidate matrices blocked by no vertex.  Returns a
    cover blocking them all, or None when the candidate budget (or time
    limit) runs out.  Fixed (seed, budget) gives a fixed outcome.  The search runs
    in one thread; ``workers`` is accepted for compatibility and the result
    never depends on it.
    """
    if t_target < 1:
        raise ValueError("need t_target >= 1")
    masks = packing_masks(d, k)
    picks = hill_climb_cover(
        masks, len(masks), t_target, budget.seed, budget.max_candidates, budget.max_seconds
    )
    return None if picks is None else cover_from_columns(column_space(d, k), picks)


# ---------------------------------------------------------------------------
# exact chromatic computations on tiny instances
# ---------------------------------------------------------------------------

def find_uncolourable_cover(d: int, t: int, k: int) -> CorrespondenceCover | None:
    """Lexicographically first canonical k-fold cover of K_{d,t} with no
    proper colouring, or None when every cover is colourable.

    Canonical covers have identity matchings in the first row and first
    column, and colourability is invariant under permuting the V vertices,
    so the scan runs over multisets of column types for the t-1 free columns.
    This is exhaustive up to relabeling: every cover is equivalent to a
    scanned one.
    """
    if d < 2 or t < 1:
        raise ValueError("need d >= 2 and t >= 1")
    check_work(canonical_cover_count(d, t, k), "uncolourable cover scan")
    masks = colouring_masks(d, k)
    # column 0 (all identities) is pinned at the first vertex
    rest = first_multiset_cover(masks, k**d, t - 1, masks[0])
    return None if rest is None else cover_from_columns(column_space(d, k), (0,) + rest)


def surjection_count(d: int, k: int) -> int:
    """Number of surjections from a d-set onto a k-set (inclusion-exclusion)."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** d for j in range(k + 1))


def every_cover_colourable_by_counting(d: int, t: int, k: int) -> bool:
    """Union bound: is every k-fold cover of K_{d,t} necessarily colourable?

    A vertex of the t side is blocked under a colouring of the d side iff
    its d transported neighbour colours exhaust {1..k}; per-coordinate
    colour transport is bijective, so each vertex blocks exactly the
    surjection count of the k^d colourings.  If t vertices cannot block
    them all (strict inequality), a colouring always survives; the same
    holds with the roles of the sides swapped.
    """
    return (
        t * surjection_count(d, k) < k**d or d * surjection_count(t, k) < k**t
    )


def chi_c_exact(a: int, b: int) -> int:
    """Exact correspondence chromatic number of K_{a,b} for tiny instances.

    For k = 2, 3, ...: the counting ceiling settles the fold sizes where no
    cover can block every colouring; the remaining fold sizes are scanned
    exhaustively over canonical covers.  The least k with no uncolourable
    cover is the answer.  Termination: once k exceeds min(a,b) no vertex
    can be blocked at all (a surjection onto more than min(a,b) colours
    would be needed), so the ceiling always fires by then.
    """
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if min(a, b) == 1:
        return 2  # trees: two colours always suffice, one never does
    d, t = (a, b) if a <= b else (b, a)
    for k in itertools.count(2):
        if every_cover_colourable_by_counting(d, t, k):
            return k
        if find_uncolourable_cover(d, t, k) is None:
            return k


def chi_c_star_exact(a: int, b: int) -> int:
    """Exact correspondence packing number of K_{a,b} for tiny instances.

    For k = 2, 3, ...: the canonical covers of K_{d,t}, d <= t, are scanned
    like ``find_uncolourable_cover`` scans them, as multisets of columns
    after the pinned all-identity column; a cover is unpackable iff its
    columns' packing masks jointly block every candidate.  The least k with
    no such multiset is the answer.  Each fold is refused before its masks
    are built when its multiset count exceeds the work limit.
    """
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if min(a, b) == 1:
        return 2  # trees: every 2-fold cover packs, a 1-fold cover never does
    d, t = (a, b) if a <= b else (b, a)
    for k in itertools.count(2):
        check_work(canonical_cover_count(d, t, k), f"fold-{k} cover scan")
        masks = packing_masks(d, k)
        if first_multiset_cover(masks, len(masks), t - 1, masks[0]) is None:
            return k
