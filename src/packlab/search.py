"""Packability and colourability deciders, cover construction, exact chi.

The structural shortcut used everywhere: the large side V of K_{d,t} is an
independent set, so a full packing exists iff some choice of colour vectors
on U extends independently at every v_j.  Relabeling the k colourings
simultaneously permutes all colour vectors the same way, so the first U
vector may be pinned (to the identity in a cover, to ascending order in a
list instance); both packing deciders therefore scan (k!)^(d-1) candidates
in one loop and run one matching check per vertex of V, on colour tables
built once per vertex.

Cover constructions and the exhaustive cover scans behind chi_c and chi_c*
work in the same reduced space; the scans try the union bound first, then
call ``blocking``, which builds the column masks and solves the set covers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .blocking import (
    arrangements,
    colouring_masks,
    column_space,
    cover_from_columns,
    first_multiset_cover,
    greedy_cover,
    hill_climb_cover,
    packing_masks,
)
from .counting import forbidden_count_brute
from .covers import CorrespondenceCover, ListAssignment
from .errors import (
    candidate_count,
    canonical_cover_count,
    check_work,
    colouring_scan_steps,
    packing_scan_steps,
)
from .packing import admissible_masks, has_perfect_matching, lex_smallest_system
from .perms import identity


@dataclass(frozen=True)
class PackingWitness:
    """Colour vectors forming a full packing.

    In a cover every row is a permutation of {1..k}; in a list instance
    each row is an arrangement of its vertex's own colour list.
    """

    u_rows: tuple[tuple[int, ...], ...]
    v_rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchBudget:
    """Limits for randomized search; outcomes are a function of (seed, limits).

    At least one limit must be set: a search with neither may never end.
    """

    max_candidates: int | None = 5_000_000
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


def _first_packing(candidates, tables, k: int):
    """The first candidate U rows that extend at every vertex of V, or None.

    tables[j] holds the colour tables (``admissible_masks``) of the U rows
    at the j-th vertex of V.  Returns the rows and the
    ``lex_smallest_system`` of the masks at each vertex.
    """
    for rows in candidates:
        all_adm: list[list[int]] = []
        for vertex in tables:
            adm = admissible_masks(rows, k, vertex)
            if not has_perfect_matching(adm):
                break
            all_adm.append(adm)
        else:
            return rows, [lex_smallest_system(adm) for adm in all_adm]
    return None


def decide_correspondence_packing(cover: CorrespondenceCover) -> PackingWitness | None:
    """Full packing of a k-fold cover, or None when none exists.

    Scans the U matrices with the first row pinned to the identity, in
    lexicographic order of the remaining rows.  Exhaustive over the reduced
    candidate space and charged ``packing_scan_steps`` up front; a
    ResourceLimitError (the instance was too big to decide) is distinct
    from the None verdict.
    """
    d, t, k = cover.d, cover.t, cover.k
    check_work(packing_scan_steps(d, t, k), "packing decision")
    candidates = arrangements((identity(k),) * d)
    tables = [[(0,) + tuple(1 << (s - 1) for s in m) for m in cover.column(j)] for j in range(t)]
    found = _first_packing(candidates, tables, k)
    if found is None:
        return None
    u_rows, v_rows = found
    return PackingWitness(u_rows=u_rows, v_rows=tuple(v_rows))


def decide_list_packing(assignment: ListAssignment) -> PackingWitness | None:
    """Full packing of a list-assignment, or None when none exists.

    Scans the arrangements of the U lists, the first one pinned in
    ascending order, the rest in ``itertools.permutations`` order; charged
    like the cover decider.  Row i of each side of the witness is an
    arrangement of that vertex's own list.
    """
    a, k, u_lists = assignment.a, assignment.k, assignment.u_lists
    check_work(packing_scan_steps(a, assignment.b, k), "packing decision")
    absent = dict.fromkeys(itertools.chain(*u_lists), 0)
    tables = [[absent | {c: 1 << p for p, c in enumerate(v)}] * a for v in assignment.v_lists]
    found = _first_packing(arrangements(u_lists), tables, k)
    if found is None:
        return None
    u_rows, positions = found
    v_rows = tuple(
        tuple(lst[p - 1] for p in row) for lst, row in zip(assignment.v_lists, positions)
    )
    return PackingWitness(u_rows=u_rows, v_rows=v_rows)


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
    in one thread; ``workers`` is never read and stays only because the
    benchmark harness passes it.
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


def surjection_count(d: int, k: int) -> int:
    """Number of surjections from a d-set onto a k-set (inclusion-exclusion)."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** d for j in range(k + 1))


def _colourings_blocked(d: int, k: int) -> tuple[int, int]:
    """(B, N): a column blocks the B surjective colourings of the N = k^d on U."""
    return surjection_count(d, k), k**d


def _matrices_blocked(d: int, k: int) -> tuple[int, int]:
    """(B, N): a column blocks B of the N = (k!)^(d-1) matrices with the first row pinned."""
    return forbidden_count_brute(d, k) // math.factorial(k), candidate_count(d, k)


def _blocking_cover(d: int, t: int, k: int, blocked, masks_of) -> tuple[int, ...] | None:
    """The closing picks, as indices into ``column_space(d, k)``, of the
    lexicographically first canonical k-fold cover of K_{d,t} whose
    columns jointly block every candidate, or None.

    Each column blocks B of the N candidates, (B, N) = ``blocked(d, k)``;
    when t·B < N no t columns block them all (the union bound), and nothing
    is charged or built.  Otherwise the all-identity column 0 is pinned at
    the first vertex and the free columns run over multisets of
    ``masks_of(d, k)``: the verdict does not depend on the order of V.

    Only p = min(t - 1, n) free picks are scanned and returned, n =
    (k!)^(d-1) the number of columns.  The lex-first multiset is a run of
    its first index followed by the fewest picks that close the cover;
    once p >= n, which first index opens a cover and that tail (at most
    n - 1 picks) no longer depend on p, so t - 1 picks only lengthen the
    run (``_cover_picks``), and a verdict never builds t of them.  The
    scan is charged the worst-case count of p-pick multisets,
    ``canonical_cover_count(d, p + 1, k)``, so what is refused depends on
    (d, t, k) alone; ``first_multiset_cover`` prunes, and usually ends far
    sooner.
    """
    per_column, n_targets = blocked(d, k)
    if t * per_column < n_targets:
        return None
    p = min(t - 1, candidate_count(d, k))
    check_work(canonical_cover_count(d, p + 1, k), f"fold-{k} cover scan")
    masks = masks_of(d, k)
    return first_multiset_cover(masks, n_targets, p, masks[0])


def _cover_picks(rest: tuple[int, ...], t: int) -> tuple[int, ...]:
    """All t column picks of the cover whose closing picks are ``rest``:
    the pinned column 0, then the opening run lengthened to t - 1 picks."""
    return (0,) + rest[:1] * (t - 1 - len(rest)) + rest


def find_uncolourable_cover(d: int, t: int, k: int) -> CorrespondenceCover | None:
    """Lexicographically first canonical k-fold cover of K_{d,t} with no
    proper colouring, or None when every cover is colourable (exhaustive up
    to relabeling: every cover is equivalent to a scanned one).  Building
    the cover is charged its d·t edge matchings, after the scan."""
    if d < 2 or t < 1 or k < 1:
        raise ValueError("need d >= 2, t >= 1 and k >= 1")
    rest = _blocking_cover(d, t, k, _colourings_blocked, colouring_masks)
    if rest is None:
        return None
    check_work(d * t, f"building a {k}-fold cover of K_{{{d},{t}}}")
    return cover_from_columns(column_space(d, k), _cover_picks(rest, t))


def _least_open_fold(a: int, b: int, blocked, masks_of) -> int:
    """The least k >= 2 with no blocking k-fold cover of K_{a,b}, U the smaller side."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if min(a, b) == 1:
        return 2  # trees: every 2-fold cover colours and packs, a 1-fold cover never does
    d, t = sorted((a, b))
    folds = itertools.count(2)
    return next(k for k in folds if _blocking_cover(d, t, k, blocked, masks_of) is None)


def chi_c_exact(a: int, b: int) -> int:
    """Exact correspondence chromatic number of K_{a,b} for tiny instances:
    the least k with no uncolourable k-fold cover.  Once k > min(a, b) no
    column blocks a colouring (none maps onto k colours), so the union
    bound ends the loop."""
    return _least_open_fold(a, b, _colourings_blocked, colouring_masks)


def chi_c_star_exact(a: int, b: int) -> int:
    """Exact correspondence packing number of K_{a,b} for tiny instances:
    the least k with no unpackable k-fold cover."""
    return _least_open_fold(a, b, _matrices_blocked, packing_masks)
