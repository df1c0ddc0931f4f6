"""Case analysis machinery for list packing with a 3-vertex small side.

With |U| = 3 and 3-lists, the assignment on U is one of finitely many
isomorphism types (colour renaming + permuting the three vertices): twelve
types when the three lists are pairwise distinct, sixteen including repeated
lists.  Fixing the arrangement of L(u_1), a type leaves 36 candidate
matrices (rows 2 and 3 permuted); a list on the V side blocks the matrices
admitting no permutation of that list deranging all three rows.  The
instance is unpackable iff the V lists jointly block all 36 candidates, so
exact list-packing thresholds reduce to minimum set-cover questions over
blocked-candidate masks, which ``blocking.min_cover_size`` solves exactly.

The masks take no matching per (candidate, list) pair: a list's mask is the
union of the arrangements whose Hall cuts (``_hall_cuts``) it meets.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .blocking import min_cover_size
from .covers import ListAssignment, make_assignment
from .errors import ResourceLimitError, check_work
from .packing import has_perfect_matching, list_masks

#: the twelve reference matrices of the distinct-list types; rows are colour
#: vectors, row sets are the three lists of the type
CASE_MATRICES: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1, 2, 3), (1, 2, 4), (1, 3, 4)),
    2: ((1, 2, 3), (1, 2, 4), (1, 5, 3)),
    3: ((3, 2, 1), (2, 4, 1), (3, 4, 5)),
    4: ((1, 2, 3), (1, 2, 4), (6, 5, 3)),
    5: ((1, 2, 4), (1, 5, 3), (6, 2, 3)),
    6: ((1, 2, 3), (1, 2, 4), (1, 2, 5)),
    7: ((1, 2, 3), (4, 5, 6), (1, 7, 8)),
    8: ((1, 2, 3), (4, 5, 6), (9, 7, 8)),
    9: ((1, 2, 3), (1, 2, 4), (6, 1, 5)),
    10: ((1, 2, 3), (1, 4, 5), (6, 1, 7)),
    11: ((1, 2, 3), (1, 2, 4), (5, 6, 7)),
    12: ((1, 2, 3), (1, 4, 5), (6, 2, 7)),
}


def check_case_matrix(rows: tuple[tuple[int, ...], ...], v_list) -> bool:
    """True iff some permutation of v_list is a derangement of every row.

    Hall check between the k positions and the k colours of v_list: colour c
    is admissible at position s unless some row already has c there.
    """
    k = len(rows[0])
    colours = sorted(v_list)
    if len(colours) != k or any(len(r) != k for r in rows):
        raise ValueError("v_list and all rows must have the same size k")
    return has_perfect_matching(list_masks(rows, colours))


# ---------------------------------------------------------------------------
# isomorphism types of list triples
# ---------------------------------------------------------------------------


def canonical_triple(lists) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a triple of equal-size colour sets.

    Minimum, over the six vertex orders and all colour relabelings that
    assign fresh labels in first-use order, of the tuple of sorted label
    rows.  Two triples get the same form iff a colour bijection plus a
    vertex permutation maps one to the other.

    For a vertex order (A, B, C) the minimum is set by the Venn-region
    sizes alone: A takes 1..|A| with A∩B first, B∖A takes the next labels,
    and C's row is the least labels of each of its four regions.
    """
    rows_in = [frozenset(lst) for lst in lists]
    if len(rows_in) != 3:
        raise ValueError("need exactly three lists")

    def labels(start: int, count: int) -> tuple[int, ...]:
        return tuple(range(start, start + count))

    forms = []
    for a, b, c in itertools.permutations(rows_in):
        na, nab, nb_new = len(a), len(a & b), len(b - a)
        row_c = (
            labels(1, len(a & b & c))
            + labels(nab + 1, len((a & c) - b))
            + labels(na + 1, len((b & c) - a))
            + labels(na + nb_new + 1, len(c - a - b))
        )
        forms.append((labels(1, na), labels(1, nab) + labels(na + 1, nb_new), row_c))
    return min(forms)


def enumerate_triple_types(k: int, allow_repeats: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """All isomorphism types of triples of k-lists, as canonical forms.

    Candidates are generated with the first list {1..k} and fresh colours
    introduced in increasing order, which reaches every type; canonical
    forms dedupe them.
    """

    def extensions(used: set[int]):
        top = max(used)
        options = []
        for j in range(k + 1):
            for shared in itertools.combinations(sorted(used), j):
                fresh = tuple(range(top + 1, top + 1 + (k - j)))
                options.append(frozenset(shared + fresh))
        return options

    first = frozenset(range(1, k + 1))
    types: dict[tuple, None] = {}
    for second in extensions(set(first)):
        used2 = set(first | second)
        for third in extensions(used2):
            triple = [first, second, third]
            if not allow_repeats and len({first, second, third}) != 3:
                continue
            types.setdefault(canonical_triple(triple), None)
    return sorted(types.keys())


def u_side_list_types() -> list[tuple[tuple[int, ...], ...]]:
    """The twelve types of pairwise-distinct 3-list triples on the small side.

    Returned as the sorted row-sets of the reference matrices, in reference
    order 1..12.  The count is re-derived by exhaustive classification in
    the tests.
    """
    return [
        tuple(tuple(sorted(row)) for row in CASE_MATRICES[i]) for i in sorted(CASE_MATRICES)
    ]


# ---------------------------------------------------------------------------
# blocked-candidate masks and exact cover thresholds
# ---------------------------------------------------------------------------


def _arrangements(u_lists) -> list[tuple[tuple[int, ...], ...]]:
    """Candidate matrices: row 1 fixed to sorted order, rows 2.. permuted."""
    first = tuple(sorted(u_lists[0]))
    rest = [list(itertools.permutations(sorted(lst))) for lst in u_lists[1:]]
    return [(first,) + combo for combo in itertools.product(*rest)]


def _effective_lists(u_lists) -> list[tuple[int, ...]]:
    """All k-lists that can differ in blocking power: subsets of the used
    colours padded with fresh ones (fresh colours never constrain)."""
    k = len(u_lists[0])
    used = sorted(set().union(*map(set, u_lists)))
    top = max(used)
    fresh = list(range(top + 1, top + 1 + k))
    return [tuple(sorted(c)) for c in itertools.combinations(used + fresh, k)]


def _colour_bits(colours) -> int:
    """A colour set as a bitmask: bit c stands for colour c."""
    bits = 0
    for c in colours:
        bits |= 1 << c
    return bits


def _hall_cuts(rows) -> set[tuple[int, int]]:
    """Hall cuts of an arrangement: pairs (I_J, need = k - |J| + 1) with
    |I_J| >= need, where I_J is the bitmask of the colours common to the
    columns of a nonempty slot set J.

    By Hall's theorem a k-list L admits no permutation deranging every row
    iff, for some J, fewer than |J| of its colours (L ∖ I_J) are admissible
    at a slot of J, i.e. iff |L ∩ I_J| >= need for some cut.
    """
    k = len(rows[0])
    cols = [_colour_bits(row[s] for row in rows) for s in range(k)]
    cuts = set()
    for size in range(1, k + 1):
        need = k - size + 1
        for subset in itertools.combinations(cols, size):
            inter = functools.reduce(operator.and_, subset)
            if inter.bit_count() >= need:
                cuts.add((inter, need))
    return cuts


def _block_masks(u_lists, targets_of, cuts_of) -> tuple[list, dict[tuple[int, ...], int]]:
    """(targets, mask per effective list) over the sorted lists.

    A list L blocks a target iff |L ∩ I| >= need for one of the (colour
    bitmask I, need) pairs of ``cuts_of(target)``; each list is tested once
    per distinct cut.  Bit m of a mask is set when the list blocks
    targets[m]; lists with zero mask are dropped.
    """
    u_sorted = [tuple(sorted(lst)) for lst in u_lists]
    targets = targets_of(u_sorted)
    hit: dict[tuple[int, int], int] = {}
    for m, target in enumerate(targets):
        for cut in cuts_of(target):
            hit[cut] = hit.get(cut, 0) | 1 << m
    masks: dict[tuple[int, ...], int] = {}
    for lst in _effective_lists(u_sorted):
        bits = _colour_bits(lst)
        mask = 0
        for (inter, need), blocked in hit.items():
            if (bits & inter).bit_count() >= need:
                mask |= blocked
        if mask:
            masks[lst] = mask
    return targets, masks


def packing_block_masks(u_lists) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """(arrangements, mask per effective list) for the packing problem.

    Bit m of a mask is set when the list blocks arrangement m (no
    permutation of the list is a common derangement of its rows), decided
    by the arrangement's Hall cuts.  Lists with zero mask are dropped.
    """
    return _block_masks(u_lists, _arrangements, _hall_cuts)


def colouring_block_masks(u_lists) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """Masks for the single-colouring problem: colourings of U are the
    products of the lists; a k-list blocks a colouring iff it is contained
    in the colouring's value set V, i.e. iff |L ∩ V| >= k."""
    k = len(u_lists[0])
    return _block_masks(
        u_lists, lambda u: list(itertools.product(*u)), lambda col: [(_colour_bits(col), k)]
    )


def _list_threshold(k: int, limit: int, block_masks, candidates: int, what: str) -> int | None:
    """Least exact cover number, at most ``limit``, over every isomorphism
    type of k-list triples (repeated lists included); None when no type can
    be fully blocked within the limit.

    Every type has ``candidates`` targets and C(colours + k, k) effective
    lists; the (target, list) pairs of all types are charged up front.
    """
    types = enumerate_triple_types(k, allow_repeats=True)
    pairs = sum(math.comb(len(set().union(*triple)) + k, k) for triple in types)
    check_work(candidates * pairs, f"{what} for k = {k}")
    best: int | None = None
    for triple in types:
        targets, masks = block_masks(triple)
        cur_limit = limit if best is None else best - 1
        if cur_limit < 1:
            break
        size = min_cover_size(list(masks.values()), len(targets), cur_limit)
        if size is not None and (best is None or size < best):
            best = size
    return best


def list_packing_threshold(k: int, limit: int = 12) -> int | None:
    """Least t admitting an unpackable k-assignment on a 3-vertex small side.

    Minimizes the exact cover number over every isomorphism type of list
    triples (repeated lists included).  None when no type can be fully
    blocked within ``limit`` vertices.
    """
    return _list_threshold(
        k, limit, packing_block_masks, math.factorial(k) ** 2, "the list packing threshold"
    )


def list_colouring_threshold(k: int, limit: int = 30) -> int | None:
    """Least t admitting an uncolourable k-assignment on a 3-vertex small side."""
    return _list_threshold(k, limit, colouring_block_masks, k**3, "the list colouring threshold")


def _arrangement_blockable(rows) -> bool:
    """True iff some k-list (padded with fresh colours) blocks these rows,
    i.e. iff the arrangement has a Hall cut."""
    return bool(_hall_cuts(rows))


def chi_l_exact(a: int, b: int) -> int:
    """Exact list chromatic number of K_{a,b}; supported for min(a,b) = 3.

    Thresholds from the cover analysis: with 3-vertex small side, some
    2-assignment is uncolourable once the large side reaches
    list_colouring_threshold(2), some 3-assignment once it reaches
    list_colouring_threshold(3) (= 27, disjoint lists with all transversal
    triples), and 4 colours always suffice by greedy.
    """
    if a == 3:
        t = b
    elif b == 3:
        t = a
    else:
        raise ResourceLimitError(f"chi_l_exact supports a 3-vertex side, got K_{{{a},{b}}}")
    m2 = list_colouring_threshold(2)
    m3 = list_colouring_threshold(3)
    if m2 is None or m3 is None:
        raise AssertionError("a list colouring threshold exceeds its search limit")
    if t < m2:
        return 2
    if t < m3:
        return 3
    return 4


def chi_l_star_exact(a: int, b: int, limit: int = 12) -> int:
    """Exact list packing number of K_{a,b}; supported for min(a,b) = 3.

    Fold 2 and fold 3 thresholds come from exact cover numbers over all
    triple types; the value 4 additionally needs the fold-4 ceiling, checked
    by exhibiting, for every 4-list triple type, an arrangement no list can
    block.
    """
    if a == 3:
        t = b
    elif b == 3:
        t = a
    else:
        raise ResourceLimitError(f"chi_l_star_exact supports a 3-vertex side, got K_{{{a},{b}}}")
    m2 = list_packing_threshold(2)
    if m2 is None:
        raise AssertionError("the fold-2 list packing threshold exceeds its search limit")
    if t < m2:
        return 2
    m3 = list_packing_threshold(3, limit=min(limit, t))
    if m3 is None or t < m3:
        return 3
    # a type with an arrangement no 4-list blocks is never unpackable,
    # whatever the other side looks like
    for triple in enumerate_triple_types(4, allow_repeats=True):
        if all(_arrangement_blockable(rows) for rows in _arrangements(triple)):
            raise AssertionError(f"fold-4 ceiling fails for type {triple}")
    return 4


# ---------------------------------------------------------------------------
# concrete assignments used as fixtures
# ---------------------------------------------------------------------------


def k39_assignment() -> ListAssignment:
    """Disjoint 3-lists on a 3-vertex side against all nine {a,b,7} lists.

    Whatever the partial packing does, the slot where the third vertex uses
    colour 7 collides with the list {a, b, 7} matching the first two
    vertices' colours at that slot, so no packing exists.
    """
    u = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}]
    v = [{a, b, 7} for a in (1, 2, 3) for b in (4, 5, 6)]
    return make_assignment(u, v)


def k65_assignment() -> ListAssignment:
    """The unique (up to renaming) unpackable 3-assignment with sides 5 and 6.

    Small side: the four 3-subsets of {1..4} plus {1,2,5}; large side: the
    six sets A + {5} with A a 2-subset of {1..4}.
    """
    u = [set(c) for c in itertools.combinations(range(1, 5), 3)] + [{1, 2, 5}]
    v = [set(c) | {5} for c in itertools.combinations(range(1, 5), 2)]
    return make_assignment(u, v)


def a10_assignment() -> ListAssignment:
    """Type-10 lists against all eight {2,3} x {4,5} x {6,7} transversals.

    Packable: arranging the three 1s on a diagonal leaves every transversal
    list extendable.
    """
    u = [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}]
    v = [set(c) for c in itertools.product((2, 3), (4, 5), (6, 7))]
    return make_assignment(u, v)
