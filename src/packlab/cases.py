"""Case analysis machinery for list packing with a 3-vertex small side.

With |U| = 3 and 3-lists, the assignment on U is one of finitely many
isomorphism types (colour renaming + permuting the three vertices): twelve
types when the three lists are pairwise distinct, sixteen including repeated
lists.  A type is given by its seven Venn-region sizes, from which both
the canonical form and the enumeration of types are built.  Fixing the
arrangement of L(u_1), a type leaves 36 candidate matrices (rows 2 and 3
permuted); a list on the V side blocks the matrices admitting no
permutation of that list deranging all three rows.  The instance is
unpackable iff the V lists jointly block all 36 candidates, so exact
list-packing thresholds reduce to minimum set-cover questions over
blocked-candidate masks.  ``blocking.min_cover_size`` answers them exactly
as the least pick count for which the lex-first multiset scan finds a
cover.

The masks take no matching per (candidate, list) pair: a list's mask is the
union of the targets whose cuts (``_hall_cuts`` for arrangements) it
meets, and a target is blockable iff it has a cut.  So the thresholds take
no search limit: a type with an uncut target is skipped, any other is
coverable by one list per target.  The fold-4 ceiling behind
``chi_l_star_exact`` is ``list_packing_threshold(4) is None``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .blocking import arrangements, min_cover_size
from .covers import ListAssignment, make_assignment
from .errors import ResourceLimitError, candidate_count, check_work
from .packing import admissible_masks, hall_violators, has_perfect_matching

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
    is admissible at position s unless some row already has c there: each
    row colour blocks its position bit in v_list, or nothing when absent.
    """
    k = len(rows[0])
    colours = sorted(v_list)
    if len(colours) != k or any(len(r) != k for r in rows):
        raise ValueError("v_list and all rows must have the same size k")
    if len(set(colours)) != k:
        raise ValueError(f"v_list {colours} repeats a colour")
    table = dict.fromkeys(itertools.chain(*rows), 0) | {c: 1 << p for p, c in enumerate(colours)}
    return has_perfect_matching(admissible_masks(rows, k, [table] * len(rows)))


# ---------------------------------------------------------------------------
# isomorphism types of list triples
# ---------------------------------------------------------------------------


def _venn_form(sizes) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a triple from its Venn-region sizes.

    ``sizes[m]`` counts the colours lying in exactly the lists of bitmask m
    (bit i for list i, m = 1..7).  For each of the six vertex orders
    (A, B, C) the least labelling numbers the regions consecutively in the
    order ABC, AB, AC, A, BC, B, C; the form is the least of the six
    resulting tuples of sorted label rows.
    """
    forms = []
    for a, b, c in itertools.permutations((1, 2, 4)):
        rows: tuple[list[int], ...] = ([], [], [])
        start = 1
        for region in (a | b | c, a | b, a | c, a, b | c, b, c):
            end = start + sizes[region]
            for row, bit in zip(rows, (a, b, c)):
                if region & bit:
                    row.extend(range(start, end))
            start = end
        forms.append(tuple(map(tuple, rows)))
    return min(forms)


def enumerate_triple_types(k: int, allow_repeats: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """All isomorphism types of triples of k-lists, as sorted canonical forms.

    A type is its Venn-region sizes: the four shared regions range over
    0..k and each list's own region fills it up to k.  A form with two
    equal rows has a repeated list.
    """
    types = set()
    for abc, ab, ac, bc in itertools.product(range(k + 1), repeat=4):
        own = (k - abc - ab - ac, k - abc - ab - bc, k - abc - ac - bc)
        if min(own) >= 0:
            form = _venn_form((0, own[0], own[1], ab, own[2], ac, bc, abc))
            if allow_repeats or len(set(form)) == 3:
                types.add(form)
    return sorted(types)


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
    """Hall cuts of an arrangement: pairs (I_J, need = k - |J| + 1), one per
    Hall violator of its columns (``hall_violators``), where I_J is the
    bitmask of the colours common to the columns of the slot set J.

    By Hall's theorem a k-list L admits no permutation deranging every row
    iff, for some J, fewer than |J| of its colours (L ∖ I_J) are admissible
    at a slot of J, i.e. iff |L ∩ I_J| >= need for some cut.
    """
    k = len(rows[0])
    cols = [_colour_bits(row[s] for row in rows) for s in range(k)]
    return {(shared, k - len(slots) + 1) for slots, shared in hall_violators(cols)}


def _packing_cuts(u_lists) -> tuple[list, Iterator[set[tuple[int, int]]]]:
    """(arrangements: row 1 sorted, rows 2.. permuted; the Hall cuts of each, lazily)."""
    candidates = list(arrangements([tuple(sorted(lst)) for lst in u_lists]))
    return candidates, map(_hall_cuts, candidates)


def _colouring_cuts(u_lists) -> tuple[list, list[set[tuple[int, int]]]]:
    """(colourings of U, the cut of each).

    The colourings are the products of the sorted lists.  A k-list blocks a
    colouring iff it lies in the colouring's value set V, i.e. iff
    |L ∩ V| >= k, so (V, k) is its one cut when |V| >= k and it has none
    otherwise.
    """
    k = len(u_lists[0])
    colourings = list(itertools.product(*map(sorted, u_lists)))
    values = map(_colour_bits, colourings)
    return colourings, [{(v, k)} if v.bit_count() >= k else set() for v in values]


def _block_masks(u_lists, cuts) -> dict[tuple[int, ...], int]:
    """Mask per effective list, given the cuts of every target.

    A list L blocks target m iff |L ∩ I| >= need for one of the (colour
    bitmask I, need) pairs of cuts[m]; each list is tested once per
    distinct cut.  Bit m of a mask is set when the list blocks target m;
    lists with zero mask are dropped.
    """
    hit: dict[tuple[int, int], int] = {}
    for m, target_cuts in enumerate(cuts):
        for cut in target_cuts:
            hit[cut] = hit.get(cut, 0) | 1 << m
    masks: dict[tuple[int, ...], int] = {}
    for lst in _effective_lists(u_lists):
        bits = _colour_bits(lst)
        mask = 0
        for (inter, need), blocked in hit.items():
            if (bits & inter).bit_count() >= need:
                mask |= blocked
        if mask:
            masks[lst] = mask
    return masks


def _list_threshold(k: int, target_cuts, candidates: int, what: str) -> int | None:
    """Least exact cover number over every isomorphism type of k-list
    triples (repeated lists included); None when no type can be fully
    blocked.

    ``target_cuts(triple)`` gives the type's ``candidates`` targets and
    their cuts.  A target blocked by no list has no cut, so a type with
    one is skipped before any mask is built; every other type is coverable
    by at most one list per target.  Each type has C(colours + k, k)
    effective lists; the (target, list) pairs of all types are charged up
    front.
    """
    types = enumerate_triple_types(k, allow_repeats=True)
    pairs = sum(math.comb(len(set().union(*triple)) + k, k) for triple in types)
    check_work(candidates * pairs, f"{what} for k = {k}")
    best: int | None = None
    for triple in types:
        targets, cuts = target_cuts(triple)
        cuts = list(itertools.takewhile(bool, cuts))
        if len(cuts) < len(targets):
            continue
        bound = len(targets) if best is None else best - 1
        size = min_cover_size(list(_block_masks(triple, cuts).values()), len(targets), bound)
        if size is not None:
            best = size
    return best


def list_packing_threshold(k: int) -> int | None:
    """Least t admitting an unpackable k-assignment on a 3-vertex small side.

    Minimizes the exact cover number over every isomorphism type of list
    triples (repeated lists included).  None when no type can be fully
    blocked, whatever t.
    """
    return _list_threshold(k, _packing_cuts, candidate_count(3, k), "the list packing threshold")


def list_colouring_threshold(k: int) -> int | None:
    """Least t admitting an uncolourable k-assignment on a 3-vertex small side."""
    return _list_threshold(k, _colouring_cuts, k**3, "the list colouring threshold")


def _three_vertex_number(a: int, b: int, threshold, name: str) -> int:
    """2, 3 or 4 for K_{a,b} with a 3-vertex side, from the thresholds.

    With t the other side, the value is 2 below threshold(2), 3 below
    threshold(3), else 4; the fold-4 ceiling is threshold(4) is None (no
    4-assignment on a 3-vertex side fails, whatever t).
    """
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if 3 not in (a, b):
        raise ResourceLimitError(f"{name} supports a 3-vertex side, got K_{{{a},{b}}}")
    t = b if a == 3 else a
    m2, m3 = threshold(2), threshold(3)
    if m2 is None or m3 is None or threshold(4) is not None:
        raise AssertionError(f"{name}: folds 2 and 3 need a threshold and fold 4 none")
    return 2 if t < m2 else 3 if t < m3 else 4


def chi_l_exact(a: int, b: int) -> int:
    """Exact list chromatic number of K_{a,b}; supported for min(a,b) = 3.

    Some 2-assignment is uncolourable once the large side reaches
    list_colouring_threshold(2), some 3-assignment once it reaches
    list_colouring_threshold(3) (= 27, disjoint lists with all transversal
    triples), and 4 colours always suffice (a colouring of U uses at most
    three colours, so no 4-list is blocked).
    """
    return _three_vertex_number(a, b, list_colouring_threshold, "chi_l_exact")


def chi_l_star_exact(a: int, b: int) -> int:
    """Exact list packing number of K_{a,b}; supported for min(a,b) = 3.

    Fold 2 and fold 3 thresholds come from exact cover numbers over all
    triple types; the value 4 additionally needs the fold-4 ceiling: every
    4-list triple type has an arrangement no list blocks.
    """
    return _three_vertex_number(a, b, list_packing_threshold, "chi_l_star_exact")


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
