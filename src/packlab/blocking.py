"""The blocking space behind every unpackable- or uncolourable-cover construction.

A vertex of the large side of K_{d,t} sees the small side through a column
of d matchings; with the first matching pinned to the identity, the
canonical columns are the tuples (identity, s_2, ..., s_d) in
``itertools.product`` order.  Each column blocks a set of candidates (U
matrices for packing, U colourings for colouring), recorded as a bitmask;
a cover built from chosen columns admits no packing (colouring) iff the
chosen masks jointly cover every candidate.

Both mask families are group translates: column c blocks candidate x iff
c·x lands in a fixed base set B (the unextendable matrices, resp. the
surjective colourings), so mask_c = {c⁻¹·b : b ∈ B}.  Building them costs
|columns| · min(|B|, |candidates ∖ B|) steps instead of |columns| ·
|candidates|.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
import time
from collections.abc import Iterator, Sequence

from .covers import CorrespondenceCover
from .errors import candidate_count, capped_product, check_work
from .packing import admissible_masks, has_perfect_matching
from .perms import Perm, compose, identity, inverse


def arrangements(rows: Sequence[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The pinned candidates over ``rows``: the first row as given, each later
    row over its ``itertools.permutations``, in ``itertools.product`` order."""
    first, *rest = rows
    for arranged in itertools.product(*map(itertools.permutations, rest)):
        yield (first,) + arranged


def column_space(d: int, k: int) -> list[tuple[Perm, ...]]:
    """The (k!)^(d-1) canonical columns (identity, s_2, ..., s_d), in product order."""
    return list(arrangements((identity(k),) * d))


def cover_from_columns(columns: list[tuple[Perm, ...]], picks) -> CorrespondenceCover:
    """The cover whose j-th large-side vertex sees columns[picks[j]]."""
    chosen = [columns[c] for c in picks]
    d, k = len(columns[0]), len(columns[0][0])
    sigma = tuple(tuple(col[i] for col in chosen) for i in range(d))
    return CorrespondenceCover(k=k, sigma=sigma)


def _translate_masks(actions: list[list[list[int]]], members: list[bool]) -> list[int]:
    """mask_c = {x : c·x ∈ B} for every option tuple c, in product order.

    Candidates are digit tuples in product order; ``actions[i][a][x]`` is
    the digit that option a's inverse sends digit x to at coordinate i, and
    ``members[x]`` tells whether candidate x lies in B.  The translates are
    taken of B or, when smaller, of its complement.
    """
    size = len(members)
    radix = len(actions[0][0])
    inside = 2 * sum(members) <= size
    flip = 0 if inside else (1 << size) - 1
    codes = itertools.product(range(radix), repeat=len(actions))
    base = [x for x, member in zip(codes, members) if member == inside]
    weights = [radix ** (len(actions) - 1 - i) for i in range(len(actions))]
    # per coordinate and option: the weighted digit of a⁻¹·b_i for every b in base
    parts = [
        [[w * inv[b[i]] for b in base] for inv in options]
        for i, (w, options) in enumerate(zip(weights, actions))
    ]
    masks = []
    for chosen in itertools.product(*parts):
        mask = 0
        for idx in map(sum, zip(*chosen)):
            mask |= 1 << idx
        masks.append(mask ^ flip)
    return masks


def packing_masks(d: int, k: int) -> list[int]:
    """Blocked-matrix masks of the canonical columns.

    Candidates are the U matrices (identity, m_2, ..., m_d), indexed like
    the columns; column c blocks m iff the transported matrix
    (identity, c_2·m_2, ..., c_d·m_d) is unextendable, so masks[0] is the
    unextendable set F itself.  The machine words of the (k!)^(d-1) masks
    of (k!)^(d-1) bits each, and the k! × k! inverse table, are charged to
    the work limit on every call, before the table is looked up.  The
    table is built once per process for each of the last two (d, k); each
    call returns a fresh list.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    size, kf = candidate_count(d, k), capped_product(range(1, k + 1))
    check_work(size * -(-size // 64) + kf * kf, "packing masks")
    return list(_packing_mask_table(d, k))


@functools.lru_cache(maxsize=2)
def _packing_mask_table(d: int, k: int) -> tuple[int, ...]:
    """The masks of ``packing_masks``, built once and kept."""
    # the candidate matrices are the canonical columns themselves
    members = [not has_perfect_matching(admissible_masks(m, k)) for m in column_space(d, k)]
    perms = list(itertools.permutations(range(1, k + 1)))
    index_of = {p: i for i, p in enumerate(perms)}
    inv = [[index_of[compose(inverse(a), b)] for b in perms] for a in perms]
    return tuple(_translate_masks([inv] * (d - 1), members))


def colouring_masks(d: int, k: int) -> list[int]:
    """Blocked-colouring masks of the canonical columns.

    Candidates are the k^d U colourings (a_1, ..., a_d), coded in base k in
    product order; a column blocks a colouring iff the transported colours
    exhaust {1..k}.  The masks' machine words are charged to the work
    limit before any is built.
    """
    check_work(candidate_count(d, k) * -(-(k**d) // 64), "colouring masks")
    perms = list(itertools.permutations(range(1, k + 1)))
    members = [len(set(a)) == k for a in itertools.product(range(k), repeat=d)]
    inv = [[p.index(x + 1) for x in range(k)] for p in perms]
    return _translate_masks([[list(range(k))]] + [inv] * (d - 1), members)


# ---------------------------------------------------------------------------
# set-cover solvers over (masks, n_targets)
# ---------------------------------------------------------------------------


def greedy_cover(masks: list[int], n_targets: int) -> tuple[list[int], list[int]]:
    """(picks, trace): repeatedly pick the mask covering the most uncovered
    targets, ties going to the smallest index; trace counts the uncovered
    targets before the first pick and after each one.  Bits at or past
    n_targets are ignored.

    Lazy (accelerated) greedy: a heap keeps each unpicked mask c under the
    key (-bound, c), where bound is its gain at some earlier step; the key
    is packed into the int -bound·len(masks) + c, which orders the same.
    Gains only shrink as targets get covered, so every bound is at least
    the mask's true gain.  The top is rescored and sinks back until its
    rescored key still precedes every other bound; it then precedes every
    other true key too, and is exactly the pick of a full rescan.
    Raises ValueError when some target is covered by no mask.
    """
    survivors = (1 << n_targets) - 1
    trace = [n_targets]
    picks: list[int] = []
    nc = len(masks)
    heap = [-(survivors & m).bit_count() * nc + c for c, m in enumerate(masks)]
    heapq.heapify(heap)
    while survivors:
        if not heap:
            raise ValueError("some target is covered by no mask")
        best = heapq.heappop(heap) % nc
        gain = (survivors & masks[best]).bit_count()
        key = -gain * nc + best
        while heap and key > heap[0]:
            best = heapq.heapreplace(heap, key) % nc
            gain = (survivors & masks[best]).bit_count()
            key = -gain * nc + best
        if gain == 0:
            raise ValueError("some target is covered by no mask")
        survivors &= ~masks[best]
        picks.append(best)
        trace.append(survivors.bit_count())
    return picks, trace


def _transpose(rows: list[int], width: int) -> list[int]:
    """The transposed bit matrix: entry x has bit c set iff rows[c] has bit x, for x < width.

    The rows, cut to ``width`` bits, are packed little-endian into one int,
    row_bytes bytes per row, so the matrix is a grid of 8 × 8 bit tiles:
    8 rows of one byte column.  Three delta swaps (j = 4, 2, 1) transpose
    every tile in place; round j trades the bit at (r, c + j) for the one
    at (r + j, c), wherever r and c have bit j clear.  Byte B of row 8R + i
    then holds the bits of rows 8R..8R+7 at column 8B + i, which is byte R
    of entry 8B + i, so each entry is one strided slice of the bytes.  The
    cost is three passes over the matrix, whatever its density.
    """
    if not width:
        return []
    row_bytes, cut = -(-width // 8), (1 << width) - 1
    height = -(-len(rows) // 8) * 8
    packed = b"".join((row & cut).to_bytes(row_bytes, "little") for row in rows)
    matrix = int.from_bytes(packed, "little")
    for j in (4, 2, 1):
        # the bits that move: column c with c & j set, row r with r & j clear
        line = bytes([sum(1 << b for b in range(8) if b & j)]) * row_bytes
        tile_row = b"".join(bytes(row_bytes) if i & j else line for i in range(8))
        moving = int.from_bytes(tile_row * (height // 8), "little")
        shift = j * (8 * row_bytes - 1)
        swap = (matrix ^ (matrix >> shift)) & moving
        matrix ^= swap ^ (swap << shift)
    packed = matrix.to_bytes(height * row_bytes, "little")
    stride = 8 * row_bytes
    return [
        int.from_bytes(packed[x % 8 * row_bytes + x // 8 :: stride], "little")
        for x in range(width)
    ]


def hill_climb_cover(
    masks: list[int],
    n_targets: int,
    n_picks: int,
    seed: int,
    max_evals: int | None,
    max_seconds: float | None,
) -> list[int] | None:
    """n_picks mask indices covering every target, found by seeded hill-climbing.

    Bits at or past n_targets are ignored.  Objective: the number of
    uncovered targets.  Round-robin over the picks, each is replaced by the
    best alternative (fewest uncovered, then smallest index) when that
    improves on it; a round without improvement restarts from a fresh
    seeded state.  With U the targets the other picks leave uncovered, mask
    m leaves |U ∖ m| = |U| − |U ∩ m| uncovered, so the best alternative is
    the first index with the most hits |U ∩ m|.

    The hits of all masks are counted at once.  The incidence table,
    built once per call, holds for target x the int ``covers[x]`` with bit
    c set iff masks[c] hits x (the transposed mask matrix).  Ripple-adding
    ``covers[x]`` over the targets of U into bit planes counts every
    mask's hits: plane j holds bit j of each count.  Narrowing the set of
    all masks by each plane from the top down, whenever that leaves it
    non-empty, leaves the masks with the most hits; its lowest bit is the
    pick.  U is the disjoint union of the targets no pick covers, the same
    for every pick, and of those only the current pick covers.  The planes
    of the first part, with the targets covered exactly once, are kept
    (``_tally``) and rebuilt only after a restart or a replacement, in
    O(n_picks) ORs of n_targets-bit ints; a scan copies them and adds only
    the targets its pick alone covers.  A scan therefore costs a few
    additions of len(masks)-bit ints, not len(masks) popcounts of
    n_targets-bit ones, yet it still counts len(masks) evaluations; None
    once the evaluation budget would be exceeded or, checked before each
    scan, the time limit has passed.  Without a time limit the outcome is
    a function of the inputs alone.  One round's words, n_picks masks of
    n_targets bits, are charged to the work limit before the state is
    built.
    """
    if n_picks < 1:
        raise ValueError("need n_picks >= 1")  # no scan would ever check a limit
    check_work(n_picks * -(-n_targets // 64), "hill-climb round")
    full = (1 << n_targets) - 1
    if n_picks * max((m & full).bit_count() for m in masks) < n_targets:
        return None  # even the fattest picks leave a target uncovered
    nc = len(masks)
    everyone = (1 << nc) - 1
    covers = _transpose(masks, n_targets)
    rng = random.Random(seed)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    evaluations = 0
    while True:
        state = [rng.randrange(nc) for _ in range(n_picks)]
        once, nowhere, floor = _tally(masks, state, full, covers)
        while True:
            improved = False
            for v in range(n_picks):
                if deadline is not None and time.monotonic() > deadline:
                    return None
                evaluations += nc
                if max_evals is not None and evaluations > max_evals:
                    return None
                best = everyone
                for plane in reversed(_add_hits(floor, covers, once & masks[state[v]])):
                    if best & plane:
                        best &= plane
                if not best >> state[v] & 1:
                    state[v] = (best & -best).bit_length() - 1
                    improved = True
                    once, nowhere, floor = _tally(masks, state, full, covers)
            if not nowhere:
                return state
            if not improved:
                break  # local minimum: restart


def _tally(
    masks: list[int], state: list[int], full: int, covers: list[int]
) -> tuple[int, int, list[int]]:
    """(once, nowhere, planes): the targets the picks of ``state`` cover
    exactly once and not at all, and the hit planes of the latter."""
    seen = more = 0
    for c in state:
        more |= seen & masks[c]
        seen |= masks[c]
    nowhere = full & ~seen
    return full & seen & ~more, nowhere, _add_hits([], covers, nowhere)


def _add_hits(planes: list[int], covers: list[int], targets: int) -> list[int]:
    """A copy of the bit planes with ``covers[x]`` ripple-added for every target x."""
    planes = list(planes)
    while targets:
        low = targets & -targets
        targets ^= low
        carry = covers[low.bit_length() - 1]
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def min_cover_size(masks: list[int], n_targets: int, limit: int) -> int | None:
    """Minimum number of masks whose union covers all n_targets bits.

    The least p <= limit for which ``first_multiset_cover`` finds p picks,
    or None (which also covers a bit no mask covers): dropping a repeated
    index keeps a cover, so that p is the minimum set-cover size.  Masks
    are cut to the targets, deduplicated, and dropped when another mask
    contains them (a minimum cover can swap such a mask for its superset).
    p runs down from the cap, the least of limit, masks and targets (one
    pick of each is the most a minimum cover needs): a cover found at p
    has some number q <= p of distinct indices, so the search goes on at
    q - 1 and ends on the first p with no cover, or below the targets over
    the fattest popcount.
    """
    full = (1 << n_targets) - 1
    masks = list(dict.fromkeys(m & full for m in masks))
    masks = [m for m in masks if not any(m != o and not m & ~o for o in masks)]
    fattest = max(map(int.bit_count, masks), default=0)
    least = -(-n_targets // max(fattest, 1))
    best = None
    p = min(limit, len(masks), n_targets)
    while p >= least:
        cover = first_multiset_cover(masks, n_targets, p, 0)
        if cover is None:
            break
        best = len(set(cover))
        p = best - 1
    return best


def first_multiset_cover(
    masks: list[int], n_targets: int, n_picks: int, pinned: int
) -> tuple[int, ...] | None:
    """Lexicographically first multiset of n_picks mask indices whose union
    with ``pinned`` covers every target, or None.

    The order is that of ``itertools.combinations_with_replacement``:
    nondecreasing index tuples, compared left to right.  Bits at or past
    n_targets are ignored.  A depth-first search over nondecreasing
    indices, cut by hit counts and by coverability, finds the same
    multiset without walking the ones before it; see ``_lex_cover``.  The
    least n_picks with a cover is the minimum set-cover size.
    """
    if n_picks < 0:
        raise ValueError("need n_picks >= 0")
    return _lex_cover(masks, (1 << n_targets) - 1, pinned, n_picks, 0)


def _lex_cover(
    masks: list[int], full: int, acc: int, left: int, start: int, reach: list[int] | None = None
) -> tuple[int, ...] | None:
    """Lexicographically first nondecreasing tuple of ``left`` indices >= start
    whose masks cover full ∖ acc, or None.

    A tuple opening with index i is a run of i, as long as possible,
    followed by the fewest picks from i + 1 on that cover what i leaves:
    more copies of i come first in the order, and every cover of f picks
    can be padded to f + 1 by repeating its last index.  A pick adding no
    target is pure padding, and one that leaves nothing to cover is
    completed by its run alone.  The fewest picks f are found by trying f
    upwards, from the least count the best remaining masks could close to
    the least of picks left, masks left and targets left, beyond which a
    cover exists for every f or for none.  Each level of the search holds
    one distinct index of the tuple, so its depth is at most
    min(left, len(masks)), whatever the number of picks.

    Two cuts drop only indices no cover opens with, so the order holds.
    The hit cut: the uncovered targets outnumber the picks left times the
    most hits on them by any mask from i on.  The coverability cut:
    ``reach[i]``, built once by the root from its hit sets, is the root's
    uncovered targets that masks i onward hit; an uncovered target outside
    reach[i] ends the node, and an index whose leftover lies outside
    reach[i + 1] is skipped.  Both bounds only fall as i grows.
    """
    uncovered = full & ~acc
    if not uncovered:
        return (start,) * left if not left or start < len(masks) else None
    if not left:
        return None
    need = uncovered.bit_count()
    sets = [m & uncovered for m in masks[start:]]
    # most[j]: the most hits among masks start + j ..; the root folds reach the same way
    most = [*itertools.accumulate(map(int.bit_count, reversed(sets)), max)][::-1] + [0]
    if reach is None:
        reach = [0] * start + [*itertools.accumulate(reversed(sets), operator.or_)][::-1] + [0]
    for j, hit in enumerate(sets):
        i = start + j
        if need > left * most[j] or uncovered & ~reach[i]:
            return None  # nor any later index
        leaves = uncovered ^ hit
        if not leaves:
            return (i,) * left
        if leaves & ~reach[i + 1]:
            continue  # the masks after i miss a target that i leaves
        short = leaves.bit_count()
        rest = acc | masks[i]
        for fewest in range(-(-short // most[j + 1]), min(left - 1, len(masks) - 1 - i, short) + 1):
            tail = _lex_cover(masks, full, rest, fewest, i + 1, reach)
            if tail is not None:
                return (i,) * (left - fewest) + tail
    return None
