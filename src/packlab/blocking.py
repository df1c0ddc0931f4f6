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

import heapq
import itertools
import math
import random
import time

from .covers import CorrespondenceCover
from .errors import check_work
from .packing import admissible_masks, has_perfect_matching
from .perms import Perm, compose, identity, inverse


def column_space(d: int, k: int) -> list[tuple[Perm, ...]]:
    """The (k!)^(d-1) canonical columns (identity, s_2, ..., s_d), in product order."""
    perms = itertools.permutations(range(1, k + 1))
    return [(identity(k),) + rest for rest in itertools.product(perms, repeat=d - 1)]


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


def _check_mask_words(n_masks: int, n_targets: int, what: str) -> None:
    """Charge the machine words that one pass over the masks touches."""
    check_work(n_masks * -(-n_targets // 64), what)


def packing_masks(d: int, k: int) -> list[int]:
    """Blocked-matrix masks of the canonical columns.

    Candidates are the U matrices (identity, m_2, ..., m_d), indexed like
    the columns; column c blocks m iff the transported matrix
    (identity, c_2·m_2, ..., c_d·m_d) is unextendable, so masks[0] is the
    unextendable set F itself.  The (k!)^(d-1) masks of (k!)^(d-1) bits
    each are charged to the work limit before any is built.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    size = math.factorial(k) ** (d - 1)
    _check_mask_words(size, size, "packing masks")
    # the candidate matrices are the canonical columns themselves
    members = [not has_perfect_matching(admissible_masks(m, k)) for m in column_space(d, k)]
    perms = list(itertools.permutations(range(1, k + 1)))
    index_of = {p: i for i, p in enumerate(perms)}
    inv = [[index_of[compose(inverse(a), b)] for b in perms] for a in perms]
    return _translate_masks([inv] * (d - 1), members)


def colouring_masks(d: int, k: int) -> list[int]:
    """Blocked-colouring masks of the canonical columns.

    Candidates are the k^d U colourings (a_1, ..., a_d), coded in base k in
    product order; a column blocks a colouring iff the transported colours
    exhaust {1..k}.  The masks are charged to the work limit like the
    packing masks.
    """
    _check_mask_words(math.factorial(k) ** (d - 1), k**d, "colouring masks")
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
    targets before the first pick and after each one.

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


def hill_climb_cover(
    masks: list[int],
    n_targets: int,
    n_picks: int,
    seed: int,
    max_evals: int | None,
    max_seconds: float | None,
) -> list[int] | None:
    """n_picks mask indices covering every target, found by seeded hill-climbing.

    Objective: the number of uncovered targets.  Round-robin over the
    picks, each is replaced by the best alternative (fewest uncovered,
    then smallest index) when that improves on it; a round without
    improvement restarts from a fresh seeded state.  With U the targets
    the other picks leave uncovered, mask m leaves |U ∖ m| = |U| − |U ∩ m|
    uncovered, so the best alternative is the first index with the most
    hits |U ∩ m|.  Every replacement scan costs len(masks) evaluations;
    None once the evaluation budget would be exceeded or, checked before
    each scan, the time limit has passed.  Without a time limit the
    outcome is a function of the inputs alone.
    """
    if n_picks < 1:
        raise ValueError("need n_picks >= 1")  # no scan would ever check a limit
    if n_picks * max(m.bit_count() for m in masks) < n_targets:
        return None  # even the fattest picks leave a target uncovered
    full = (1 << n_targets) - 1
    nc = len(masks)
    rng = random.Random(seed)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    evaluations = 0
    while True:
        state = [rng.randrange(nc) for _ in range(n_picks)]
        while True:
            improved = False
            for v in range(n_picks):
                if deadline is not None and time.monotonic() > deadline:
                    return None
                base = 0
                for w, c in enumerate(state):
                    if w != v:
                        base |= masks[c]
                evaluations += nc
                if max_evals is not None and evaluations > max_evals:
                    return None
                uncovered = full & ~base
                hits = [(uncovered & m).bit_count() for m in masks]
                most = max(hits)
                if most > hits[state[v]]:
                    state[v] = hits.index(most)
                    improved = True
            covered = 0
            for c in state:
                covered |= masks[c]
            if covered == full:
                return state
            if not improved:
                break  # local minimum: restart


def min_cover_size(masks: list[int], n_targets: int, limit: int) -> int | None:
    """Minimum number of masks whose union covers all n_targets bits.

    Exact branch and bound: dominated masks are dropped, branching happens
    on the uncovered bit with the fewest useful covering masks, and a node
    is cut when even the fattest remaining picks cannot close the deficit.
    Returns the minimum if it is <= limit, else None (which also covers the
    case where some bit is covered by no mask at all).
    """
    full = (1 << n_targets) - 1
    ordered = sorted(set(masks), key=lambda m: -m.bit_count())
    maximal: list[int] = []
    for m in ordered:
        if not any(m | o == o for o in maximal):
            maximal.append(m)
    union_all = 0
    for m in maximal:
        union_all |= m
    if union_all != full:
        return None
    pop_prefix = [0]
    for m in maximal:
        pop_prefix.append(pop_prefix[-1] + m.bit_count())
    best: int | None = None

    def dfs(acc: int, picks: int) -> None:
        nonlocal best
        if acc == full:
            if best is None or picks < best:
                best = picks
            return
        bound = best - 1 if best is not None else limit
        left = bound - picks
        if left <= 0:
            return
        uncovered = full & ~acc
        if uncovered.bit_count() > pop_prefix[min(left, len(maximal))]:
            return
        # branch on the first uncovered bit with the fewest useful covers
        branch = maximal
        u = uncovered
        while u and len(branch) > 1:
            bit = u & -u
            u ^= bit
            covers = [m for m in maximal if m & bit]
            if len(covers) < len(branch):
                branch = covers
        for m in sorted(branch, key=lambda m: -(m & uncovered).bit_count()):
            dfs(acc | m, picks + 1)

    dfs(0, 0)
    return best


def first_multiset_cover(
    masks: list[int], n_targets: int, n_picks: int, pinned: int
) -> tuple[int, ...] | None:
    """Lexicographically first multiset of n_picks mask indices whose union
    with ``pinned`` covers every target, or None."""
    full = (1 << n_targets) - 1
    for picks in itertools.combinations_with_replacement(range(len(masks)), n_picks):
        acc = pinned
        for c in picks:
            acc |= masks[c]
        if acc == full:
            return picks
    return None
