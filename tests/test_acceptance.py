"""Acceptance suite: every reproduction criterion, each printing its report lines.

The criteria are defined once, in ``packlab.reproduction``; this file runs the
same ``CRITERIA`` and ``LONG_CRITERIA`` tuples that ``packlab reproduce`` runs,
plus three checks stronger than their report items.  Run with
``pytest tests/test_acceptance.py -v -s``; the long items need ``--run-long``.
"""

import hashlib
import json
import random

import pytest

from packlab import reproduction
from packlab.packing import PackingMatrix, is_forbidden
from packlab.perms import compose


def conclude(items) -> None:
    for item in items:
        for line in reproduction.item_lines(item):
            print(line)
    failed = [item.item_id for item in items if not item.ok]
    assert not failed, f"failed: {failed}"


@pytest.mark.parametrize("criterion", reproduction.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    conclude(criterion())


# L2 (chi_c(K_{4,4}) = 3) is red on purpose: see the docstring of reproduction.l2
@pytest.mark.long
@pytest.mark.parametrize("criterion", reproduction.LONG_CRITERIA, ids=lambda c: c.__name__)
def test_long_criterion(criterion):
    conclude(criterion())


# the 36 base-case pairs (u1 vector, u2 vector), split by the vertex where
# extension fails: the all-identity vertex blocks the mixed-parity pairs,
# the vertex whose second matching swaps colours 2 and 3 blocks the rest
BLOCKED_AT_V1 = {
    ((1, 2, 3), (2, 1, 3)), ((1, 2, 3), (1, 3, 2)), ((1, 2, 3), (3, 2, 1)),
    ((2, 3, 1), (2, 1, 3)), ((2, 3, 1), (1, 3, 2)), ((2, 3, 1), (3, 2, 1)),
    ((3, 1, 2), (2, 1, 3)), ((3, 1, 2), (1, 3, 2)), ((3, 1, 2), (3, 2, 1)),
    ((2, 1, 3), (1, 2, 3)), ((2, 1, 3), (2, 3, 1)), ((2, 1, 3), (3, 1, 2)),
    ((1, 3, 2), (1, 2, 3)), ((1, 3, 2), (2, 3, 1)), ((1, 3, 2), (3, 1, 2)),
    ((3, 2, 1), (1, 2, 3)), ((3, 2, 1), (2, 3, 1)), ((3, 2, 1), (3, 1, 2)),
}
BLOCKED_AT_V2 = {
    ((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (3, 1, 2)),
    ((2, 3, 1), (1, 2, 3)), ((2, 3, 1), (2, 3, 1)), ((2, 3, 1), (3, 1, 2)),
    ((3, 1, 2), (1, 2, 3)), ((3, 1, 2), (2, 3, 1)), ((3, 1, 2), (3, 1, 2)),
    ((2, 1, 3), (2, 1, 3)), ((2, 1, 3), (1, 3, 2)), ((2, 1, 3), (3, 2, 1)),
    ((1, 3, 2), (2, 1, 3)), ((1, 3, 2), (1, 3, 2)), ((1, 3, 2), (3, 2, 1)),
    ((3, 2, 1), (2, 1, 3)), ((3, 2, 1), (1, 3, 2)), ((3, 2, 1), (3, 2, 1)),
}


def test_c02_base_case_partition():
    assert reproduction.base_pair_split() == (BLOCKED_AT_V1, BLOCKED_AT_V2)


def test_c13a_matching_vs_brute_force_100k():
    assert reproduction.engine_disagreements(random.Random(0xC13A), 100_000) == 0


def test_c13b_symmetry_invariance_10k():
    rng = random.Random(0xC13B)
    failures = 0
    for _ in range(10_000):
        d = rng.randint(2, 3)
        k = rng.randint(3, 5)
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        m = PackingMatrix(k=k, rows=tuple(rows))
        base = is_forbidden(m)
        relabel = list(range(1, k + 1))
        rng.shuffle(relabel)
        relabel = tuple(relabel)
        mode = rng.randrange(3)
        if mode == 0:
            shuffled = list(m.rows)
            rng.shuffle(shuffled)
            other = PackingMatrix(k=k, rows=tuple(shuffled))
        elif mode == 1:
            other = PackingMatrix(k=k, rows=tuple(compose(relabel, r) for r in m.rows))
        else:
            other = PackingMatrix(k=k, rows=tuple(compose(r, relabel) for r in m.rows))
        if is_forbidden(other) != base:
            failures += 1
    assert failures == 0, f"forbiddenness changed under {failures} of 10000 symmetries"


def test_report_bytes_pinned():
    # SHA-256 of the short report as `packlab reproduce` prints it, in both
    # formats; the structured form carries the tool version
    lines = []
    report = reproduction.run_reproduction(emit=lines.append)
    structured = json.dumps(report.to_json_dict(), indent=2) + "\n"
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(structured.encode()).hexdigest() == (
        "a93c41f18b490a01b2d17f8afff32dbcd8b3ffc2553729676d93d376732e46c2"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3216180cdaacde6a812322135806826dfb4f116bfa82e7827ba449d853b95494"
    )
