"""Seeded differential test: decider, verifier and a plain scan agree.

On random small covers and list assignments three verdicts must match:
the decider's, the independent verifier's on the certificate that verdict
implies (and its rejection of the opposite claim), and a plain scan of
every U matrix, first row included, that asks ``brute_force_extension``
(covers) or a colour-space scan (lists) at each vertex.

The list decider's witnesses are pinned too: the a10 rows, and one digest
over the witnesses of a seeded batch of random assignments.
"""

import hashlib
import itertools
import json
import random

from packlab.cases import a10_assignment
from packlab.certificates import (
    make_certificate,
    verify_certificate,
    witness_dict_for_cover,
    witness_dict_for_lists,
)
from packlab.packing import PackingMatrix, brute_force_extension
from packlab.perms import compose
from packlab.search import decide_correspondence_packing, decide_list_packing
from test_covers import list_packing_oracle, random_assignment, random_cover


def plain_cover_packable(cover) -> bool:
    perms = list(itertools.permutations(range(1, cover.k + 1)))
    for rows in itertools.product(perms, repeat=cover.d):
        if all(
            brute_force_extension(
                PackingMatrix(
                    k=cover.k,
                    rows=tuple(compose(cover.sigma[i][j], rows[i]) for i in range(cover.d)),
                )
            )
            is not None
            for j in range(cover.t)
        ):
            return True
    return False


def verifier_verdicts(instance, witness, witness_dict) -> tuple[bool, bool]:
    """(is the decider's claim accepted, is the no_k_packing claim accepted)."""
    no_packing = make_certificate("no_k_packing", instance, None, generator="differential")
    if witness is None:
        claim = no_packing
    else:
        claim = make_certificate(
            "packing_witness",
            instance,
            witness_dict(witness.u_rows, witness.v_rows),
            generator="differential",
        )
    return verify_certificate(claim).accepted, verify_certificate(no_packing).accepted


def test_covers_decider_verifier_and_plain_scan_agree():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(150):
        d, t, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
        cover = random_cover(rng, d, t, k)
        witness = decide_correspondence_packing(cover)
        packable = plain_cover_packable(cover)
        claim_ok, no_packing_ok = verifier_verdicts(cover, witness, witness_dict_for_cover)
        assert (witness is not None) == packable, cover
        assert claim_ok and no_packing_ok == (not packable), cover
        verdicts.add((k >= 2, packable))
    assert {(True, True), (True, False)} <= verdicts


def test_lists_decider_verifier_and_plain_scan_agree():
    rng = random.Random(2025)
    verdicts = set()
    for _ in range(150):
        a, b, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        assignment = random_assignment(rng, a, b, k, range(1, k + 3))
        witness = decide_list_packing(assignment)
        packable = list_packing_oracle(assignment)
        claim_ok, no_packing_ok = verifier_verdicts(assignment, witness, witness_dict_for_lists)
        assert (witness is not None) == packable, assignment
        assert claim_ok and no_packing_ok == (not packable), assignment
        verdicts.add((k >= 2, packable))
    assert {(True, True), (True, False)} <= verdicts


def test_a10_list_witness_pinned():
    witness = decide_list_packing(a10_assignment())
    assert witness.u_rows == ((1, 2, 3), (4, 1, 5), (6, 7, 1))
    assert witness.v_rows == (
        (2, 4, 6), (2, 4, 7), (2, 5, 6), (2, 5, 7),
        (3, 4, 6), (3, 4, 7), (3, 5, 6), (3, 5, 7),
    )


def test_list_witnesses_pinned():
    rng = random.Random(0x11575)
    dicts = []
    for _ in range(500):
        a, b, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
        witness = decide_list_packing(random_assignment(rng, a, b, k, range(1, k + 3)))
        dicts.append(
            None if witness is None else witness_dict_for_lists(witness.u_rows, witness.v_rows)
        )
    assert sum(w is not None for w in dicts) == 381
    digest = hashlib.sha256(json.dumps(dicts).encode()).hexdigest()
    assert digest == "37489501ef4039aa7aa533956df67afa4540649ec7d688c939ea5360ffec118f"
