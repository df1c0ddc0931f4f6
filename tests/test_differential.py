"""Seeded differential test: decider, verifier and a plain scan agree.

On random small covers and list assignments three verdicts must match:
the decider's, the independent verifier's on the certificate that verdict
implies (and its rejection of the opposite claim), and a plain scan of
every U matrix, first row included, that asks ``brute_force_extension``
(covers) or a colour-space scan (lists) at each vertex.

The list decider's witnesses are pinned too: the a10 rows, and one digest
over the witnesses of a seeded batch of random assignments.

The colouring claims get the same treatment (a no_k_colouring verdict
against the cover decider or a plain colour-space scan), and one digest
pins every verifier output, refusal messages included, on a seeded batch
of all four claims with tampered witnesses.
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
from packlab.covers import CorrespondenceCover
from packlab.errors import MalformedInputError
from packlab.packing import PackingMatrix, brute_force_extension
from packlab.perms import compose
from packlab.search import (
    decide_correspondence_colouring,
    decide_correspondence_packing,
    decide_list_packing,
)
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


def plain_list_colouring(assignment):
    """A proper colouring (u_colours, v_colours) from a scan of the whole colour space, or None."""
    for u_col in itertools.product(*assignment.u_lists):
        for v_col in itertools.product(*assignment.v_lists):
            if set(u_col).isdisjoint(v_col):
                return u_col, v_col
    return None


def colouring_certificate(instance, u_col, v_col):
    witness = {"u_colours": list(u_col), "v_colours": list(v_col)}
    return make_certificate("colouring_witness", instance, witness, generator="differential")


def test_no_colouring_claims_agree_with_the_deciders():
    """no_k_colouring is accepted iff no colouring exists; the colouring the
    decider (covers) or a plain scan (lists) finds, and the one the
    verifier reports on rejection, each verify as a colouring_witness."""
    rng = random.Random(2026)
    verdicts = set()
    for n in range(300):
        is_cover, k = n % 2 == 1, rng.randint(1, 3)
        if is_cover:
            instance = random_cover(rng, rng.randint(1, 3), rng.randint(1, 5), k)
            found = decide_correspondence_colouring(instance)
        else:
            a, b = rng.randint(1, 4), rng.randint(1, 5)
            instance = random_assignment(rng, a, b, k, range(1, k + 2))
            found = plain_list_colouring(instance)
        claim = make_certificate("no_k_colouring", instance, None, generator="differential")
        result = verify_certificate(claim)
        assert result.accepted == (found is None), instance
        if found is not None:
            evidence = (result.evidence["u_colours"], result.evidence["v_colours"])
            for u_col, v_col in (found, evidence):
                assert verify_certificate(colouring_certificate(instance, u_col, v_col)), instance
        verdicts.add((is_cover, k >= 2, found is not None))
    assert {(c, True, f) for c in (False, True) for f in (False, True)} <= verdicts


def colour_sets(instance):
    """The colour set of every U vertex and of every V vertex."""
    if isinstance(instance, CorrespondenceCover):
        colours = tuple(range(1, instance.k + 1))
        return [colours] * instance.d, [colours] * instance.t
    return list(instance.u_lists), list(instance.v_lists)


def verdict(claim, instance, witness):
    """(accepted, reason, evidence), or ("malformed", message)."""
    try:
        result = verify_certificate(make_certificate(claim, instance, witness, generator="digest"))
    except MalformedInputError as exc:
        return ["malformed", str(exc)]
    return [result.accepted, result.reason, result.evidence]


def verdict_batch():
    """Every claim on seeded covers and assignments, witnesses tampered.

    Each packing or colouring witness (the decider's or a plain scan's
    when one exists, else a random one) is checked as found, with one
    colour moved out of its set, with a repeated colour in a row, with a
    row one colour short, with a vertex dropped, as a fresh random (mostly
    clashing) witness, and wrapped in a list instead of an object.
    """
    rng = random.Random(0x5EED)
    out = []
    for n in range(80):
        is_cover, k = n % 2 == 1, rng.randint(1, 3)
        d, t = rng.randint(1, 3), rng.randint(1, 4)
        if is_cover:
            instance = random_cover(rng, d, t, k)
            packing = decide_correspondence_packing(instance)
            colouring = decide_correspondence_colouring(instance)
            rows_dict = witness_dict_for_cover
        else:
            instance = random_assignment(rng, d, t, k, range(1, k + 3))
            packing = decide_list_packing(instance)
            colouring = plain_list_colouring(instance)
            rows_dict = witness_dict_for_lists
        u_sets, v_sets = colour_sets(instance)
        outside = max(max(s) for s in u_sets + v_sets) + 1
        for claim in ("no_k_packing", "no_k_colouring"):
            out.append(verdict(claim, instance, None))

        def random_rows():
            return [rng.sample(s, k) for s in u_sets], [rng.sample(s, k) for s in v_sets]

        u_rows, v_rows = random_rows() if packing is None else (packing.u_rows, packing.v_rows)
        u_rows, v_rows = [list(r) for r in u_rows], [list(r) for r in v_rows]
        moved = [r.copy() for r in u_rows]
        moved[-1][0] = outside
        repeated = [r.copy() for r in v_rows]
        repeated[0][-1] = repeated[0][0]
        short = [u_rows[0][:-1]] + u_rows[1:]
        for rows in ((u_rows, v_rows), (moved, v_rows), (u_rows, repeated), (short, v_rows),
                     (u_rows, v_rows[:-1]), (u_rows[:-1], v_rows), random_rows()):
            out.append(verdict("packing_witness", instance, rows_dict(*rows)))
        out.append(verdict("packing_witness", instance, [rows_dict(u_rows, v_rows)]))

        def random_colours():
            return [rng.choice(s) for s in u_sets], [rng.choice(s) for s in v_sets]

        u_col, v_col = random_colours() if colouring is None else map(list, colouring)
        for cols in ((u_col, v_col), ([outside] + u_col[1:], v_col), (u_col, v_col[:-1] + [outside]),
                     (u_col[:-1], v_col), random_colours()):
            witness = {"u_colours": cols[0], "v_colours": cols[1]}
            out.append(verdict("colouring_witness", instance, witness))
        out.append(verdict("colouring_witness", instance, [u_col, v_col]))
    return out


def test_verifier_outputs_pinned():
    """One digest over every verdict, reason, evidence and refusal message."""
    batch = verdict_batch()
    reasons = {v[1].split(":")[0] if v[0] == "malformed" else v[1] for v in batch}
    assert reasons == {
        None, "surviving packing found", "surviving colouring found", "clashing edge",
        "colour out of range", "colour not in list", "row is not an arrangement of the vertex list",
        "malformed witness", "witness must be an object", "witness dimensions do not match the instance",
    }
    assert len(batch) == 80 * 16
    digest = hashlib.sha256(json.dumps(batch).encode()).hexdigest()
    assert digest == "273b0198970bc98b1f8f08de8f6bad882631598fbdc9a0eecc38612b24764bbc"
