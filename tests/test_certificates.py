import json
import re

import pytest

from packlab.cases import a10_assignment, k39_assignment
from packlab.certificates import (
    Certificate,
    Metadata,
    load_instance,
    make_certificate,
    parse_instance,
    verify_certificate,
    witness_dict_for_cover,
    witness_dict_for_lists,
)
from packlab.covers import k22_unpackable_cover, standard_cover
from packlab.errors import MalformedInputError, ResourceLimitError
from packlab.search import (
    decide_correspondence_packing,
    decide_list_packing,
    find_uncolourable_cover,
    greedy_unpackable_cover,
)


def k22_certificate():
    return make_certificate(
        "no_k_packing", k22_unpackable_cover(), None, generator="fixture"
    )


def test_round_trip_is_byte_exact():
    cert = k22_certificate()
    text = cert.to_canonical_json()
    again = Certificate.from_json(text)
    assert again == cert
    assert again.to_canonical_json() == text


def test_witness_presence_rule():
    with pytest.raises(MalformedInputError):
        make_certificate("no_k_packing", k22_unpackable_cover(), {"u_rows": []}, generator="x")
    with pytest.raises(MalformedInputError):
        make_certificate("packing_witness", k22_unpackable_cover(), None, generator="x")


def test_instance_must_be_a_cover_or_an_assignment():
    # verifying such a certificate used to end in an AttributeError
    for instance in (None, "cover", {"kind": "correspondence_cover"}):
        with pytest.raises(MalformedInputError, match="^instance must be a correspondence cover"):
            make_certificate("no_k_packing", instance, None, generator="g")


def test_verify_k22_no_packing():
    assert verify_certificate(k22_certificate()).accepted


def test_verify_rejects_packable_cover_claim():
    cert = make_certificate(
        "no_k_packing", standard_cover(2, 2, 3), None, generator="fixture"
    )
    result = verify_certificate(cert)
    assert not result.accepted
    assert result.reason == "surviving packing found"
    assert result.evidence == {
        "u_rows": ["(1,2,3)", "(1,2,3)"],
        "v_rows": ["(2,3,1)", "(2,3,1)"],
    }


def test_verify_rejects_packable_list_claim():
    cert = make_certificate("no_k_packing", a10_assignment(), None, generator="fixture")
    result = verify_certificate(cert)
    assert not result.accepted
    assert result.reason == "surviving packing found"
    assert result.evidence == {
        "u_rows": [[1, 2, 3], [4, 1, 5], [6, 7, 1]],
        "v_rows": [[2, 4, 6], [2, 4, 7], [2, 5, 6], [2, 5, 7],
                   [3, 4, 6], [3, 4, 7], [3, 5, 6], [3, 5, 7]],
    }


def test_verify_packing_witness():
    cover = standard_cover(2, 2, 3)
    witness = decide_correspondence_packing(cover)
    cert = make_certificate(
        "packing_witness",
        cover,
        witness_dict_for_cover(witness.u_rows, witness.v_rows),
        generator="decide",
    )
    assert verify_certificate(cert).accepted

    broken = make_certificate(
        "packing_witness",
        cover,
        witness_dict_for_cover(witness.u_rows, witness.u_rows),
        generator="decide",
    )
    result = verify_certificate(broken)
    assert not result.accepted and result.reason == "clashing edge"


def test_verify_list_certificates():
    k39 = k39_assignment()
    assert verify_certificate(
        make_certificate("no_k_packing", k39, None, generator="fixture")
    ).accepted

    a10 = a10_assignment()
    witness = decide_list_packing(a10)
    cert = make_certificate(
        "packing_witness",
        a10,
        witness_dict_for_lists(witness.u_rows, witness.v_rows),
        generator="decide",
    )
    assert verify_certificate(cert).accepted
    # claiming unpackability of a packable instance must be refuted
    refuted = verify_certificate(
        make_certificate("no_k_packing", a10, None, generator="fixture")
    )
    assert not refuted.accepted


def test_verify_no_colouring():
    bad = find_uncolourable_cover(3, 6, 3)
    cert = make_certificate("no_k_colouring", bad, None, generator="search")
    assert verify_certificate(cert).accepted
    good = make_certificate("no_k_colouring", standard_cover(2, 2, 3), None, generator="x")
    assert not verify_certificate(good).accepted


def test_verify_colouring_witness():
    cover = standard_cover(2, 3, 2)
    cert = make_certificate(
        "colouring_witness",
        cover,
        {"u_colours": [1, 1], "v_colours": [2, 2, 2]},
        generator="manual",
    )
    assert verify_certificate(cert).accepted
    clash = make_certificate(
        "colouring_witness",
        cover,
        {"u_colours": [1, 1], "v_colours": [1, 2, 2]},
        generator="manual",
    )
    assert not verify_certificate(clash).accepted


@pytest.mark.parametrize("claim", ["packing_witness", "colouring_witness"])
@pytest.mark.parametrize("witness", [[], "rows", 3])
def test_witness_must_be_an_object_for_every_witness_claim(claim, witness):
    for instance in (standard_cover(2, 2, 3), a10_assignment()):
        cert = make_certificate(claim, instance, witness, generator="manual")
        with pytest.raises(MalformedInputError, match="^witness must be an object$"):
            verify_certificate(cert)


def test_verifier_size_refusal():
    # (3!)^4 * 2 steps: admitted, and the standard cover packs
    cover = standard_cover(5, 2, 3)
    cert = make_certificate("no_k_packing", cover, None, generator="fixture")
    assert verify_certificate(cert).reason == "surviving packing found"
    # (7!)^3 candidates: refused before any scan
    cert = make_certificate("no_k_packing", standard_cover(4, 2, 7), None, generator="fixture")
    with pytest.raises(ResourceLimitError):
        verify_certificate(cert)


def test_greedy_certificate_round_trip_and_verify():
    cover, _ = greedy_unpackable_cover(3, 4)
    cert = make_certificate("no_k_packing", cover, None, generator="greedy")
    text = cert.to_canonical_json()
    assert Certificate.from_json(text).to_canonical_json() == text
    assert verify_certificate(Certificate.from_json(text)).accepted


def test_mutation_suite_detects_single_entry_tampering():
    """Changing any single integer inside an accepted certificate must be
    detected: either the mutant fails validation or its verdict changes."""
    cert = k22_certificate()
    base = json.loads(cert.to_canonical_json())
    assert verify_certificate(Certificate.from_json_dict(base)).accepted

    mutants = 0
    detected = 0

    def run_mutant(data):
        nonlocal mutants, detected
        mutants += 1
        try:
            mutant = Certificate.from_json_dict(data)
        except MalformedInputError:
            detected += 1
            return
        if not verify_certificate(mutant).accepted:
            detected += 1

    # every integer inside every serialized permutation
    for i in range(2):
        for j in range(2):
            perm = base["instance"]["sigma"][i][j]
            values = perm.strip("()").split(",")
            for pos in range(3):
                for replacement in "123":
                    if replacement == values[pos]:
                        continue
                    mutated = values.copy()
                    mutated[pos] = replacement
                    data = json.loads(json.dumps(base))
                    data["instance"]["sigma"][i][j] = "(" + ",".join(mutated) + ")"
                    run_mutant(data)
    # the declared dimensions
    for field in ("d", "t", "k"):
        for delta in (-1, 1):
            data = json.loads(json.dumps(base))
            data["instance"][field] += delta
            run_mutant(data)

    assert mutants == 30
    assert detected / mutants >= 0.99


def test_parse_instance_rejects_unknown_kinds():
    with pytest.raises(MalformedInputError):
        parse_instance({"kind": "mystery"})
    with pytest.raises(MalformedInputError):
        Certificate.from_json("{not json")


def test_malformed_json_message_names_its_source(tmp_path):
    with pytest.raises(MalformedInputError, match=r"^invalid JSON: Expecting property name"):
        Certificate.from_json("{not json")
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedInputError, match=rf"^invalid JSON in {re.escape(str(path))}: "):
        load_instance(str(path))


def test_metadata_round_trips_every_field():
    cert = make_certificate(
        "no_k_packing", k22_unpackable_cover(), None, "probe", 7, {"max_candidates": 5}, "T"
    )
    data = cert.to_json_dict()
    assert list(data["metadata"]) == ["generator", "seed", "budget", "timestamp", "tool_version"]
    data["metadata"]["tool_version"] = "0.0"
    again = Certificate.from_json_dict(data)
    assert again.metadata.tool_version == "0.0"
    assert again.metadata.budget == {"max_candidates": 5} and again.metadata.seed == 7
    del data["metadata"]["tool_version"], data["metadata"]["seed"]
    defaults = Metadata(generator="probe", budget={"max_candidates": 5}, timestamp="T")
    assert Certificate.from_json_dict(data).metadata == defaults


def test_generated_certificates_always_verify():
    """Round-trip property over the generators: whatever decide, greedy or
    the randomized hunt produce, the independent verifier accepts."""
    import random

    from packlab.search import SearchBudget, random_unpackable_cover_search
    from test_covers import random_cover

    rng = random.Random(41)
    for _ in range(25):
        cover = random_cover(rng, 2, rng.randint(1, 2), 3)
        witness = decide_correspondence_packing(cover)
        if witness is None:
            cert = make_certificate("no_k_packing", cover, None, generator="decide")
        else:
            cert = make_certificate(
                "packing_witness",
                cover,
                witness_dict_for_cover(witness.u_rows, witness.v_rows),
                generator="decide",
            )
        cert = Certificate.from_json(cert.to_canonical_json())
        assert verify_certificate(cert).accepted

    for seed in range(3):
        found = random_unpackable_cover_search(
            2, 3, 2, SearchBudget(max_candidates=100_000, seed=seed)
        )
        assert found is not None
        cert = make_certificate("no_k_packing", found, None, generator="hunt", seed=seed)
        assert verify_certificate(Certificate.from_json(cert.to_canonical_json())).accepted
