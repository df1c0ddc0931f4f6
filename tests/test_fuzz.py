"""Hypothesis fuzzing of the JSON loaders and the verifier.

Whatever the input, parsing and verifying may only end in a verdict,
MalformedInputError or ResourceLimitError; any other exception is a bug.
Inputs are arbitrary JSON documents and single-point mutations of valid
certificates, which get past the top-level checks and reach the instance
parsers, the witness parsers and the exhaustive scans.
"""

import json

import pytest

from packlab.cases import a10_assignment, k39_assignment
from packlab.certificates import (
    Certificate,
    load_instance,
    make_certificate,
    verify_certificate,
    witness_dict_for_cover,
    witness_dict_for_lists,
)
from packlab.covers import k22_unpackable_cover, make_assignment, standard_cover
from packlab.errors import MalformedInputError, ResourceLimitError
from packlab.search import decide_list_packing, find_uncolourable_cover

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=12)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(["(1,2,3)", "(2,1)", "(1,2,3,4)", "(3,1,2)"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


def _base_certificates() -> list[dict]:
    witness = decide_list_packing(a10_assignment())
    certs = [
        make_certificate("no_k_packing", k22_unpackable_cover(), None, generator="fuzz"),
        make_certificate("no_k_packing", k39_assignment(), None, generator="fuzz"),
        make_certificate(
            "no_k_colouring", find_uncolourable_cover(2, 2, 2), None, generator="fuzz"
        ),
        make_certificate(
            "packing_witness",
            standard_cover(2, 2, 3),
            witness_dict_for_cover(((1, 2, 3), (1, 2, 3)), ((2, 3, 1), (2, 3, 1))),
            generator="fuzz",
        ),
        make_certificate(
            "packing_witness",
            a10_assignment(),
            witness_dict_for_lists(witness.u_rows, witness.v_rows),
            generator="fuzz",
        ),
        make_certificate(
            "colouring_witness",
            standard_cover(2, 2, 2),
            {"u_colours": [1, 1], "v_colours": [2, 2]},
            generator="fuzz",
        ),
        make_certificate(
            "colouring_witness",
            make_assignment([[1, 2], [1, 3]], [[2, 3]]),
            {"u_colours": [1, 1], "v_colours": [2]},
            generator="fuzz",
        ),
    ]
    return [cert.to_json_dict() for cert in certs]


BASES = _base_certificates()


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_certificates(draw) -> str:
    """A valid certificate with one value removed, replaced by any JSON
    value, or replaced by a look-alike of another type."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    old = parent[key]
    action = draw(st.sampled_from(["delete", "replace", "retype"]))
    if action == "delete":
        del parent[key]
    elif action == "replace":
        parent[key] = draw(JSON_VALUES)
    else:
        look_alikes = [[old], {"value": old}, str(old), True, 2.5, float("inf"), 10**30]
        parent[key] = draw(st.sampled_from(look_alikes))
    return json.dumps(doc)


def _parse_and_verify(text: str) -> None:
    try:
        verify_certificate(Certificate.from_json(text))
    except (MalformedInputError, ResourceLimitError):
        pass


@FUZZ
@given(st.text(max_size=40) | JSON_VALUES.map(json.dumps))
def test_fuzz_arbitrary_certificate_text(text):
    _parse_and_verify(text)


@FUZZ
@given(mutated_certificates())
def test_fuzz_mutated_certificates(text):
    _parse_and_verify(text)


@FUZZ
@given(mutated_certificates())
def test_fuzz_load_instance(tmp_path, text):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(json.loads(text).get("instance")))
    try:
        load_instance(str(path))
    except MalformedInputError:
        pass
