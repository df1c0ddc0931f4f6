import itertools
import random

import pytest

from packlab.covers import (
    CorrespondenceCover,
    ListAssignment,
    canonicalize,
    k22_unpackable_cover,
    make_assignment,
    standard_cover,
)
from packlab.errors import MalformedInputError
from packlab.perms import identity
from packlab.search import decide_correspondence_packing, decide_list_packing


def random_cover(rng, d, t, k):
    sigma = []
    for _ in range(d):
        row = []
        for _ in range(t):
            p = list(range(1, k + 1))
            rng.shuffle(p)
            row.append(tuple(p))
        sigma.append(tuple(row))
    return CorrespondenceCover(k=k, sigma=tuple(sigma))


def random_assignment(rng, a, b, k, universe):
    def lst():
        return tuple(sorted(rng.sample(universe, k)))

    return ListAssignment(
        k=k, u_lists=tuple(lst() for _ in range(a)), v_lists=tuple(lst() for _ in range(b))
    )


def list_packing_oracle(assignment):
    """Brute force in colour space, no symmetry reduction, no matching engine."""

    def v_extendable(u_rows, v_list):
        return any(
            all(all(c != row[s] for row in u_rows) for s, c in enumerate(arr))
            for arr in itertools.permutations(v_list)
        )

    for u_rows in itertools.product(
        *[itertools.permutations(lst) for lst in assignment.u_lists]
    ):
        if all(v_extendable(u_rows, lst) for lst in assignment.v_lists):
            return True
    return False


def completed_cover(assignment):
    """A cover whose matchings pair the shared colours of each edge's lists
    (positions in ascending colour order), completed lex-smallest.

    Completing adds constraints, so a packing of this cover is a list
    packing but not every list packing survives.
    """
    sigma = []
    for u_list in assignment.u_lists:
        row = []
        for v_list in assignment.v_lists:
            shared = {c: v_list.index(c) + 1 for c in u_list if c in v_list}
            free = iter(p for p in range(1, assignment.k + 1) if p not in shared.values())
            row.append(tuple(shared[c] if c in shared else next(free) for c in u_list))
        sigma.append(tuple(row))
    return CorrespondenceCover(k=assignment.k, sigma=tuple(sigma))


def test_standard_cover():
    cover = standard_cover(2, 2, 3)
    assert cover.d == cover.t == 2 and cover.k == 3
    assert all(p == identity(3) for row in cover.sigma for p in row)


def test_k22_cover_shape():
    cover = k22_unpackable_cover()
    ident = identity(3)
    assert cover.sigma[0][0] == cover.sigma[1][0] == cover.sigma[0][1] == ident
    assert cover.sigma[1][1] == (1, 3, 2)


def test_canonicalize_pins_first_row_and_column():
    rng = random.Random(6)
    for _ in range(50):
        cover = random_cover(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4))
        canon = canonicalize(cover)
        ident = identity(cover.k)
        assert all(canon.sigma[0][j] == ident for j in range(canon.t))
        assert all(canon.sigma[i][0] == ident for i in range(canon.d))
        assert canonicalize(canon) == canon  # idempotent


def test_canonicalize_preserves_packability():
    rng = random.Random(7)
    for _ in range(40):
        cover = random_cover(rng, 2, rng.randint(1, 3), 3)
        before = decide_correspondence_packing(cover) is not None
        after = decide_correspondence_packing(canonicalize(cover)) is not None
        assert before == after


def test_k22_cover_is_already_canonical():
    cover = k22_unpackable_cover()
    assert canonicalize(cover) == cover


def test_list_translation_identical_lists_gives_standard_cover():
    # lists {1..k} everywhere are the standard cover, and the two deciders
    # agree on it row for row
    assignment = make_assignment([[1, 2, 3]] * 2, [[1, 2, 3]] * 2)
    assert completed_cover(assignment) == standard_cover(2, 2, 3)
    assert decide_list_packing(assignment) == decide_correspondence_packing(
        standard_cover(2, 2, 3)
    )


def test_disjoint_lists_always_packable():
    assignment = make_assignment(
        [[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, 12], [13, 14, 15]]
    )
    assert decide_list_packing(assignment) is not None


def test_exact_translation_agrees_with_colour_space_oracle():
    rng = random.Random(8)
    for _ in range(150):
        a, b = rng.randint(1, 2), rng.randint(1, 3)
        assignment = random_assignment(rng, a, b, 3, range(1, 7))
        assert (decide_list_packing(assignment) is not None) == list_packing_oracle(assignment)


def test_completed_translation_is_sound_but_lossy():
    """Completing the matchings may flip a packable instance (it adds
    constraints), so the completed decision only implies the list decision
    in a single direction."""
    rng = random.Random(9)
    for _ in range(150):
        a, b = rng.randint(1, 2), rng.randint(1, 3)
        assignment = random_assignment(rng, a, b, 3, range(1, 7))
        if decide_correspondence_packing(completed_cover(assignment)) is not None:
            assert decide_list_packing(assignment) is not None
    # U lists {1,2,3},{1,2,4}; V lists {5,6,7},{1,3,4}: list-packable, the
    # completed cover is not
    asg = make_assignment([[1, 2, 3], [1, 2, 4]], [[5, 6, 7], [1, 3, 4]])
    assert decide_list_packing(asg) is not None
    assert decide_correspondence_packing(completed_cover(asg)) is None


def test_cover_json_round_trip():
    cover = k22_unpackable_cover()
    data = cover.to_json_dict()
    assert CorrespondenceCover.from_json_dict(data) == cover
    assert data["sigma"][1][1] == "(1,3,2)"
    with pytest.raises(MalformedInputError):
        CorrespondenceCover.from_json_dict({**data, "d": 5})


def test_assignment_json_round_trip():
    assignment = make_assignment([[3, 1, 2]], [[4, 5, 6], [1, 2, 9]])
    data = assignment.to_json_dict()
    assert data["u_lists"] == [[1, 2, 3]]
    assert ListAssignment.from_json_dict(data) == assignment
    with pytest.raises(MalformedInputError):
        ListAssignment.from_json_dict({**data, "a": 7})


def test_assignment_validation():
    with pytest.raises(ValueError):
        ListAssignment(k=3, u_lists=((1, 2),), v_lists=((1, 2, 3),))
    with pytest.raises(ValueError):
        ListAssignment(k=2, u_lists=((2, 2),), v_lists=((1, 2),))
