"""Covers of complete bipartite graphs K_{d,t} and list-assignments.

A correspondence cover stores one permutation sigma[i][j] of {1..k} per edge
(u_i, v_j): the matching between the k colours of u_i and the k colours of
v_j.  A k-fold packing is a choice of colour vectors (permutations of
{1..k}) for every vertex such that, across each edge, the transported vector
sigma[i][j] . c(u_i) and c(v_j) disagree in every position.

List-assignments give each vertex an arbitrary k-set of colours; a packing
arranges every list so that across each edge no colour sits at the same
position twice.  List instances are decided and verified on their own
colours, never through a cover.

Both reach ``packing.admissible_masks`` as colour tables: at v_j colour c
of u_i blocks sigma[i][j](c) in a cover, its place in v_j's list in a list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInputError
from .perms import Perm, compose, identity, inverse, is_permutation, perm_from_str, perm_to_str


@dataclass(frozen=True)
class CorrespondenceCover:
    """k-fold cover of K_{d,t}: sigma[i][j] matches L(u_i) with L(v_j)."""

    k: int
    sigma: tuple[tuple[Perm, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or not self.sigma or not self.sigma[0]:
            raise ValueError("need k >= 1, d >= 1 and t >= 1")
        t = len(self.sigma[0])
        for row in self.sigma:
            if len(row) != t:
                raise ValueError("ragged sigma array")
            for p in row:
                if len(p) != self.k or not is_permutation(p):
                    raise ValueError(f"entry {p!r} is not a permutation of {{1..{self.k}}}")

    @property
    def d(self) -> int:
        return len(self.sigma)

    @property
    def t(self) -> int:
        return len(self.sigma[0])

    def column(self, j: int) -> tuple[Perm, ...]:
        """The d matchings at vertex v_j (0-based j)."""
        return tuple(self.sigma[i][j] for i in range(self.d))

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "correspondence_cover",
            "d": self.d,
            "t": self.t,
            "k": self.k,
            "sigma": [[perm_to_str(p) for p in row] for row in self.sigma],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrespondenceCover":
        try:
            if data.get("version") != 1 or data.get("kind") != "correspondence_cover":
                raise MalformedInputError(f"not a version-1 cover object: {data.get('kind')!r}")
            sigma = tuple(tuple(perm_from_str(s) for s in row) for row in data["sigma"])
            cover = cls(k=_json_int(data, "k"), sigma=sigma)
            if cover.d != _json_int(data, "d") or cover.t != _json_int(data, "t"):
                raise ValueError("cover dimensions disagree with sigma array")
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"malformed cover: {exc}") from exc
        return cover


@dataclass(frozen=True)
class ListAssignment:
    """Colour lists for K_{a,b}: a lists on the U side, b on the V side."""

    k: int
    u_lists: tuple[tuple[int, ...], ...]
    v_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or not self.u_lists or not self.v_lists:
            raise ValueError("need k >= 1 and nonempty sides")
        for lst in self.u_lists + self.v_lists:
            if len(lst) != self.k:
                raise ValueError(f"list {lst!r} has size {len(lst)}, expected k={self.k}")
            if len(set(lst)) != len(lst) or any(c < 1 for c in lst):
                raise ValueError(f"list {lst!r} must be a set of positive integers")
            if tuple(sorted(lst)) != lst:
                raise ValueError(f"list {lst!r} must be sorted ascending")

    @property
    def a(self) -> int:
        return len(self.u_lists)

    @property
    def b(self) -> int:
        return len(self.v_lists)

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "list_assignment",
            "a": self.a,
            "b": self.b,
            "k": self.k,
            "u_lists": [list(lst) for lst in self.u_lists],
            "v_lists": [list(lst) for lst in self.v_lists],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ListAssignment":
        try:
            if data.get("version") != 1 or data.get("kind") != "list_assignment":
                raise MalformedInputError(f"not a version-1 assignment object: {data.get('kind')!r}")
            obj = cls(
                k=_json_int(data, "k"),
                u_lists=tuple(tuple(sorted(int_array(lst))) for lst in data["u_lists"]),
                v_lists=tuple(tuple(sorted(int_array(lst))) for lst in data["v_lists"]),
            )
            if obj.a != _json_int(data, "a") or obj.b != _json_int(data, "b"):
                raise ValueError("assignment sizes disagree with the lists")
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"malformed assignment: {exc}") from exc
        return obj


def _json_int(data: dict, key: str) -> int:
    """data[key] when it is a JSON integer; a missing key, floats, strings
    and booleans are refused."""
    value = data.get(key)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def int_array(values) -> tuple[int, ...]:
    """A JSON array of integers as a tuple; anything else is a ValueError."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"expected an array of integers, got {values!r}")
    return tuple(values)


def make_assignment(u_lists, v_lists) -> ListAssignment:
    """Build a ListAssignment from any iterables of colour sets."""
    u = tuple(tuple(sorted(lst)) for lst in u_lists)
    v = tuple(tuple(sorted(lst)) for lst in v_lists)
    if not u:
        raise ValueError("empty U side")
    return ListAssignment(k=len(u[0]), u_lists=u, v_lists=v)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def standard_cover(d: int, t: int, k: int) -> CorrespondenceCover:
    """The cover whose matchings are all the identity on {1..k}."""
    ident = identity(k)
    return CorrespondenceCover(k=k, sigma=tuple(tuple(ident for _ in range(t)) for _ in range(d)))


def k22_unpackable_cover() -> CorrespondenceCover:
    """The 3-fold cover of K_{2,2} that admits no 3-packing.

    Three of the four matchings are the identity; the matching between u_2
    and v_2 fixes colour 1 and swaps colours 2 and 3.  At v_1 the pairs of
    U-vectors with opposite parities cannot extend, at v_2 the pairs with
    equal parities cannot, so no pair extends at both.
    """
    ident = identity(3)
    swap23 = (1, 3, 2)
    return CorrespondenceCover(k=3, sigma=((ident, ident), (ident, swap23)))


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def canonicalize(cover: CorrespondenceCover) -> CorrespondenceCover:
    """Relabel lists so the first row and first column of sigma are identities.

    Relabeling L(v_j) by rho_j and L(u_i) by pi_i turns sigma[i][j] into
    rho_j . sigma[i][j] . pi_i^{-1} and transports colour vectors the same
    way, so packability is preserved.  Choosing rho_j = sigma[1][j]^{-1} and
    pi_i = sigma[1][1]^{-1} . sigma[i][1] pins sigma[1][j] = sigma[i][1] = id.
    """
    rho = [inverse(cover.sigma[0][j]) for j in range(cover.t)]
    pi_inv = [inverse(compose(rho[0], cover.sigma[i][0])) for i in range(cover.d)]
    sigma = tuple(
        tuple(compose(compose(rho[j], cover.sigma[i][j]), pi_inv[i]) for j in range(cover.t))
        for i in range(cover.d)
    )
    return CorrespondenceCover(k=cover.k, sigma=sigma)
