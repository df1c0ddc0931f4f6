"""Machine-checkable certificates and their independent verifier.

A certificate packages an instance (correspondence cover or
list-assignment), a claim about it, an optional witness, and provenance
metadata.  Witness claims are verified by direct positionwise checking;
exhaustive claims (no_k_packing, no_k_colouring) are verified by re-running
the full candidate scan with code deliberately separate from the search
module.  Each check is one loop over one two-sided view of the instance
(``_sides``): the colour set of every vertex and the colour of v_j that
each colour of u_i meets, through the edge's matching in a cover and as
itself in a list instance; the kind is read again only where a witness
format or a rejection message differs.  The verifier shares only
``perms`` and ``packing``: from the latter, the mask builder
``admissible_masks``, ``has_perfect_matching`` and
``lex_smallest_system``; its colour tables, witness checks and colouring
scan are its own.  From ``covers`` it takes only the instance types and
their JSON parsing, from ``errors`` the work check and the deciders' step
counts, so it admits every claim a decider could make.

The serialized form is JSON with a fixed field order, produced by
``to_canonical_json``; re-serializing a parsed certificate reproduces the
bytes exactly, so certificates diff cleanly under version control.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

from . import __version__
from .covers import CorrespondenceCover, ListAssignment, check_fields, int_array
from .errors import MalformedInputError, check_work, colouring_scan_steps, packing_scan_steps
from .packing import admissible_masks, has_perfect_matching, lex_smallest_system
from .perms import identity, perm_from_str, perm_to_str

CLAIMS = ("no_k_packing", "packing_witness", "no_k_colouring", "colouring_witness")
_WITNESS_CLAIMS = ("packing_witness", "colouring_witness")


@dataclass(frozen=True)
class Metadata:
    generator: str
    seed: int | None = None
    budget: dict | None = None
    timestamp: str | None = None
    tool_version: str = __version__

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    claim: str
    instance: CorrespondenceCover | ListAssignment
    witness: dict | None
    metadata: Metadata

    def __post_init__(self) -> None:
        if not isinstance(self.instance, (CorrespondenceCover, ListAssignment)):
            kind = type(self.instance).__name__
            raise MalformedInputError(
                f"instance must be a correspondence cover or a list assignment, not {kind}"
            )
        if self.claim not in CLAIMS:
            raise MalformedInputError(f"unknown claim {self.claim!r}")
        if (self.witness is not None) != (self.claim in _WITNESS_CLAIMS):
            raise MalformedInputError("witness must be present iff the claim is a witness claim")

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "certificate",
            "claim": self.claim,
            "instance": self.instance.to_json_dict(),
            "witness": self.witness,
            "metadata": self.metadata.to_json_dict(),
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        check_fields(data, "certificate")
        check_fields(data["metadata"], "metadata")
        return cls(
            claim=data["claim"],
            instance=parse_instance(data["instance"]),
            witness=data.get("witness"),
            metadata=Metadata(**data["metadata"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_json_dict(_parse_json(text))


def _parse_json(text: str, where: str = ""):
    """``json.loads``; bad text or a repeated key is MalformedInputError "invalid JSON{where}: …"."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON{where}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a repeated key, whose last value json.loads keeps, is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def parse_instance(data) -> CorrespondenceCover | ListAssignment:
    if not isinstance(data, dict):
        raise MalformedInputError("instance must be an object")
    kind = data.get("kind")
    if kind == "correspondence_cover":
        return CorrespondenceCover.from_json_dict(data)
    if kind == "list_assignment":
        return ListAssignment.from_json_dict(data)
    raise MalformedInputError(f"unknown instance kind {kind!r}")


def read_json(path: str):
    """The JSON value in the file at ``path``; malformed text is refused naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), f" in {path}")


def load_instance(path: str) -> CorrespondenceCover | ListAssignment:
    return parse_instance(read_json(path))


def save_json(obj_dict: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj_dict, indent=2) + "\n")


# ---------------------------------------------------------------------------
# building certificates
# ---------------------------------------------------------------------------


def witness_dict_for_cover(u_rows, v_rows) -> dict:
    return {
        "u_rows": [perm_to_str(r) for r in u_rows],
        "v_rows": [perm_to_str(r) for r in v_rows],
    }


def witness_dict_for_lists(u_rows, v_rows) -> dict:
    return {"u_rows": [list(r) for r in u_rows], "v_rows": [list(r) for r in v_rows]}


def make_certificate(
    claim: str,
    instance: CorrespondenceCover | ListAssignment,
    witness: dict | None,
    generator: str,
    seed: int | None = None,
    budget: dict | None = None,
    timestamp: str | None = None,
) -> Certificate:
    """Assemble a certificate; timestamp stays None unless supplied, so that
    equal inputs give byte-identical serializations."""
    return Certificate(
        claim=claim,
        instance=instance,
        witness=witness,
        metadata=Metadata(
            generator=generator, seed=seed, budget=budget, timestamp=timestamp
        ),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None
    evidence: dict | None = None

    def __bool__(self) -> bool:  # truthy iff accepted
        return self.accepted


def _reject(reason: str, evidence: dict | None = None) -> VerifyResult:
    return VerifyResult(accepted=False, reason=reason, evidence=evidence)


_ACCEPT = VerifyResult(accepted=True)


class _Sides(NamedTuple):
    """u[i], v[j]: the ascending colour sets of u_i, v_j.  columns[j][i][p]:
    the colour of v_j that the p-th colour of u_i meets, sigma[i][j] in a
    cover (every set {1..k}); in a list instance the identity, so every
    column is the one tuple of U lists."""

    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    columns: list[tuple[tuple[int, ...], ...]]
    cover: bool


def _sides(instance) -> _Sides:
    if isinstance(instance, CorrespondenceCover):
        colours = identity(instance.k)
        columns = list(zip(*instance.sigma))
        return _Sides((colours,) * instance.d, (colours,) * instance.t, columns, True)
    return _Sides(instance.u_lists, instance.v_lists, [instance.u_lists] * instance.b, False)


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Check the certificate's claim against its instance from scratch.

    Witness claims are checked edge by edge.  no_k_packing claims are
    checked by exhausting every candidate on the U side (first vector
    pinned by colouring-relabeling symmetry) and confirming each one fails
    at some vertex; no_k_colouring claims by exhausting the k^d colourings
    of U.  Either scan is refused up front when its step count
    (``packing_scan_steps``, ``colouring_scan_steps``) exceeds the work
    limit.
    """
    sides = _sides(cert.instance)
    if cert.claim == "packing_witness":
        return _verify_packing_witness(sides, cert.witness)
    if cert.claim == "colouring_witness":
        return _verify_colouring_witness(sides, cert.witness)
    shape = (len(sides.u), len(sides.v), len(sides.u[0]))
    if cert.claim == "no_k_packing":
        check_work(packing_scan_steps(*shape), "no_k_packing verification")
        return _verify_no_packing(sides)
    check_work(colouring_scan_steps(*shape), "no_k_colouring verification")
    return _verify_no_colouring(sides)


def _witness_sides(sides: _Sides, witness, name: str, parse):
    """parse(witness["u_" + name]) and parse(witness["v_" + name]), one item per vertex."""
    if not isinstance(witness, dict):
        raise MalformedInputError("witness must be an object")
    try:
        u_items, v_items = (parse(witness[side + name]) for side in ("u_", "v_"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed witness: {exc}") from exc
    if len(u_items) != len(sides.u) or len(v_items) != len(sides.v):
        raise MalformedInputError("witness dimensions do not match the instance")
    return u_items, v_items


def _misfit(sides: _Sides, u_items, v_items, fits) -> dict | None:
    """{side, vertex} of the first item, U side first, that does not fit its colour set."""
    for side, items, sets in (("u", u_items, sides.u), ("v", v_items, sides.v)):
        for idx, (item, colours) in enumerate(zip(items, sets)):
            if not fits(item, colours):
                return {"side": side, "vertex": idx + 1}
    return None


def _verify_packing_witness(sides: _Sides, witness) -> VerifyResult:
    # cover rows are permutation strings, list rows integer arrays
    row = perm_from_str if sides.cover else int_array

    def rows_of(rows):  # never a string or object read entry by entry
        if not isinstance(rows, list):
            raise ValueError(f"expected an array of rows, got {rows!r}")
        return [*map(row, rows)]

    u_rows, v_rows = _witness_sides(sides, witness, "rows", rows_of)
    where = _misfit(sides, u_rows, v_rows, lambda r, colours: tuple(sorted(r)) == colours)
    if where is not None:
        if sides.cover:  # a permutation of the wrong length
            raise MalformedInputError("witness dimensions do not match the instance")
        return _reject("row is not an arrangement of the vertex list", where)
    for i, (u_row, colours) in enumerate(zip(u_rows, sides.u)):
        at = [colours.index(c) for c in u_row]
        for j, v_row in enumerate(v_rows):
            meets = sides.columns[j][i]
            for s, p in enumerate(at):
                if meets[p] == v_row[s]:
                    return _reject("clashing edge", {"u": i + 1, "v": j + 1, "colouring": s + 1})
    return _ACCEPT


def _verify_colouring_witness(sides: _Sides, witness) -> VerifyResult:
    u_col, v_col = _witness_sides(sides, witness, "colours", int_array)
    where = _misfit(sides, u_col, v_col, lambda c, colours: c in colours)
    if where is not None:
        return _reject("colour out of range") if sides.cover else _reject("colour not in list", where)
    for i, (c, colours) in enumerate(zip(u_col, sides.u)):
        p = colours.index(c)
        for j, cv in enumerate(v_col):
            if sides.columns[j][i][p] == cv:
                return _reject("clashing edge", {"u": i + 1, "v": j + 1})
    return _ACCEPT


def _verify_no_packing(sides: _Sides) -> VerifyResult:
    """Exhaust all candidates on U; accept iff every one fails at some vertex of V.

    Candidates arrange each U colour set, the first pinned in ascending
    order (relabeling the k colourings permutes rows simultaneously).  At
    v_j each colour of u_i blocks the v_j colour it meets, if v_j has it.
    The lex-smallest extensions are only built for a survivor, as evidence.
    """
    first, *rest = sides.u
    tables = []
    for colours, column in zip(sides.v, sides.columns):
        bit = {c: 1 << p for p, c in enumerate(colours)}
        tables.append(
            [{c: bit.get(m, 0) for c, m in zip(u, meets)} for u, meets in zip(sides.u, column)]
        )
    for rest_rows in itertools.product(*map(itertools.permutations, rest)):
        rows, adms = (first,) + rest_rows, []
        for vertex in tables:
            adm = admissible_masks(rows, len(first), vertex)
            if not has_perfect_matching(adm):
                break
            adms.append(adm)
        else:
            systems = map(lex_smallest_system, adms)
            v_rows = [[colours[p - 1] for p in system] for colours, system in zip(sides.v, systems)]
            rows_dict = witness_dict_for_cover if sides.cover else witness_dict_for_lists
            return _reject("surviving packing found", rows_dict(rows, v_rows))
    return _ACCEPT


def _verify_no_colouring(sides: _Sides) -> VerifyResult:
    """Exhaust the colourings of U; accept iff every one leaves a vertex of
    V with no free colour.  The colours a vertex sees depend only on its
    column, so vertices that share one (all of a list instance) share them."""
    for at in itertools.product(*(range(len(colours)) for colours in sides.u)):
        v_col, seen = [], None
        for colours, column in zip(sides.v, sides.columns):
            if column is not seen:
                seen, used = column, set(map(operator.getitem, column, at))
            for c in colours:
                if c not in used:
                    v_col.append(c)
                    break
            else:
                break
        else:
            u_col = [colours[p] for colours, p in zip(sides.u, at)]
            return _reject("surviving colouring found", {"u_colours": u_col, "v_colours": v_col})
    return _ACCEPT
