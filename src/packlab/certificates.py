"""Machine-checkable certificates and their independent verifier.

A certificate packages an instance (correspondence cover or
list-assignment), a claim about it, an optional witness, and provenance
metadata.  Witness claims are verified by direct positionwise checking;
exhaustive claims (no_k_packing, no_k_colouring) are verified by re-running
the full candidate scan with code deliberately separate from the search
module.  The verifier shares only ``perms`` and ``packing``: from the
latter, the mask builders (``transported_masks``, ``list_masks``),
``has_perfect_matching`` and ``lex_smallest_system``.  Its witness checks
and its colouring scan are its own; from ``covers`` it takes only the
instance types and their JSON parsing, from ``errors`` the work check and
the deciders' step counts, so it admits every claim a decider could make.

The serialized form is JSON with a fixed field order, produced by
``to_canonical_json``; re-serializing a parsed certificate reproduces the
bytes exactly, so certificates diff cleanly under version control.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import __version__
from .covers import CorrespondenceCover, ListAssignment, int_array
from .errors import MalformedInputError, check_work, colouring_scan_steps, packing_scan_steps
from .packing import (
    has_perfect_matching,
    lex_smallest_system,
    list_masks,
    transported_masks,
)
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
        return {
            "generator": self.generator,
            "seed": self.seed,
            "budget": self.budget,
            "timestamp": self.timestamp,
            "tool_version": self.tool_version,
        }


@dataclass(frozen=True)
class Certificate:
    claim: str
    instance: CorrespondenceCover | ListAssignment
    witness: dict | None
    metadata: Metadata

    def __post_init__(self) -> None:
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
        if not isinstance(data, dict) or data.get("kind") != "certificate" or data.get("version") != 1:
            raise MalformedInputError("not a version-1 certificate object")
        instance = parse_instance(data.get("instance"))
        metadata = data.get("metadata") or {}
        if not isinstance(metadata, dict) or "generator" not in metadata:
            raise MalformedInputError("metadata.generator is required")
        return cls(
            claim=data.get("claim"),
            instance=instance,
            witness=data.get("witness"),
            metadata=Metadata(
                generator=metadata["generator"],
                seed=metadata.get("seed"),
                budget=metadata.get("budget"),
                timestamp=metadata.get("timestamp"),
                tool_version=metadata.get("tool_version", __version__),
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedInputError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def parse_instance(data) -> CorrespondenceCover | ListAssignment:
    if not isinstance(data, dict):
        raise MalformedInputError("instance must be an object")
    kind = data.get("kind")
    if kind == "correspondence_cover":
        return CorrespondenceCover.from_json_dict(data)
    if kind == "list_assignment":
        return ListAssignment.from_json_dict(data)
    raise MalformedInputError(f"unknown instance kind {kind!r}")


def load_instance(path: str) -> CorrespondenceCover | ListAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc
    return parse_instance(data)


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
    instance = cert.instance
    if cert.claim == "packing_witness":
        return _verify_packing_witness(instance, cert.witness)
    if cert.claim == "colouring_witness":
        return _verify_colouring_witness(instance, cert.witness)

    is_cover = isinstance(instance, CorrespondenceCover)
    d, t = (instance.d, instance.t) if is_cover else (instance.a, instance.b)
    k = instance.k
    if cert.claim == "no_k_packing":
        check_work(packing_scan_steps(d, t, k), "no_k_packing verification")
        return _verify_no_packing(instance)
    if cert.claim == "no_k_colouring":
        check_work(colouring_scan_steps(d, t, k), "no_k_colouring verification")
        return _verify_no_colouring(instance)
    raise MalformedInputError(f"unknown claim {cert.claim!r}")


def _parse_cover_witness(witness: dict, d: int, t: int, k: int):
    if not isinstance(witness, dict):
        raise MalformedInputError("witness must be an object")
    try:
        u_rows = [perm_from_str(s) for s in witness["u_rows"]]
        v_rows = [perm_from_str(s) for s in witness["v_rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed witness: {exc}") from exc
    if len(u_rows) != d or len(v_rows) != t or any(len(r) != k for r in u_rows + v_rows):
        raise MalformedInputError("witness dimensions do not match the instance")
    return u_rows, v_rows


def _verify_packing_witness(instance, witness) -> VerifyResult:
    if isinstance(instance, CorrespondenceCover):
        u_rows, v_rows = _parse_cover_witness(witness, instance.d, instance.t, instance.k)
        for i in range(instance.d):
            for j in range(instance.t):
                sigma = instance.sigma[i][j]
                for s in range(instance.k):
                    if sigma[u_rows[i][s] - 1] == v_rows[j][s]:
                        return _reject(
                            "clashing edge", {"u": i + 1, "v": j + 1, "colouring": s + 1}
                        )
        return _ACCEPT

    # list instance: rows are arrangements of each vertex's own list
    try:
        u_rows = [int_array(r) for r in witness["u_rows"]]
        v_rows = [int_array(r) for r in witness["v_rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed witness: {exc}") from exc
    if len(u_rows) != instance.a or len(v_rows) != instance.b:
        raise MalformedInputError("witness dimensions do not match the instance")
    for rows, lists, side in ((u_rows, instance.u_lists, "u"), (v_rows, instance.v_lists, "v")):
        for idx, (row, lst) in enumerate(zip(rows, lists)):
            if tuple(sorted(row)) != lst:
                return _reject(
                    "row is not an arrangement of the vertex list",
                    {"side": side, "vertex": idx + 1},
                )
    for i, u_row in enumerate(u_rows):
        for j, v_row in enumerate(v_rows):
            for s in range(instance.k):
                if u_row[s] == v_row[s]:
                    return _reject(
                        "clashing edge", {"u": i + 1, "v": j + 1, "colouring": s + 1}
                    )
    return _ACCEPT


def _verify_colouring_witness(instance, witness) -> VerifyResult:
    try:
        u_col = int_array(witness["u_colours"])
        v_col = int_array(witness["v_colours"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed witness: {exc}") from exc
    if isinstance(instance, CorrespondenceCover):
        if len(u_col) != instance.d or len(v_col) != instance.t:
            raise MalformedInputError("witness dimensions do not match the instance")
        if any(not 1 <= c <= instance.k for c in u_col + v_col):
            return _reject("colour out of range", None)
        for i in range(instance.d):
            for j in range(instance.t):
                if instance.sigma[i][j][u_col[i] - 1] == v_col[j]:
                    return _reject("clashing edge", {"u": i + 1, "v": j + 1})
        return _ACCEPT
    if len(u_col) != instance.a or len(v_col) != instance.b:
        raise MalformedInputError("witness dimensions do not match the instance")
    for col, lists, side in ((u_col, instance.u_lists, "u"), (v_col, instance.v_lists, "v")):
        for idx, (c, lst) in enumerate(zip(col, lists)):
            if c not in lst:
                return _reject("colour not in list", {"side": side, "vertex": idx + 1})
    for i, cu in enumerate(u_col):
        for j, cv in enumerate(v_col):
            if cu == cv:
                return _reject("clashing edge", {"u": i + 1, "v": j + 1})
    return _ACCEPT


def _verify_no_packing(instance) -> VerifyResult:
    """Exhaust all candidates on the small side; accept iff every one fails.

    A candidate fails when some vertex of the other side has no perfect
    matching; the lexicographically smallest extensions are only built for
    a survivor, as rejection evidence.
    """
    k = instance.k
    if isinstance(instance, CorrespondenceCover):
        perms = list(itertools.permutations(range(1, k + 1)))
        ident = identity(k)
        columns = [instance.column(j) for j in range(instance.t)]
        for rest in itertools.product(perms, repeat=instance.d - 1):
            rows = (ident,) + rest
            adms = _all_matchable(transported_masks(rows, col, k) for col in columns)
            if adms is not None:
                return _reject(
                    "surviving packing found",
                    {
                        "u_rows": [perm_to_str(r) for r in rows],
                        "v_rows": [perm_to_str(lex_smallest_system(a)) for a in adms],
                    },
                )
        return _ACCEPT

    # list instance: candidates are arrangements of the U lists, the first
    # one pinned (relabeling the k colourings permutes rows simultaneously)
    u_lists = instance.u_lists
    arrangements = [list(itertools.permutations(lst)) for lst in u_lists[1:]]
    first = u_lists[0]
    for rest in itertools.product(*arrangements):
        rows = (first,) + rest
        adms = _all_matchable(list_masks(rows, v_list) for v_list in instance.v_lists)
        if adms is not None:
            v_rows = [
                [v_list[i - 1] for i in lex_smallest_system(a)]
                for v_list, a in zip(instance.v_lists, adms)
            ]
            return _reject(
                "surviving packing found",
                {"u_rows": [list(r) for r in rows], "v_rows": v_rows},
            )
    return _ACCEPT


def _all_matchable(mask_lists) -> list[list[int]] | None:
    """The mask lists, in order, if each admits a perfect matching; else None."""
    out = []
    for adm in mask_lists:
        if not has_perfect_matching(adm):
            return None
        out.append(adm)
    return out


def _verify_no_colouring(instance) -> VerifyResult:
    if isinstance(instance, CorrespondenceCover):
        k = instance.k
        for u_col in itertools.product(range(1, k + 1), repeat=instance.d):
            v_col = []
            for j in range(instance.t):
                used = {instance.sigma[i][j][u_col[i] - 1] for i in range(instance.d)}
                if len(used) == k:
                    break
                v_col.append(min(set(range(1, k + 1)) - used))
            else:
                return _reject(
                    "surviving colouring found",
                    {"u_colours": list(u_col), "v_colours": v_col},
                )
        return _ACCEPT
    for u_col in itertools.product(*instance.u_lists):
        used = set(u_col)
        v_col = []
        for lst in instance.v_lists:
            free = [c for c in lst if c not in used]
            if not free:
                break
            v_col.append(min(free))
        else:
            return _reject(
                "surviving colouring found",
                {"u_colours": list(u_col), "v_colours": v_col},
            )
    return _ACCEPT
