"""The three benchmark workloads: inputs from a seed, timed operations, checks.

Each workload has three parts:

* ``inputs(seed)`` builds everything the pass needs before timing starts;
* ``run(lab, inputs, ops, tracer, workdir)`` makes the timed calls into
  packlab, each one recorded by ``ops`` (an exception is recorded, not
  raised); files it writes go to ``workdir``;
* ``check(lab, inputs, results, expected)`` runs after the timed region and
  returns one ``(operation, ok)`` pair per checked operation.

``lab`` is the imported ``packlab`` package.  Expected values are exact and
were recorded once at the commit that introduced the benchmark; they live
in ``expected.json``.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

#: (d, k) shapes of the seeded query stream of ``count``; k <= 6 keeps the
#: brute-force oracle used by the check affordable
QUERY_SHAPES = ((3, 4), (4, 5), (5, 4), (4, 6), (5, 6))
QUERY_BATCHES = 40
QUERY_BATCH_SIZE = 100

#: seeded hunts per pass, each run at workers=1 and at workers=2
HUNTS = 3
HUNT_SHAPE = (3, 4, 16)  # d, k, t
HUNT_BUDGET = 600_000  # candidate evaluations per hunt

#: the verifier refuses exhaustive claims beyond these sizes (cli defaults)
VERIFY_MAX_D, VERIFY_MAX_K = 4, 7


class Error:
    """An operation that raised; never equal to an expected value."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Error({self.text!r})"


class Ops:
    """Records each operation's output, or the exception it raised."""

    def __init__(self):
        self.results: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            value = Error(exc)
        self.results[name] = value
        return value


def failed(value) -> bool:
    return isinstance(value, Error)


def cli_call(lab, argv: list[str]) -> tuple[int, str]:
    """Run one packlab command in-process: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lab.cli.main(argv)
    return code, out.getvalue()


def random_perm(rng: random.Random, k: int) -> tuple[int, ...]:
    row = list(range(1, k + 1))
    rng.shuffle(row)
    return tuple(row)


# ---------------------------------------------------------------------------
# reproduce: the command every user runs
# ---------------------------------------------------------------------------


def reproduce_inputs(lab, seed: int) -> dict:
    return {}  # the short report takes no input; the seed changes nothing


def reproduce_run(lab, inputs, ops: Ops, tracer, workdir: str) -> None:
    ops.call("report", cli_call, lab, ["reproduce", "--format", "structured"])


def reproduce_check(lab, inputs, results, expected) -> list[tuple[str, bool]]:
    """One operation per reproduction item of the recorded report."""
    want = expected["reproduce"]
    out = results.get("report")
    items = {}
    if out is not None and not failed(out):
        try:
            items = {item["id"]: item for item in json.loads(out[1])["items"]}
        except (ValueError, KeyError, TypeError):
            items = {}
    fields = ("id", "computed", "expected", "ok")
    checks = []
    for item in want:
        got = items.get(item["id"])
        ok = got is not None and all(got.get(f) == item[f] for f in fields)
        checks.append((f"report.{item['id']}", ok))
    return checks


# ---------------------------------------------------------------------------
# count: exhaustive counting and per-matrix witness queries
# ---------------------------------------------------------------------------

COUNT_CASES = (("brute.3x6", 3, 6), ("brute.4x5", 4, 5), ("brute.5x4", 5, 4))


def count_inputs(lab, seed: int) -> dict:
    rng = random.Random(seed)
    batches = []
    for b in range(QUERY_BATCHES):
        d, k = QUERY_SHAPES[b % len(QUERY_SHAPES)]
        batches.append(
            [
                lab.PackingMatrix(k=k, rows=tuple(random_perm(rng, k) for _ in range(d)))
                for _ in range(QUERY_BATCH_SIZE)
            ]
        )
    return {"batches": batches}


def _query_batch(lab, batch) -> list[tuple[object, bool]]:
    return [(lab.packing.find_common_derangement(m), lab.packing.is_forbidden(m)) for m in batch]


def count_run(lab, inputs, ops: Ops, tracer, workdir: str) -> None:
    for name, d, k in COUNT_CASES:
        ops.call(name, lab.counting.forbidden_count_brute, d, k, workers=1)
    ops.call("rect.4x6", lab.latin.count_latin_rectangles, 4, 6)
    for i, batch in enumerate(inputs["batches"]):
        ops.call(f"queries.{i}", _query_batch, lab, batch)


def count_check(lab, inputs, results, expected) -> list[tuple[str, bool]]:
    want = expected["count"]
    checks = [(name, results.get(name) == want[name]) for name, _, _ in COUNT_CASES]
    checks.append(("rect.4x6", results.get("rect.4x6") == want["rect.4x6"]))
    oracle = lab.packing.brute_force_extension  # shares nothing with the matching engine
    for i, batch in enumerate(inputs["batches"]):
        got = results.get(f"queries.{i}")
        ok = isinstance(got, list) and len(got) == len(batch)
        if ok:
            for m, (witness, forbidden) in zip(batch, got):
                lex_first = oracle(m)
                if witness != lex_first or forbidden != (lex_first is None):
                    ok = False
                    break
        checks.append((f"queries.{i}", ok))
    return checks


# ---------------------------------------------------------------------------
# construct: covers, certificates and their verification
# ---------------------------------------------------------------------------


def construct_inputs(lab, seed: int) -> dict:
    rng = random.Random(seed)
    return {"hunt_seeds": [rng.randrange(2**31) for _ in range(HUNTS)]}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _roundtrip(lab, cert) -> tuple[str, str]:
    """Canonical JSON before and after a parse; equal bytes expected."""
    text = cert.to_canonical_json()
    return text, lab.Certificate.from_json(text).to_canonical_json()


def _verify(lab, cert, workdir: str, name: str) -> tuple[int, str]:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.to_canonical_json())
    return cli_call(lab, ["verify", path])


def _canonical(lab, cover, meta: dict) -> str:
    return lab.make_certificate("no_k_packing", cover, None, **meta).to_canonical_json()


def _decide_subcover(lab, cover):
    """(subcover, packing witness or None) for the cover minus its last vertex."""
    sub = lab.CorrespondenceCover(k=cover.k, sigma=tuple(row[:-1] for row in cover.sigma))
    return sub, lab.search.decide_correspondence_packing(sub)


def _decision_certificate(lab, sub, witness):
    if witness is None:
        return lab.make_certificate("no_k_packing", sub, None, generator="decide")
    return lab.make_certificate(
        "packing_witness",
        sub,
        lab.certificates.witness_dict_for_cover(witness.u_rows, witness.v_rows),
        generator="decide",
    )


def _certify(lab, ops: Ops, tracer, name: str, cover, workdir: str, **meta) -> None:
    """Certificate, JSON round trip, verification, and the subcover decision.

    Exhaustive claims are verified only where the verifier's size gate
    admits them; witness claims always are.
    """
    cert = ops.call(f"certificate.{name}", lab.make_certificate, "no_k_packing", cover, None, **meta)
    if failed(cert):
        return
    with tracer.span("certificates.roundtrip"):
        ops.call(f"roundtrip.{name}", _roundtrip, lab, cert)
    admitted = cover.d <= VERIFY_MAX_D and cover.k <= VERIFY_MAX_K
    if admitted:
        ops.call(f"verify.{name}", _verify, lab, cert, workdir, name)
    decided = ops.call(f"decide.{name}", _decide_subcover, lab, cover)
    if failed(decided) or (decided[1] is None and not admitted):
        return
    sub_cert = ops.call(f"certificate.{name}.sub", _decision_certificate, lab, *decided)
    if not failed(sub_cert):
        ops.call(f"verify.{name}.sub", _verify, lab, sub_cert, workdir, f"{name}.sub")


def construct_run(lab, inputs, ops: Ops, tracer, workdir: str) -> None:
    covers = []
    for d, k in ((3, 4), (5, 3)):
        name = f"greedy.{d}x{k}"
        built = ops.call(name, lab.search.greedy_unpackable_cover, d, k)
        if not failed(built):
            covers.append((name, built[0], {"generator": "greedy"}))
    d, k, t = HUNT_SHAPE
    for seed in inputs["hunt_seeds"]:
        budget = lab.SearchBudget(max_candidates=HUNT_BUDGET, seed=seed)
        for workers in (1, 2):
            name = f"hunt.{seed}.w{workers}"
            cover = ops.call(
                name, lab.search.random_unpackable_cover_search, d, k, t, budget, workers=workers
            )
            if cover is not None and not failed(cover):
                meta = {"generator": "hunt", "seed": seed, "budget": {"max_candidates": HUNT_BUDGET}}
                ops.call(f"{name}.cert", _canonical, lab, cover, meta)
                if workers == 1:
                    covers.append((f"hunt.{seed}", cover, meta))
    ops.call("chi_l_star.3x9", lab.cases.chi_l_star_exact, 3, 9)
    for name, cover, meta in covers:
        _certify(lab, ops, tracer, name, cover, workdir, **meta)


def _accepted(out) -> bool:
    return not failed(out) and out is not None and out[0] == 0 and out[1].strip() == "ACCEPT"


def construct_check(lab, inputs, results, expected) -> list[tuple[str, bool]]:
    want = expected["construct"]
    checks = []
    for name in ("greedy.3x4", "greedy.5x3"):
        got = results.get(name)
        ok = got is not None and not failed(got)
        if ok:
            cover, trace = got
            cert = lab.make_certificate("no_k_packing", cover, None, generator="greedy")
            ok = (
                cover.t == want[name]["t"]
                and trace[-1] == 0
                and all(a > b for a, b in zip(trace, trace[1:]))
                and _digest(cert.to_canonical_json()) == want[name]["sha256"]
            )
        checks.append((name, ok))
    t = HUNT_SHAPE[2]
    for seed in inputs["hunt_seeds"]:
        w1, w2 = results.get(f"hunt.{seed}.w1"), results.get(f"hunt.{seed}.w2")
        ok1 = f"hunt.{seed}.w1" in results and not failed(w1) and (w1 is None or w1.t == t)
        checks.append((f"hunt.{seed}.w1", ok1))
        # the worker count may not change the outcome: byte-identical certificates
        same = (w1 is None and w2 is None) or (
            w1 is not None
            and w2 is not None
            and results.get(f"hunt.{seed}.w1.cert") == results.get(f"hunt.{seed}.w2.cert")
            and not failed(results.get(f"hunt.{seed}.w1.cert"))
        )
        checks.append((f"hunt.{seed}.w2", f"hunt.{seed}.w2" in results and not failed(w2) and same))
    checks.append(("chi_l_star.3x9", results.get("chi_l_star.3x9") == want["chi_l_star.3x9"]))
    for name, value in results.items():
        if name.startswith("roundtrip."):
            checks.append((name, not failed(value) and value[0] == value[1]))
        elif name.startswith("verify."):
            checks.append((name, _accepted(value)))
        elif name.startswith("certificate."):
            checks.append((name, not failed(value)))
        elif name.startswith("decide."):
            ok = not failed(value)
            if name.startswith("decide.greedy."):
                # the last greedy vertex blocked survivors, so the subcover packs
                ok = ok and value[1] is not None
            checks.append((name, ok))
    return checks


# ---------------------------------------------------------------------------


WORKLOADS = {
    "reproduce": (reproduce_inputs, reproduce_run, reproduce_check),
    "count": (count_inputs, count_run, count_check),
    "construct": (construct_inputs, construct_run, construct_check),
}


def load_expected(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(lab, name: str, inputs, tracer, workdir: str) -> Ops:
    """The timed region of one pass."""
    ops = Ops()
    WORKLOADS[name][1](lab, inputs, ops, tracer, workdir)
    return ops


@contextlib.contextmanager
def scratch_dir(root: str):
    """A private directory for certificate files, inside the checkout."""
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as path:
        yield path
