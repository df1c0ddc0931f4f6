"""Span tracing of packlab's layers, applied from outside the program.

A Tracer replaces every public function of the layer modules with a
wrapper, under every name that refers to it: a function imported into
another module (``has_perfect_matching`` lives in ``packing`` but is bound
in ``counting``, ``search``, ``cases`` and ``certificates`` too) is wrapped
under each of those names.  Each wrapped call records a span (name, start,
end, parent span, pass id).  Spans stay in memory until the pass ends.

Two kinds of function are not spanned:

* ``perms`` is made of leaf helpers called millions of times; wrapping them
  would swamp the trace, so their time is self time of their callers.
* The packing kernels in ``COUNTED`` get a call counter instead of a span,
  for the same reason; their cost per call comes from ``microbench``.
  ``matching_size``, the step inside both kernels, is not wrapped at all.

``errors`` holds only exception classes.  Methods of classes are not
wrapped either, so their time is self time of the calling function.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import threading
import time
import types
from dataclasses import dataclass

LAYERS = (
    "latin",
    "packing",
    "covers",
    "counting",
    "search",
    "cases",
    "certificates",
    "reproduction",
    "cli",
)

#: hot kernels: counted, never spanned
COUNTED = {
    "packlab.packing.has_perfect_matching": "hpm",
    "packlab.packing.lex_smallest_system": "lex",
}

#: the matching step inside both kernels; left unwrapped like perms
LEAVES = {"packlab.packing.matching_size"}

clock = time.perf_counter


@dataclass
class Span:
    span_id: int
    parent: int | None
    pass_id: int
    name: str  # "<layer>.<function>"
    ints: tuple[int, ...]  # integer positional arguments and integer keyword values
    workers: int | None
    start: float
    end: float
    returned_none: bool
    candidates: int | None = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _verify_candidates(args, result) -> int | None:
    """Candidates an accepted no_k_packing verification of a cover scanned.

    The verifier pins the first row and scans all (k!)^(d-1) candidates
    before accepting, so the count follows from the instance size.
    """
    cert = args[0] if args else None
    instance = getattr(cert, "instance", None)
    if getattr(cert, "claim", None) != "no_k_packing" or not hasattr(instance, "sigma"):
        return None
    if not getattr(result, "accepted", False):
        return None
    return math.factorial(instance.k) ** (instance.d - 1)


#: per-function annotations: name -> f(args, result) -> candidates scanned
_NOTES = {"certificates.verify_certificate": _verify_candidates}


class NullTracer:
    """Tracing off: benchmark-side spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Collects spans and kernel counters for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # itertools.count advances atomically under the interpreter lock,
        # so counting from pool threads loses no update
        self._counters = {label: itertools.count() for label in COUNTED.values()}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, self.pass_id, name, (), None, start, end, False)
            )

    def _span_wrapper(self, fn, name: str):
        note = _NOTES.get(name)
        spans = self.spans
        ids = self._ids
        pass_id = self.pass_id

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                ints = tuple(a for a in args if type(a) is int) + tuple(
                    v for v in kwargs.values() if type(v) is int
                )
                workers = kwargs.get("workers")
                spans.append(
                    Span(
                        span_id,
                        parent,
                        pass_id,
                        name,
                        ints,
                        workers if type(workers) is int else None,
                        start,
                        end,
                        result is None,
                        note(args, result) if note is not None else None,
                    )
                )

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, fn, label: str):
        counter = self._counters[label]

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def final_counts(self) -> dict[str, int]:
        """Calls per counted kernel; read once, after the pass."""
        return {label: next(c) for label, c in self._counters.items()}

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function under every packlab name bound to it."""
        wrappers: dict[int, object] = {}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "packlab" and not mod_name.startswith("packlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_"):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                qualified = f"{obj.__module__}.{obj.__name__}"
                if package != "packlab" or layer not in LAYERS or qualified in LEAVES:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    if qualified in COUNTED:
                        wrapper = self._count_wrapper(obj, COUNTED[qualified])
                    else:
                        wrapper = self._span_wrapper(obj, f"{layer}.{obj.__name__}")
                    wrappers[id(obj)] = wrapper
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.seconds - covered
    return out


def _total(spans, name, ints=None, workers=None) -> tuple[float, int]:
    """(seconds, calls) summed over spans of one function, optionally filtered."""
    secs, n = 0.0, 0
    for s in spans:
        if s.name != name:
            continue
        if ints is not None and s.ints[: len(ints)] != ints:
            continue
        if workers is not None and s.workers != workers:
            continue
        secs += s.seconds
        n += 1
    return secs, n


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no such work in this pass."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the microbenchmark adds the rest).

    A metric whose work does not occur in the workload reads 0.
    """
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s.layer] += selfs[s.span_id]
    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}

    latin = [s for s in spans if s.layer == "latin"]
    requests = set()
    for s in latin:
        if s.name == "latin.count_latin_rectangles" and len(s.ints) >= 2:
            requests.add(s.ints[:2])
        elif s.name == "latin.count_latin_squares" and s.ints:
            requests.add((s.ints[0], s.ints[0]))
    m["latin.calls"] = len(latin)
    m["latin.distinct_ratio"] = _ratio(len(requests), len(latin))
    m["latin.rect_s.4x6"] = _total(spans, "latin.count_latin_rectangles", (4, 6))[0]

    brute = "counting.forbidden_count_brute"
    for d, k in ((3, 6), (4, 5), (5, 4)):
        m[f"counting.brute_s.{d}x{k}"] = _total(spans, brute, (d, k))[0]
    brute_spans = [s for s in spans if s.name == brute and len(s.ints) >= 2]
    logical = sum(math.factorial(s.ints[1]) ** s.ints[0] for s in brute_spans)
    m["counting.matrices_per_s"] = _ratio(logical, sum(s.seconds for s in brute_spans))
    m["counting.thresholds_s"] = _total(spans, "counting.threshold_table", (3, 11))[0]

    m["packing.hpm_calls"] = counts.get("hpm", 0)

    greedy = "search.greedy_unpackable_cover"
    m["search.greedy_s.3x4"] = _total(spans, greedy, (3, 4))[0]
    m["search.greedy_s.5x3"] = _total(spans, greedy, (5, 3))[0]
    hunt = "search.random_unpackable_cover_search"
    w1 = _total(spans, hunt, workers=1)[0]
    w2 = _total(spans, hunt, workers=2)[0]
    m["search.hunt_s.w1"] = w1
    m["search.hunt_s.w2"] = w2
    m["search.hunt.pool_ratio"] = _ratio(w2, w1)
    hunts = [s for s in spans if s.name == hunt]
    m["search.hunt.found_ratio"] = _ratio(sum(not s.returned_none for s in hunts), len(hunts))
    m["search.decide_s"] = _total(spans, "search.decide_correspondence_packing")[0]

    m["cases.chi_l_star_s"] = _total(spans, "cases.chi_l_star_exact")[0]

    verify = [s for s in spans if s.name == "certificates.verify_certificate"]
    m["certificates.verify_s"] = sum(s.seconds for s in verify)
    scanned = [s for s in verify if s.candidates]
    m["certificates.verify_candidates_per_s"] = _ratio(
        sum(s.candidates for s in scanned), sum(s.seconds for s in scanned)
    )
    secs, n = _total(spans, "certificates.roundtrip")
    m["certificates.roundtrip_us"] = _ratio(secs * 1e6, n)
    return m
