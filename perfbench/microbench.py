"""Seeded microbenchmark of the packing kernels.

Masks come from random d x k packing matrices.  The row count d is chosen
per k so that about nine masks in ten have a perfect matching, close to the
mix the ``count`` workload feeds the kernel (its 3 x 6 case always
matches, its 4 x 5 and 5 x 4 cases often do not).  Each
kernel runs over the same masks several times; the figure is the median
cost per call, with the quartiles of the repetitions as its spread.
"""

from __future__ import annotations

import random
import statistics
import time

#: per-call cost at the commit that introduced the benchmark, from the
#: repository roadmap's baseline table (2-core machine, Python 3.11)
ROADMAP_HPM_US = {4: 5.8, 6: 9.1, 8: 14.4}

#: k -> d; the share of matchable masks is reported next to each figure
ROWS = {4: 3, 6: 5, 8: 8}
MASKS = 1000
REPEATS = 15


def _masks(lab, rng: random.Random, k: int) -> list[list[int]]:
    d = ROWS[k]
    out = []
    for _ in range(MASKS):
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        out.append(lab.packing.admissible_masks(tuple(rows), k))
    return out


def _per_call_us(fn, masks) -> list[float]:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for adm in masks:
            fn(adm)
        samples.append((time.perf_counter() - t0) / len(masks) * 1e6)
    return samples


def _summary(samples: list[float], baseline: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(samples, n=4)
    out = {"us": med, "q1": q1, "q3": q3}
    if baseline is not None:
        gap = med - baseline
        out["roadmap_us"] = baseline
        out["gap_share"] = gap / baseline
        out["gap_beyond_spread"] = abs(gap) > q3 - q1
    return out


def run(lab, seed: int) -> dict:
    """Metrics and their detail: {"metrics": {...}, "detail": {...}}."""
    rng = random.Random(seed)
    hpm = lab.packing.has_perfect_matching
    metrics, detail = {}, {}
    for k in (4, 6, 8):
        masks = _masks(lab, rng, k)
        summary = _summary(_per_call_us(hpm, masks), ROADMAP_HPM_US[k])
        summary["matchable_share"] = sum(map(hpm, masks)) / len(masks)
        metrics[f"packing.hpm_us.k{k}"] = summary["us"]
        detail[f"packing.hpm_us.k{k}"] = summary
        if k == 6:
            lex = _summary(_per_call_us(lab.packing.lex_smallest_system, masks), None)
            metrics["packing.lex_us.k6"] = lex["us"]
            detail["packing.lex_us.k6"] = lex
    return {"metrics": metrics, "detail": detail}
