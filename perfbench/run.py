"""packlab benchmark: time to a checked result on three workloads.

    python3 perfbench/run.py --workload reproduce|count|construct|all \
        --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (perfbench/child.py), because every
packlab command is its own process; nothing cached in one pass can reach
the next.  Passes repeat, with the same seed, until the next one would end
after ``--seconds``; at least three run.  Figures are medians over passes.

With ``--trace 0`` the metrics are the end-to-end ones: wall_s, cpu_s,
setup_s and peak_rss_mb.  With ``--trace 1`` traced and untraced passes
alternate, and the metrics are the per-layer ones from the traced passes
and the packing microbenchmark, plus trace.overhead_s.  Either way every
output is checked against exact expected values after the timed region,
and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it give
each metric with its unit and spread, the failed-operation ratio, and the
provenance of the run.  Design, predictions and omissions: README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_PASSES = 3
SETUP_SAMPLES = 10  # set-up-only spawns per untraced run, besides the passes
RUN_LIMIT_S = 170  # a child still running this long after the run began is killed


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: list[str], started: float) -> tuple[dict, float, float]:
    """Run one child to completion: (its JSON result, spawn time, end time)."""
    env = {k: v for k, v in os.environ.items() if k != "PACKLAB_WORKERS"}
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, started + RUN_LIMIT_S - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child {args} still running {RUN_LIMIT_S} s into the run") from exc
    t_end = now()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return json.loads(lines[-1]), t_spawn, t_end


def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def _keep_going(started: float, durations: list[float], seconds: float, minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return now() - started + statistics.median(durations) <= seconds


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    started = now()
    setups = []
    for _ in range(SETUP_SAMPLES):
        result, t_spawn, _ = spawn(["setup", workload, str(seed)], started)
        setups.append(result["t_ready"] - t_spawn)
    passes, durations = [], []
    while _keep_going(started, durations, seconds, MIN_PASSES):
        result, t_spawn, t_end = spawn(
            ["pass", workload, str(seed), "0", str(len(passes))], started
        )
        setups.append(result["t_ready"] - t_spawn)
        passes.append(result)
        durations.append(t_end - t_spawn)
    samples = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    return {"samples": samples, "passes": passes, "detail": {}}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: untraced and traced passes alternate; per-layer metrics."""
    started = now()
    micro, _, _ = spawn(["micro", str(seed)], started)
    plain, traced, durations = [], [], []
    while _keep_going(started, durations, seconds, 2):
        is_traced = len(durations) % 2 == 1
        result, t_spawn, t_end = spawn(
            ["pass", workload, str(seed), "1" if is_traced else "0", str(len(durations))],
            started,
        )
        (traced if is_traced else plain).append(result)
        durations.append(t_end - t_spawn)
    samples = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
    samples.update({name: [value] for name, value in micro["metrics"].items()})
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    samples["trace.overhead_s"] = [overhead]
    return {"samples": samples, "passes": plain + traced, "detail": micro["detail"]}


def provenance(seed: int, seconds: float) -> dict:
    commit = None  # a checkout without git history has none; src_sha256 still identifies it
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "packlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        from importlib.metadata import version

        mpmath_version = version("mpmath")
    except Exception:  # absent or unreadable metadata is recorded, not fatal
        mpmath_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "platform": platform.platform(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    info = provenance(seed, seconds)
    started = now()
    run = (measure_traced if trace else measure)(workload, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    missing = set(units) - set(run["samples"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    checks = [check for p in run["passes"] for check in p["checks"]]
    failures = sorted({name for name, ok in checks if not ok})
    info["passes"] = len(run["passes"])
    info["elapsed_s"] = now() - started
    stats = {name: _stats(run["samples"][name]) for name in units}

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {info['passes']} passes "
          f"in {info['elapsed_s']:.1f} s")
    for name, unit in units.items():
        s = stats[name]
        print(f"  {name:40s} {s['median']:14.6g} {unit:6s} median of {s['n']} "
              f"(min {s['min']:.6g}, max {s['max']:.6g})")
    attempted, failed = len(checks), len(checks) - sum(ok for _, ok in checks)
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} {'1':6s} "
          f"{failed} of {attempted} operations failed")
    for name in failures:
        print(f"  FAILED {name}")
    for name, detail in run["detail"].items():
        print(f"  detail {name}: {json.dumps(detail)}")
    print(json.dumps({"provenance": info, "stats": stats}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "packlab", "__init__.py")):
        print(f"error: no packlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0  # a wrong output is reported by "correct" and "failed", not by the exit code


if __name__ == "__main__":
    sys.exit(main())
