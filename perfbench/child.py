"""One pass of a workload in a fresh interpreter, as every packlab command runs.

    python3 perfbench/child.py pass <workload> <seed> <traced 0|1> <pass id>
    python3 perfbench/child.py setup <workload> <seed>
    python3 perfbench/child.py micro <seed>

``pass`` imports packlab from ``src``, builds the inputs from the seed,
times the workload, checks every output and prints one JSON line.
``setup`` stops once the inputs are built, to sample set-up time alone.
``micro`` runs the packing kernel microbenchmark.  The clock is
CLOCK_MONOTONIC, which the parent shares, so it can subtract its spawn time
from the ``t_ready`` reported here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (benchmark modules; neither imports packlab)
import workloads  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(lab, workload: str, inputs, traced: bool, pass_id: int, expected: dict) -> dict:
    tracer = tracing.Tracer(pass_id) if traced else tracing.NullTracer()
    if traced:
        tracer.install()
    with workloads.scratch_dir(ROOT) as workdir:
        cpu0, t0 = cpu_seconds(), now()
        ops = workloads.run_workload(lab, workload, inputs, tracer, workdir)
        t1, cpu1 = now(), cpu_seconds()
    if traced:
        tracer.uninstall()
    checks = workloads.WORKLOADS[workload][2](lab, inputs, ops.results, expected)
    out = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": [[name, bool(ok)] for name, ok in checks],
    }
    if traced:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.final_counts())
        path = os.path.join(ROOT, ".perfbench", f"spans-{workload}-pass{pass_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.astuple(s) for s in tracer.spans], fh)
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    import packlab.cli  # every packlab command starts here

    lab = packlab

    if mode == "micro":
        import microbench

        print(json.dumps(microbench.run(lab, int(argv[1]))))
        return 0

    workload, seed = argv[1], int(argv[2])
    expected = workloads.load_expected(os.path.join(HERE, "expected.json"))
    inputs = workloads.WORKLOADS[workload][0](lab, seed)
    t_ready = now()
    if mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0
    result = run_pass(lab, workload, inputs, argv[3] == "1", int(argv[4]), expected)
    result["t_ready"] = t_ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
