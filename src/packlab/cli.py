"""Command-line interface.

Exit codes: 0 when the requested claim holds or the computation completed
and agrees, 1 when a claim was refuted or a reproduction item mismatched
(for hunt: the budget ran out without a cover), 2 on resource limits or
malformed input, 141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cases, counting, latin, search
from .certificates import (
    Certificate,
    load_instance,
    make_certificate,
    read_json,
    save_json,
    verify_certificate,
    witness_dict_for_cover,
    witness_dict_for_lists,
)
from .covers import CorrespondenceCover, ListAssignment
from .errors import MalformedInputError, PackLabError
from .reproduction import run_reproduction


def _emit(args, text_lines, structured) -> None:
    if args.format == "structured":
        print(json.dumps(structured, indent=2))
    else:
        for line in text_lines:
            print(line)


def _timestamp() -> str:
    # imported on first use: importing datetime leaves its pure-Python
    # definitions behind as cyclic garbage, held until a full collection
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _cmd_latin(args) -> int:
    value = latin.count_latin_squares(args.n)
    _emit(args, [str(value)], {"n": args.n, "count": value})
    return 0


def _cmd_forbidden_count(args) -> int:
    d, k = args.d, args.k
    results = {}
    if args.method in ("formula", "both"):
        if k == 2 * d - 1:
            results["formula"] = counting.w_odd(d)
        elif k == 2 * d - 2:
            results["formula"] = counting.w_even(d)
        else:
            raise PackLabError("closed forms exist only for k = 2d-1 or k = 2d-2")
    if args.method in ("brute", "both"):
        results["brute"] = counting.forbidden_count_brute(d, k)
    lines = [f"{name}: {value}" for name, value in results.items()]
    agree = len(set(results.values())) == 1
    structured = {"d": d, "k": k, **{m: v for m, v in results.items()}, "agree": agree}
    _emit(args, lines, structured)
    return 0 if agree else 1


def _cmd_thresholds(args) -> int:
    rows = counting.threshold_table(args.d_min, args.d_max)
    structured = {
        "rows": [
            {
                "d": r.d,
                "flavour": r.flavour,
                "w": r.w,
                "X0": r.X0,
                "ratio": str(r.ratio),
                "iteration_bound": r.iter_bound,
                "estimate_bound": r.estimate_bound,
                "estimate_bound_first_order": r.estimate_bound_first_order,
                "sci3": counting.sci3(
                    r.ratio if r.flavour == "lower_2d" else r.best_upper,
                    "down" if r.flavour == "lower_2d" else "up",
                ),
            }
            for r in rows
        ]
    }
    _emit(args, [counting.format_threshold_table(rows)], structured)
    return 0


def _instance_from_args(args):
    if args.cover and args.assignment:
        raise PackLabError("give either --cover or --assignment, not both")
    path = args.cover or args.assignment
    if path is None:
        raise PackLabError("one of --cover or --assignment is required")
    instance = load_instance(path)
    if args.cover and not isinstance(instance, CorrespondenceCover):
        raise PackLabError(f"{path} does not contain a correspondence cover")
    if args.assignment and not isinstance(instance, ListAssignment):
        raise PackLabError(f"{path} does not contain a list-assignment")
    return instance


def _cmd_decide(args) -> int:
    instance = _instance_from_args(args)
    if isinstance(instance, CorrespondenceCover):
        witness = search.decide_correspondence_packing(instance)
        witness_dict = None if witness is None else witness_dict_for_cover(
            witness.u_rows, witness.v_rows
        )
    else:
        witness = search.decide_list_packing(instance)
        witness_dict = None if witness is None else witness_dict_for_lists(
            witness.u_rows, witness.v_rows
        )
    claim = "packing_witness" if witness is not None else "no_k_packing"
    cert = make_certificate(
        claim, instance, witness_dict, generator="decide", timestamp=_timestamp()
    )
    if args.out:
        save_json(cert.to_json_dict(), args.out)
    verdict = "packable" if witness is not None else "not packable"
    lines = [verdict]
    if witness is not None:
        lines += [f"  u: {list(witness.u_rows)}", f"  v: {list(witness.v_rows)}"]
    _emit(args, lines, {"verdict": verdict, "witness": witness_dict})
    return 0


def _cmd_greedy(args) -> int:
    cover, trace = search.greedy_unpackable_cover(args.d, args.k)
    cert = make_certificate(
        "no_k_packing", cover, None, generator="greedy", timestamp=_timestamp()
    )
    if args.out:
        save_json(cert.to_json_dict(), args.out)
    lines = [f"built a cover with t = {cover.t} vertices", f"trace: {trace}"]
    _emit(args, lines, {"t": cover.t, "trace": trace, "certificate": bool(args.out)})
    return 0


def _cmd_hunt(args) -> int:
    try:
        budget = search.SearchBudget(
            max_candidates=args.budget_candidates,
            max_seconds=args.budget_seconds,
            seed=args.seed,
        )
    except ValueError as exc:  # name the flags the user typed, not the fields
        message = str(exc).replace("max_candidates", "--budget-candidates")
        message = message.replace("max_seconds", "--budget-seconds")
        # neither flag can be given None, so do not offer it
        raise MalformedInputError(message.replace("None or ", "")) from None
    cover = search.random_unpackable_cover_search(args.d, args.k, args.t, budget)
    if cover is None:
        _emit(args, ["no cover found within budget"], {"found": False})
        return 1
    cert = make_certificate(
        "no_k_packing",
        cover,
        None,
        generator="hunt",
        seed=args.seed,
        budget={
            "max_candidates": args.budget_candidates,
            "max_seconds": args.budget_seconds,
        },
        timestamp=None if args.no_timestamp else _timestamp(),
    )
    if args.out:
        save_json(cert.to_json_dict(), args.out)
    _emit(args, [f"found an unpackable cover with t = {cover.t}"], {"found": True, "t": cover.t})
    return 0


def _cmd_chi(args) -> int:
    dispatch = {
        "c": search.chi_c_exact,
        "cstar": search.chi_c_star_exact,
        "l": cases.chi_l_exact,
        "lstar": cases.chi_l_star_exact,
    }
    value = dispatch[args.param](args.a, args.b)
    _emit(args, [str(value)], {"param": args.param, "a": args.a, "b": args.b, "value": value})
    return 0


def _cmd_verify(args) -> int:
    result = verify_certificate(Certificate.from_json_dict(read_json(args.certificate)))
    if result.accepted:
        _emit(args, ["ACCEPT"], {"verdict": "accept"})
        return 0
    lines = [f"REJECT: {result.reason}"]
    if result.evidence:
        lines.append(f"  evidence: {result.evidence}")
    _emit(args, lines, {"verdict": "reject", "reason": result.reason, "evidence": result.evidence})
    return 1


def _cmd_reproduce(args) -> int:
    emit = None if args.format == "structured" else print
    report = run_reproduction(long=args.long, emit=emit)
    if args.out:
        save_json(report.to_json_dict(), args.out)
    if args.format == "structured":
        print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.ok else 1


@functools.cache  # one parser per process: each build is ~455 objects of cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packlab",
        description="exact list/correspondence packing computations on complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("latin", help="Latin square counts")
    latin_sub = p.add_subparsers(dest="latin_cmd", required=True)
    pc = latin_sub.add_parser("count", help="exact number of Latin squares of order n")
    pc.add_argument("--n", type=int, required=True)
    add_common(pc)
    pc.set_defaults(func=_cmd_latin)

    p = sub.add_parser("forbidden-count", help="count unextendable d x k packing matrices")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("formula", "brute", "both"), default="formula")
    add_common(p)
    p.set_defaults(func=_cmd_forbidden_count)

    p = sub.add_parser("thresholds", help="threshold bound table")
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=11)
    add_common(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("decide", help="decide packability of a cover or assignment file")
    p.add_argument("--cover")
    p.add_argument("--assignment")
    p.add_argument("--out", help="write the decision as a certificate")
    add_common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("greedy", help="construct an unpackable cover greedily")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="certificate output path")
    add_common(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("hunt", help="randomized search for a small unpackable cover")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--budget-candidates", type=int,
                   default=search.SearchBudget.max_candidates)
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the wall-clock timestamp for byte-reproducible output")
    p.add_argument("--out", help="certificate output path")
    add_common(p)
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("chi", help="exact chromatic/packing numbers of tiny K_{a,b}")
    p.add_argument("--param", choices=("c", "cstar", "l", "lstar"), required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("verify", help="verify a certificate independently")
    p.add_argument("certificate")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="recompute all desk-scale reference values")
    p.add_argument("--long", action="store_true", help="include the slow items")
    p.add_argument("--out", help="write the structured report to this path")
    add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at the exit flush
        return code
    except BrokenPipeError:
        # the reader has gone, not the input; the exit flush writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PackLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
