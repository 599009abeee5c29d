"""Run the repository benchmark and print every metric by name.

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T]
                         [--trace [0|1]] [--json PATH]

Runs from the repository root; the program is imported from ``src/``.
Each workload runs in a child process of its own, one at a time, so the
program's graph and structure caches start cold and ``peak_rss_mb`` is
that workload's alone.  Each workload prints its metrics, a ``detail``
line with the checks, and, last, its one-line JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace`` (or
``--trace 1``) reports the per-layer metrics instead of the end-to-end
ones and writes the spans under ``bench/out/``.

A benchmark harness runs ``--workload W --seed S --seconds T --trace
0|1``, with ``T`` the ``run_seconds`` of BENCHMARK.json; that is why
``--seconds`` and the ``0|1`` value of ``--trace`` exist.

Exit status: 0 when every workload's outputs were correct, 1 when some
were not, 2 when the program cannot be found or the arguments are bad,
3 when a workload process failed without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def _run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json: the default ``--seconds``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _parser() -> argparse.ArgumentParser:
    from bench.workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=_run_seconds(),
        help="timed work per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--json", metavar="PATH", help="also write all results here")
    parser.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    return parser


def report_lines(result: Any, seconds: float) -> List[str]:
    """A workload's report; the last line is its one-line JSON result."""
    lines = [
        f"== {result.workload}  seed={result.seed}  seconds={seconds:g}"
        f"  trace={int(result.traced)} =="
    ]
    lines += [
        f"metric  {name:34s} {value!r} {unit}"
        for name, (value, unit) in result.metrics.items()
    ]
    failed_frac = result.failed / max(result.attempted, 1)
    lines.append(f"info    {'failed_frac':34s} {failed_frac!r}")
    lines += [
        f"info    {key:34s} {value}" for key, value in result.info.items()
    ]
    lines += [f"problem {problem}" for problem in result.problems[:20]]
    detail = {
        "workload": result.workload, "seed": result.seed, "trace": int(result.traced),
        "info": result.info, "problems": result.problems,
    }
    lines.append("detail " + json.dumps(detail, sort_keys=True))
    lines.append(json.dumps(result.contract()))
    return lines


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its report."""
    sys.path.insert(0, SOURCE)
    from bench.measure import run_workload
    from bench.workloads import SPECS

    result = run_workload(
        SPECS[args.child], args.seed, args.seconds,
        trace=bool(args.trace), trace_dir=os.path.join(BENCH_DIR, "out"),
    )
    print("\n".join(report_lines(result, args.seconds)))
    return 0 if result.correct else 1


def _run_child(name: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run one workload process; echo its report and return its results."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", name,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        # ``run`` has already killed the child and waited for it.
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout)
        print(f"{name}: workload process exited with {done.returncode}", file=sys.stderr)
        return None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    detail = next(
        json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")
    )
    return {**detail, **json.loads(lines[-1])}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.child is not None:
        return child_main(args)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"the program is missing: no package at {SOURCE}/repro", file=sys.stderr)
        return 2
    from bench.workloads import WORKLOAD_NAMES

    results = []
    for name in args.workload or WORKLOAD_NAMES:
        result = _run_child(name, args)
        if result is None:
            return 3
        results.append(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    # Import the bench package from the repository root, not this
    # directory: ``bench/trace.py`` must not shadow the standard library.
    sys.path[0] = ROOT
    sys.exit(main())
