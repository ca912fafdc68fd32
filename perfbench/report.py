#!/usr/bin/env python3
"""Traced-run report: per-layer parts, their residual, and tracing overhead.

For each workload, runs the benchmark twice on one seed, untraced and
traced, and prints the traced run's per-layer parts of the operation with
the residual they leave, plus the tracing overhead: traced minus untraced
``op_p50_ms`` (a predict, a waited deletion, a full pipeline run).
Run from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 12
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("predict", "forget", "pipeline")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line and detail record."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def workload_report(workload: str, seed: int, seconds: int) -> dict:
    plain = run_once(workload, seed, seconds, 0)
    traced = run_once(workload, seed, seconds, 1)
    untraced_ms = plain["result"]["metrics"]["op_p50_ms"]["value"]
    traced_ms = traced["detail"]["op_p50_ms"]
    return {
        "workload": workload,
        "untraced_op_p50_ms": untraced_ms,
        "traced_op_p50_ms": traced_ms,
        "tracing_overhead_ms": traced_ms - untraced_ms,
        "tracing_overhead_share": (traced_ms - untraced_ms) / untraced_ms,
        "parts": traced["detail"]["trace"],
        "layers": {name: m["value"] for name, m in
                   traced["result"]["metrics"].items() if m["value"]},
        "correct": (plain["result"]["correct"]
                    and traced["result"]["correct"]),
    }


def print_report(reports) -> None:
    for rep in reports:
        print(f"== {rep['workload']} (outputs correct: {rep['correct']})")
        print(f"  op_p50_ms untraced {rep['untraced_op_p50_ms']:.3f}  "
              f"traced {rep['traced_op_p50_ms']:.3f}  overhead "
              f"{rep['tracing_overhead_ms']:+.3f} ms "
              f"({rep['tracing_overhead_share']:+.1%})")
        for key, value in rep["parts"].items():
            rows = value.items() if isinstance(value, dict) else [("", value)]
            for name, part in rows:
                print(f"  {key:12s} {name:34s} {part:12.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args(argv)
    print_report([workload_report(w, args.seed, args.seconds)
                  for w in WORKLOADS])
    return 0


if __name__ == "__main__":
    sys.exit(main())
