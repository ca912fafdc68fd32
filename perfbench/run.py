#!/usr/bin/env python3
"""Benchmark of the ReVeil reproduction: ``predict``, ``forget``, ``pipeline``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload predict --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``END_TO_END``; with
``--trace 1`` the benchmark wraps each layer's entry points with span
recorders (``spans.py``) and the metrics are the per-layer metrics of
``PER_LAYER``.  A per-layer metric reads 0 on a workload whose timed
operations never reach that layer.  The line before it starts with
``detail:`` and carries the run's environment record, the request ledger
per phase, tails with their percentile and sample count, and, when
tracing, the per-layer parts of the operation with their residual.

The benchmark pins BLAS and OpenMP pools to one thread, and keeps the
values it found in the environment record.  This masks a defect of the
program: nothing in ``repro`` bounds the BLAS threads of the SISA pool's
workers, so with OpenBLAS's default of one thread per core the two
workers oversubscribe a 2-core box: two 10-epoch pipeline runs took 88 s
and 48 s, against 18 s and 19 s pinned.  Once the program bounds them
itself, the pin can go and the pipeline figures will show the fix.

Exit status: 0 once the result line is printed (``correct`` says whether
the output checks passed), 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro" / "__init__.py"

#: End-to-end metrics, the same on every workload, over its operation.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``).
PER_LAYER = {
    # predict: per request, per batch, or per set-up (compile, register).
    "serve.http.overhead_ms": "ms",
    "serve.batcher.wait_ms": "ms",
    "nn.graph.forward_ms": "ms",
    "serve.screening.score_ms": "ms",
    "serve.batcher.requests_per_forward": "req/forward",
    "nn.graph.compile_s": "s",
    "serve.store.register_s": "s",
    # forget: per deletion (guard per request).
    "unlearning.sisa.unlearn_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim.step_s": "s",
    "serve.store.activate_s": "s",
    "serve.forget.guard_ms": "ms",
    "serve.forget.residual_s": "s",
    # pipeline: per full run.
    "data.load_s": "s",
    "core.craft_s": "s",
    "train.train_model_s": "s",
    "unlearning.sisa.fit_s": "s",
    "parallel.efficiency": "ratio",
    "eval.measure_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("predict", "forget", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' runs every workload at minimum size")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE.is_file():
        print(f"perfbench: package sources not found at {PACKAGE.parent}",
              file=sys.stderr)
        return 2
    # Pin the pools before anything imports numpy (``measure`` does not).
    import measure
    blas_before = {name: os.environ.get(name) for name in measure.BLAS_VARS}
    for name in measure.BLAS_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    env = measure.environment(blas_before)
    ledger = measure.Ledger()
    recorder = spans.install(spans.Recorder()) if args.trace else None
    started = time.perf_counter()
    try:
        with measure.PeakRss() as rss:
            outcome = workloads.WORKLOADS[args.workload](
                workloads.SCALES[args.scale], args.seed, args.seconds,
                ledger, recorder, rss)
    finally:
        if recorder is not None:
            recorder.uninstall()
        _stop_resource_tracker()

    end_to_end = {
        "setup_s": measure.median(outcome.setups_s),
        "op_p50_ms": (measure.median(outcome.op_latencies_s) * 1e3
                      if outcome.op_latencies_s else 0.0),
        "ops_per_s": len(outcome.op_latencies_s) / outcome.window_s,
        "peak_rss_mb": rss.peak_mb(),
    }
    if args.trace:
        metrics = {name: {"value": float(outcome.layers.get(name, (0.0,))[0]),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items()}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "environment": env,
        "ledger": ledger.phases,
        "setups_s": outcome.setups_s,
        "ops": len(outcome.op_latencies_s),
        "window_s": outcome.window_s,
        **end_to_end,
        "wall_s": time.perf_counter() - started,
        **outcome.detail,
    }
    checks = ledger.phases.get("check", {})
    correct = (checks.get("sent", 0) > 0 and checks.get("failed", 0) == 0
               and len(outcome.op_latencies_s) > 0)
    print("detail: " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failures, "metrics": metrics}))
    return 0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if the run started it.

    Pooled SISA fits hand shard states back through shared memory, which
    starts the tracker process; stopping it here waits for it to exit.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
