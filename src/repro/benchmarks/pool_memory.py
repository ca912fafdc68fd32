"""Peak memory of a pooled SISA fit and unlearn, process by process.

A 2-shard, ``workers=2`` :class:`~repro.unlearning.sisa.SISAEnsemble`
of bench ``small_cnn`` fits ``cifar10-bench`` and then unlearns one
sample from every shard.  The result gives the calling process's peak
RSS (``VmHWM``), the largest worker's (``ru_maxrss`` of
``RUSAGE_CHILDREN``, which covers only processes already waited for:
the pool's workers, once each call has returned), how many worker
processes the two pooled calls started between them, and
``cpu_count``.  A forked worker's peak includes the pages it still
shares copy-on-write with the caller.

Only a fresh process gives a peak that belongs to the run alone, so
:func:`measure_fresh` runs it in one::

    PYTHONPATH=src python -m repro.benchmarks.pool_memory [--epochs 3]

prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import threading
import time

from ..data.registry import load_dataset
from ..parallel import ModelSpec
from ..train import TrainConfig
from ..unlearning.sisa import SISAConfig, SISAEnsemble
from .train_memory import DATASET, MB, SCALE, run_fresh, state_digest, vm_hwm_mb

SHARDS = WORKERS = 2


def _children_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB


def fit_unlearn(epochs: int) -> dict:
    """The pooled fit and unlearn, with the pool's processes watched."""
    train, _, profile = load_dataset(DATASET, seed=0)
    config = SISAConfig(num_shards=SHARDS, num_slices=1,
                        train=TrainConfig(epochs=epochs, lr=3e-3, seed=5),
                        seed=11, workers=WORKERS)
    ensemble = SISAEnsemble(
        ModelSpec("small_cnn", profile.num_classes, scale=SCALE), config)
    # Workers live for a whole pooled call, so a 10 ms poll sees each.
    seen, done = set(), threading.Event()

    def watch() -> None:
        while not done.wait(0.01):
            seen.update(c.pid for c in multiprocessing.active_children())

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        start = time.perf_counter()
        ensemble.fit(train)
        fit_seconds = time.perf_counter() - start
        shard_of = ensemble.shard_of(train.sample_ids)
        forget = [train.sample_ids[shard_of == s][0] for s in range(SHARDS)]
        start = time.perf_counter()
        ensemble.unlearn(forget)
        unlearn_seconds = time.perf_counter() - start
    finally:
        done.set()
        watcher.join()
    return {"dataset": DATASET, "model": "small_cnn", "scale": SCALE,
            "shards": SHARDS, "workers": WORKERS, "epochs": epochs,
            "cpu_count": os.cpu_count(),
            "caller_vm_hwm_mb": vm_hwm_mb(),
            "children_max_rss_mb": _children_mb(),
            "workers_started": len(seen),
            "fit_seconds": fit_seconds, "unlearn_seconds": unlearn_seconds,
            "digests": [state_digest(ensemble.state_dict(i))
                        for i in range(SHARDS)]}


def measure_fresh(epochs: int = 3) -> dict:
    """:func:`fit_unlearn` in a fresh interpreter; returns its result."""
    return run_fresh("repro.benchmarks.pool_memory", "--epochs", str(epochs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args(argv)
    print(json.dumps(fit_unlearn(args.epochs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
