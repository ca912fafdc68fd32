"""Training memory of one process: tape ratio, peak RSS, minor faults.

Two measurements of :func:`repro.train.train_model` on ``small_cnn``:

- :func:`tape_ratio`: the tracemalloc peak of two consecutive training
  steps of a unit-scale ``small_cnn``, over the peak of one such step.
  It measures allocation sizes, not time, so machine speed and load do
  not move it.  About 1 when backward frees each step's graph before
  the next forward builds its own; well above 1 (about 1.7) when one
  step's graph is still alive while the next is built.
  :data:`TAPE_RATIO_LIMIT` is the bound the tests and the CI perf gate
  hold it to.  It also reports the size of one forward tape.
- :func:`train_epochs`: bench ``small_cnn`` on all of ``cifar10-bench``:
  per-epoch seconds and minor page faults, the process's peak RSS
  (``VmHWM``) and, with ``trace``, the tracemalloc peak.  Only a fresh
  process gives a peak RSS and fault counts that belong to the run
  alone, so :func:`measure_fresh` runs it in one::

    PYTHONPATH=src python -m repro.benchmarks.train_memory --epochs 3 [--trace]

prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np

from .. import nn
from ..data.registry import load_dataset
from ..models.registry import build_model
from ..nn import functional as F
from ..parallel.pool import set_blas_threads
from ..train import TrainConfig, train_model

MB = 1 << 20
#: What :func:`train_epochs` trains: bench ``small_cnn`` on this dataset.
DATASET, SCALE = "cifar10-bench", "bench"
#: Traced peak of two training steps over that of one: ~1 with one graph
#: alive at a time, ~1.7 when a step's graph outlives its backward.
TAPE_RATIO_LIMIT = 1.3


def _model_and_data(dataset: str, scale: str):
    train, _, profile = load_dataset(dataset, seed=0)
    nn.manual_seed(21)
    return build_model("small_cnn", profile.num_classes, scale=scale), train


def state_digest(state: dict) -> str:
    """SHA-256 over a state dict's names and bytes, in name order."""
    digest = hashlib.sha256()
    for name, value in sorted(state.items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _traced_peak(fn, *args) -> int:
    """Traced peak of ``fn(*args)`` over what was allocated before it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn(*args)
    return tracemalloc.get_traced_memory()[1] - before


def tape_ratio() -> dict:
    """Traced peak of two same-size training steps over that of one.

    Each peak covers a whole :func:`train_model` call (the optimizer's
    state included) of exactly one or two full batches.  ``tape_mb`` is
    what one forward pass and its loss leave allocated while the graph
    is alive.
    """
    model, train = _model_and_data("unit", "tiny")
    batch = len(train) // 2
    steps = [train.subset(np.arange(n * batch)) for n in (1, 2)]
    config = TrainConfig(epochs=1, batch_size=batch, lr=3e-3, seed=13)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # The loss holds the whole graph; measure while it is alive.
        graph = [F.cross_entropy(model(nn.Tensor(train.images[:batch])),
                                 train.labels[:batch])]
        tape = tracemalloc.get_traced_memory()[0] - before
        graph.clear()
        one, two = (_traced_peak(train_model, model, data, config)
                    for data in steps)
    finally:
        tracemalloc.stop()
    return {"tape_mb": tape / MB, "one_step_peak_mb": one / MB,
            "two_step_peak_mb": two / MB, "ratio": two / one}


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def vm_hwm_mb() -> Optional[float]:
    """This process's peak RSS, ``VmHWM``; None where ``/proc`` has none.

    Not ``ru_maxrss``: Linux carries that across ``execve`` from the
    process that spawned this one, so a child of a large benchmark
    process would report its parent's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def train_epochs(epochs: int, trace: bool = False) -> dict:
    """Train bench ``small_cnn`` for ``epochs``, one BLAS thread; see module doc."""
    set_blas_threads(1)
    model, train = _model_and_data(DATASET, SCALE)
    marks = [(time.perf_counter(), _minor_faults())]

    def mark(epoch: int, _model: nn.Module) -> None:
        marks.append((time.perf_counter(), _minor_faults()))

    if trace:
        tracemalloc.start()
    train_model(model, train, TrainConfig(epochs=epochs, lr=3e-3, seed=13),
                epoch_callback=mark)
    traced_peak = tracemalloc.get_traced_memory()[1] if trace else None
    tracemalloc.stop()
    return {
        "epoch_seconds": [b[0] - a[0] for a, b in zip(marks, marks[1:])],
        "epoch_minor_faults": [b[1] - a[1] for a, b in zip(marks, marks[1:])],
        "vm_hwm_mb": vm_hwm_mb(),
        "traced_peak_mb": None if traced_peak is None else traced_peak / MB,
        "digest": state_digest(model.state_dict()),
    }


def run_fresh(module: str, *args: str) -> dict:
    """``python -m module *args`` in a fresh interpreter; its last line as JSON."""
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_fresh(epochs: int, trace: bool = False) -> dict:
    """:func:`train_epochs` in a fresh interpreter; returns its result."""
    return run_fresh("repro.benchmarks.train_memory", "--epochs", str(epochs),
                     *(["--trace"] if trace else []))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="also record the tracemalloc peak (slower)")
    args = parser.parse_args(argv)
    print(json.dumps(train_epochs(args.epochs, trace=args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
