"""Measurement helpers shared by the workloads: percentiles, the request
ledger, the peak-RSS sampler and the per-run environment record."""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import platform
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

#: Tail percentile of a latency stream: p95 of the predict workload spread
#: 10.3% (IQR over median, 10 seeds, 2-core x86-64 box), p90 3.9%.
TAIL_PCT = 90.0
#: A tail needs at least this many samples beyond it, else the median is
#: reported in its place.
TAIL_BEYOND = 10

#: Environment variables that set BLAS / OpenMP thread pools.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """p90 with its sample count, or the median when fewer than
    ``TAIL_BEYOND`` samples lie beyond p90."""
    n = len(values)
    if n * (100.0 - TAIL_PCT) / 100.0 >= TAIL_BEYOND:
        return {"percentile": TAIL_PCT, "value": percentile(values, TAIL_PCT),
                "samples": n}
    return {"percentile": 50.0, "value": median(values) if n else 0.0,
            "samples": n}


class Ledger:
    """Requests per phase: sent, succeeded, refused (429/403), failed.

    A failed output check is recorded as a failed operation of the
    ``check`` phase.
    """

    OUTCOMES = ("sent", "ok", "refused", "failed")

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}
        self._lock = threading.Lock()

    def _bump(self, phase: str, outcome: str) -> None:
        with self._lock:
            counts = self.phases.setdefault(
                phase, dict.fromkeys(self.OUTCOMES, 0))
            counts["sent"] += 1
            counts[outcome] += 1

    def ok(self, phase: str) -> None:
        self._bump(phase, "ok")

    def refused(self, phase: str) -> None:
        self._bump(phase, "refused")

    def failed(self, phase: str) -> None:
        self._bump(phase, "failed")

    def error(self, phase: str, exc: BaseException) -> None:
        """Classify a request's exception: 429/403 refusals vs failures."""
        if getattr(exc, "status", None) in (403, 429):
            self.refused(phase)
        else:
            self.failed(phase)

    def check(self, passed: bool) -> None:
        (self.ok if passed else self.failed)("check")

    @property
    def attempted(self) -> int:
        return sum(c["sent"] for c in self.phases.values())

    @property
    def failures(self) -> int:
        return sum(c["refused"] + c["failed"] for c in self.phases.values())


def _peak_rss_bytes(pid: str) -> int:
    """A process's own peak RSS so far (``VmHWM``), 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass                         # the process exited meanwhile
    return 0


class PeakRss:
    """Peak resident memory of this process plus its worker processes.

    A background thread sums the peak RSS (``VmHWM``, which only grows) of
    this process and of every live ``multiprocessing`` child, such as the
    SISA pool's workers, every ``interval`` seconds and keeps the largest
    sum.  Summing peaks rather than current sizes makes the figure
    independent of where in a worker's life a sample lands.  A forked
    worker's ``VmHWM`` includes the pages it still shares copy-on-write
    with this process, so those pages count once per live worker.

    :meth:`reset` restarts the peak from the current size, so that
    untimed training before a workload's first set-up does not count.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-rss", daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        with self._lock:
            total = _peak_rss_bytes("self") + sum(
                _peak_rss_bytes(str(child.pid))
                for child in multiprocessing.active_children())
            self._peak = max(self._peak, total)

    def reset(self) -> None:
        """Reset this process's ``VmHWM`` to its current RSS and re-peak.

        Freed heap is handed back first.  glibc kept about 48 MB of it
        after the predict workload's training, and how much varied: without
        handing it back, the serving peak that followed read 128 MB in most
        runs and 160 MB in some.
        """
        gc.collect()
        try:
            ctypes.CDLL("libc.so.6").malloc_trim(0)
        except (OSError, AttributeError):
            pass                     # not glibc: nothing to hand back
        with self._lock:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
            self._peak = 0
        self.sample()

    def peak_mb(self) -> float:
        return self._peak / 2 ** 20


def environment(blas_before: Dict[str, Optional[str]]) -> dict:
    """Per-run record of what the numbers depend on besides the code."""
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "blas_library": blas_lib,
        "blas_threads_inherited": blas_before,
        "blas_threads_used": {k: os.environ.get(k) for k in BLAS_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "unix_time_start": time.time(),
    }


def autotune_tables(store) -> List[dict]:
    """The ``nn.compile`` block table of every version a store served."""
    tables = []
    for entry in store.all_entries():
        plan = entry.plan()
        tables.append({"version": f"{entry.name}/{entry.version}",
                       "tuned": dict(plan["tuned"]) if plan else None})
    return tables
