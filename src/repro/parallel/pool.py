"""Deterministic process-pool executor.

:func:`run_tasks` maps a list of task objects (anything with a
zero-arg ``run()`` method) over ``workers`` processes, the calling
process counted among them, and returns their results **in task
order**.  The caller runs a share of the tasks itself while
``workers - 1`` forked workers run the rest; the share is picked from
each task's declared ``cost`` (:func:`caller_share`), never from
timing, so the caller and its workers finish together.  ``workers<=1``
(or a single task) runs every task inline, which is both the fallback
path and the reference the parallel path must match bit-for-bit.

Failures inside a pooled task are captured with their full formatted
traceback and re-raised in the parent as :class:`WorkerError`, whether
the task ran in a worker or in the caller's share, so a crash three
processes away still reads like a local stack trace.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import math
import multiprocessing as mp
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class WorkerError(RuntimeError):
    """A task raised inside a worker process.

    Carries the original exception type name and the worker-side
    formatted traceback (``worker_traceback``) so the root cause is
    never swallowed by the process boundary.
    """

    def __init__(self, task_label: str, error_type: str, worker_traceback: str):
        self.task_label = task_label
        self.error_type = error_type
        self.worker_traceback = worker_traceback
        super().__init__(
            f"task {task_label!r} failed in worker with {error_type}; "
            f"original traceback:\n{worker_traceback}")


@dataclass
class _Outcome:
    """Picklable envelope shipped back from a worker."""

    ok: bool
    value: Any = None
    error_type: str = ""
    traceback: str = ""


def _execute(task) -> _Outcome:
    """Worker entry point: run one task, never let an exception escape."""
    try:
        return _Outcome(ok=True, value=task.run())
    except Exception as exc:
        return _Outcome(ok=False, error_type=type(exc).__name__,
                        traceback=traceback.format_exc())


@functools.lru_cache(maxsize=None)
def bundled_openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas*``), or None.

    ``dlopen`` hands back the copy numpy already loaded, so thread
    settings made through it are the ones numpy's matmuls use.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_")
               for op in ("get", "set")):
            return lib
    return None


def set_blas_threads(count: int) -> Optional[int]:
    """Set numpy's BLAS thread count; returns the old one (None: no-op).

    Tasks run with one BLAS thread wherever they run.  Worker processes
    are the parallelism, and a BLAS pool per worker oversubscribes the
    cores: a 2-worker pipeline ran 2-5x slower with OpenBLAS's default
    of a thread per core.  The inline path must match, because the
    thread count changes bits: OpenBLAS splits the long reduction of a
    conv weight-gradient GEMM differently for 1 and 2 threads at some
    batch sizes, which would break worker-count bit-identity.
    """
    lib = bundled_openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(ctypes.c_int(count))
    return previous


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then restore the caller's count."""
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def available_cpu_count() -> int:
    """CPUs this process may actually use.

    ``os.sched_getaffinity`` respects container/cgroup CPU masks;
    ``os.cpu_count`` (the fallback on platforms without affinity)
    reports the whole machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob: ``None``/1 serial, 0 = auto.

    The count is of processes that run tasks, the caller included:
    :func:`run_tasks` starts one worker fewer than it resolves to.
    Auto sizes to the CPUs this process may actually use
    (``os.sched_getaffinity``) rather than the whole machine, so CI
    containers with restricted CPU masks don't oversubscribe the pool.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return available_cpu_count()
    return workers


def default_context() -> str:
    """Preferred multiprocessing start method (fork where available).

    ``fork`` keeps worker startup cheap and lets workers inherit the
    imported package; ``spawn`` is the portable fallback.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def ensure_picklable(obj: Any, what: str, hint: str = "") -> None:
    """Raise a targeted ``TypeError`` if ``obj`` cannot cross a pipe."""
    try:
        pickle.dumps(obj)
    except Exception as exc:
        suffix = f" {hint}" if hint else ""
        raise TypeError(
            f"{what} is not picklable and cannot be shipped to worker "
            f"processes ({type(exc).__name__}: {exc}).{suffix}") from exc


def _label(task, index: int) -> str:
    return getattr(task, "label", "") or f"task[{index}]"


#: Largest number of candidate shares :func:`caller_share` compares;
#: 14 tasks over 2 processes have 3432.
MAX_SHARES = 4096


def caller_share(costs: Sequence[float], processes: int) -> Tuple[int, ...]:
    """Indices (ascending) of the tasks the calling process runs itself.

    The caller takes ``len(costs) // processes`` tasks, the ones whose
    summed cost is nearest its fair part, ``sum(costs) / processes``.
    Ties go to the later tasks, so with equal costs the caller takes the
    tail.  Past :data:`MAX_SHARES` candidate shares it takes the tail
    without searching.  The choice depends only on the costs and the
    process count.
    """
    count = len(costs) // processes
    later_first = range(len(costs) - 1, -1, -1)
    if math.comb(len(costs), count) > MAX_SHARES:
        return tuple(sorted(later_first[:count]))
    total = sum(costs)
    best = min(itertools.combinations(later_first, count),
               key=lambda share: abs(processes * sum(costs[i] for i in share)
                                     - total))
    return tuple(sorted(best))


def run_tasks(tasks: Iterable[Any], workers: int = 1,
              context: Optional[str] = None) -> List[Any]:
    """Run ``task.run()`` for every task; results keep task order.

    Parameters
    ----------
    tasks:
        Objects exposing a zero-arg ``run()`` and, optionally, a
        ``cost`` (declared work, e.g. rows x epochs; 1 when absent).
        When ``workers > 1`` each task (and its result) must be
        picklable.
    workers:
        1 (default) runs inline, 0 auto-sizes to the available CPUs,
        N > 1 runs on ``P = min(N, len(tasks))`` processes counting the
        caller: the caller runs the ``len(tasks) // P`` tasks that
        :func:`caller_share` picks by cost while ``P - 1`` forked
        workers run the rest.
    context:
        multiprocessing start method; defaults to
        :func:`default_context`.

    The split depends only on the declared costs and ``P``, never on
    timing, and every task seeds itself, so each result is the same
    bits whichever process ran it.  A pooled task that raises surfaces
    as :class:`WorkerError` wherever it ran.  One that kills its own
    process (``os._exit``, a segfault, the OOM killer) takes the caller
    down when it is in the caller's share, as with ``workers=1``.
    """
    task_list = list(tasks)
    effective = resolve_workers(workers)
    if effective <= 1 or len(task_list) <= 1:
        with _one_blas_thread():
            return [task.run() for task in task_list]

    ctx = mp.get_context(context or default_context())
    processes = min(effective, len(task_list))
    # A static split, not "whatever the pool has not started": the
    # executor marks up to max_workers + 1 queued items as running, so
    # cancelling futures could leave the caller nothing to run.
    own = caller_share([getattr(task, "cost", 1) for task in task_list],
                       processes)
    theirs = [i for i in range(len(task_list)) if i not in own]
    # ProcessPoolExecutor (not mp.Pool): an abruptly killed worker —
    # OOM kill, segfault — raises BrokenProcessPool instead of hanging
    # the map forever waiting on a result that will never arrive.
    with ProcessPoolExecutor(max_workers=processes - 1, mp_context=ctx,
                             initializer=set_blas_threads,
                             initargs=(1,)) as pool:
        # map submits the workers' whole share before the caller starts.
        pooled = pool.map(_execute, [task_list[i] for i in theirs])
        with _one_blas_thread():
            outcomes = {i: _execute(task_list[i]) for i in own}
        try:
            outcomes.update(zip(theirs, pooled))
        except BrokenProcessPool as exc:
            raise WorkerError(
                "<pool>", "BrokenProcessPool",
                "a worker process died abruptly before returning a result "
                "(killed by the OS? out of memory?)") from exc

    results: List[Any] = []
    for index, task in enumerate(task_list):
        outcome = outcomes[index]
        if not outcome.ok:
            raise WorkerError(_label(task, index), outcome.error_type,
                              outcome.traceback)
        results.append(outcome.value)
    return results
