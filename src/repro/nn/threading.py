"""Intra-op thread pool for the numpy kernel layer.

:mod:`repro.nn.functional` splits its heavy im2col matmuls into
row-blocks over the batch dimension and dispatches them across a shared
:class:`~concurrent.futures.ThreadPoolExecutor` (numpy releases the GIL
inside BLAS calls, so threads genuinely overlap).  This module owns the
knob and the pool lifecycle:

- :func:`set_intra_op_threads` / :func:`get_intra_op_threads` — the
  process-wide thread count (1 = serial, 0 = one per available core);
- :func:`intra_op_threads` — context manager for scoped overrides, used
  by the training harness and the SISA shard tasks;
- :func:`run_blocks` — ordered map of a kernel callable over block
  indices, serial or pooled depending on the knob;
- :func:`shutdown_intra_op_pool` — explicit (and ``atexit``-registered)
  drain of the shared pool so long-lived processes exit cleanly.

Determinism contract
--------------------
Block decomposition (:func:`batch_blocks`) depends only on the batch
size, never on the thread count, and callers reduce partial results in
block-index order.  Serial and threaded execution therefore perform the
exact same floating-point operations in the exact same order — results
are bit-identical for every thread count (enforced by
``tests/nn/test_threading.py``).

The pool is fork-aware: a worker process forked while the parent held a
live pool re-creates its own (inherited threads do not survive a fork).
"""

from __future__ import annotations

import atexit
import os
import threading as _threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

#: Batches below this size run unblocked — threading overhead would
#: exceed the kernel cost, and a single block keeps tiny-batch calls on
#: the exact single-GEMM path.
MIN_BLOCK_BATCH = 16

#: Fixed block count for large batches.  Shape-only (never derived from
#: the thread knob) so the decomposition — and therefore the bit pattern
#: of every reduction — is identical at any thread count.
NUM_BLOCKS = 8

_lock = _threading.Lock()
_intra_op_threads = 1
_pool: ThreadPoolExecutor = None
_pool_size = 0
_pool_pid = 0


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


def resolve_intra_op_threads(threads: int) -> int:
    """Normalize the knob: 0 = one per available core, N = N threads."""
    threads = int(threads)
    if threads < 0:
        raise ValueError(f"intra_op_threads must be >= 0 (0 = auto), got {threads}")
    if threads == 0:
        return available_cpu_count()
    return threads


def get_intra_op_threads() -> int:
    """Current process-wide intra-op thread count (always >= 1)."""
    return _intra_op_threads


def set_intra_op_threads(threads: int) -> int:
    """Set the process-wide thread count; returns the resolved value.

    The shared pool is lazily resized on the next dispatch; shrinking to
    1 shuts it down.
    """
    global _intra_op_threads
    resolved = resolve_intra_op_threads(threads)
    with _lock:
        _intra_op_threads = resolved
        if resolved <= 1:
            _shutdown_pool_locked()
    return resolved


@contextmanager
def intra_op_threads(threads: int):
    """Scoped override of the thread knob (restores the previous value)."""
    previous = get_intra_op_threads()
    set_intra_op_threads(threads)
    try:
        yield
    finally:
        set_intra_op_threads(previous)


def _shutdown_pool_locked(wait: bool = False) -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=wait)
        _pool = None
        _pool_size = 0


def shutdown_intra_op_pool(wait: bool = True) -> None:
    """Drain and release the shared pool (idempotent).

    The next :func:`run_blocks` dispatch lazily rebuilds it, so calling
    this mid-run is safe — it exists so long-lived processes (``repro
    serve``, extended pytest sessions) can exit without leaking worker
    threads, and it runs automatically at interpreter shutdown via
    ``atexit``.
    """
    with _lock:
        _shutdown_pool_locked(wait=wait)


atexit.register(shutdown_intra_op_pool)


def _reinit_after_fork() -> None:
    """Forked children inherit module state but not running threads — and
    a lock held by another parent thread at fork time stays locked in
    the child forever.  Replace the lock and drop the (threadless) pool
    so the first dispatch in the child starts from a clean slate."""
    global _lock, _pool, _pool_size
    _lock = _threading.Lock()
    _pool = None
    _pool_size = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _get_pool(size: int) -> ThreadPoolExecutor:
    """Shared executor of ``size`` workers, (re)built on resize or fork."""
    global _pool, _pool_size, _pool_pid
    with _lock:
        if _pool is not None and (_pool_size != size or _pool_pid != os.getpid()):
            _shutdown_pool_locked()
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-intra-op")
            _pool_size = size
            _pool_pid = os.getpid()
        return _pool


def batch_blocks(n: int) -> List[slice]:
    """Contiguous row-block slices of a batch of ``n`` samples.

    Shape-only: one block below :data:`MIN_BLOCK_BATCH`, otherwise
    :data:`NUM_BLOCKS` near-equal blocks (remainder spread over the
    leading blocks, matching ``np.array_split``).  Training, the
    interpreted forward and the compiled graph all use this one
    decomposition, so their reduction orders never differ.
    """
    if n < MIN_BLOCK_BATCH:
        return [slice(0, n)]
    base, extra = divmod(n, NUM_BLOCKS)
    out = []
    start = 0
    for b in range(NUM_BLOCKS):
        stop = start + base + (1 if b < extra else 0)
        out.append(slice(start, stop))
        start = stop
    return out


def run_blocks(fn: Callable[[int], T], num_blocks: int) -> List[T]:
    """Evaluate ``fn(block_index)`` for every block, results in order.

    Runs inline when the knob is 1 or there is a single block; otherwise
    fans out across the shared pool and gathers in block-index order so
    caller-side reductions stay deterministic.
    """
    if num_blocks <= 0:
        return []
    threads = get_intra_op_threads()
    if threads <= 1 or num_blocks <= 1:
        return [fn(b) for b in range(num_blocks)]
    pool = _get_pool(threads)
    futures = [pool.submit(fn, b) for b in range(num_blocks)]
    return [f.result() for f in futures]


def map_blocks(fn: Callable[[slice, int], T], blocks: Sequence[slice]) -> List[T]:
    """Like :func:`run_blocks` but hands each call its slice directly."""
    return run_blocks(lambda b: fn(blocks[b], b), len(blocks))
