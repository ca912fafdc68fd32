"""Micro-batching scheduler: coalesce concurrent predicts, keep the bits.

Concurrent single-image requests are individually tiny — the threaded
conv kernels from :mod:`repro.nn.functional` only pay off at real batch
widths.  :class:`MicroBatcher` closes the gap: requests queue up, a
dedicated scheduler thread coalesces same-model groups under a
``max_batch_size`` / ``max_delay_ms`` policy, and one forward pass
serves the whole group.

Batch layout
------------
Every forward runs at one fixed compute width, ``max_batch_size``, the
width the serving graph is compiled at.  A group's rows are laid out as

    [ request rows | screen rows | zero rows ]

The screen rows are the online STRIP blends of the request rows (see
:mod:`repro.serve.screening`); they sit where zero padding would
otherwise go, so a lone request is served *and* screened by one
forward.  The rows are zero-padded to a multiple of the width and run
as width-sized chunks, so ``infer_fn`` only ever sees
``max_batch_size``-row batches.  Chunks run in the scheduler thread,
which resolves each request's :class:`~concurrent.futures.Future`
before it takes the next group.

Determinism contract
--------------------
A request's logits are **bit-identical whether it was served solo or
coalesced with any other traffic**.  This rests on row-invariant
GEMMs: conv GEMMs run one fixed-shape product per sample, and 2-D
products run as stacked one-row GEMMs
(:func:`repro.nn.tensor.matmul_rows`), so no GEMM's shape — and hence
no BLAS kernel choice or accumulation order — depends on how many rows
a batch has, where a row sits in it, or what the other rows hold
(enforced zoo-wide by ``tests/nn/test_row_invariance.py``).  Any
``max_batch_size`` keeps the contract.

Occupancy (useful rows / computed rows, where request and screen rows
are useful and zero rows are not) is the headline metric of
``benchmarks/bench_serving.py``.

The scheduler thread is a daemon and is drained at interpreter shutdown
via ``atexit``, so servers and long pytest runs exit cleanly.
"""

from __future__ import annotations

import atexit
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from ..obs import profile as _profile
from ..obs import trace as _trace
from ..obs.metrics import Registry


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue is at depth —
    the HTTP front end maps it to ``429 Too Many Requests``."""


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy of one :class:`MicroBatcher`.

    max_batch_size:
        Fixed compute width of every forward pass, and the most request
        rows one group takes (see the module docstring).
    max_delay_ms:
        How long the scheduler holds the *first* request of a group to
        wait for companions.  0 disables coalescing-by-waiting: a group
        is whatever is already queued when the worker gets there.
    max_queue:
        Bound on queued (not yet running) requests; beyond it
        :meth:`~MicroBatcher.submit` raises :class:`QueueFullError`.
    """

    max_batch_size: int = 32
    max_delay_ms: float = 2.0
    max_queue: int = 128

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


@dataclass
class BatchOutput:
    """What a request's future resolves to."""

    logits: np.ndarray
    extra: Dict[str, np.ndarray] = field(default_factory=dict)


def _format_key(key: Hashable) -> str:
    if isinstance(key, tuple):
        return "/".join(map(str, key))
    return str(key)


class _Request:
    __slots__ = ("key", "images", "future", "submitted_at", "trace")

    def __init__(self, key: Hashable, images: np.ndarray,
                 trace: Optional[str] = None):
        self.key = key
        self.images = images
        self.future: Future = Future()
        self.submitted_at = time.perf_counter()
        self.trace = trace


#: Live batchers, closed at interpreter shutdown so scheduler threads drain.
_LIVE: "weakref.WeakSet[MicroBatcher]" = weakref.WeakSet()


def _close_live_batchers() -> None:
    for batcher in list(_LIVE):
        batcher.close()


atexit.register(_close_live_batchers)


class MicroBatcher:
    """Coalesces submitted requests into fixed-width inference batches.

    Parameters
    ----------
    infer_fn:
        ``infer_fn(key, images) -> logits`` — one forward pass over an
        already-padded ``(max_batch_size, C, H, W)`` batch for the model
        pinned by ``key``.  Must be deterministic.
    policy:
        The :class:`BatchPolicy`.
    screen:
        Optional screen riding in each group's padding: an object with
        ``rows(key, images) -> blend rows`` and
        ``score(key, images, blend_logits) -> {name: array}``.  ``rows``
        runs before the forward over the group's request rows; its
        rows are forwarded after them, and ``score`` gets their logits.
        Returned arrays hold one value per request row and are sliced
        per request into :attr:`BatchOutput.extra`.
    """

    def __init__(self,
                 infer_fn: Callable[[Hashable, np.ndarray], np.ndarray],
                 policy: BatchPolicy = BatchPolicy(),
                 screen=None,
                 name: str = "repro-serve-batcher"):
        self.infer_fn = infer_fn
        self.policy = policy
        self.screen = screen
        self._cond = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        self._closed = False
        # Scheduler counters live in a typed registry (thread-safe on
        # their own).
        self.registry = Registry()
        self._requests = self.registry.counter("requests")
        self._rejected = self.registry.counter("rejected")
        self._errors = self.registry.counter("errors")
        self._batches = self.registry.counter("batches")
        self._real_rows = self.registry.counter("real_rows")
        self._screen_rows = self.registry.counter("screen_rows")
        self._padded_rows = self.registry.counter("padded_rows")
        self._latency_hist = self.registry.histogram("request_latency_s")
        self._per_key_requests: Dict[Hashable, int] = {}
        self._latencies: "deque[float]" = deque(maxlen=4096)
        self._thread = threading.Thread(target=self._worker, name=name,
                                        daemon=True)
        self._thread.start()
        _LIVE.add(self)

    # -- submission ----------------------------------------------------
    def submit(self, key: Hashable, images: np.ndarray,
               trace: Optional[str] = None) -> Future:
        """Enqueue ``images`` (``(C,H,W)`` or ``(k,C,H,W)``) for ``key``.

        ``trace`` tags the queued request with its trace id so the
        queue-wait / coalesce / dispatch spans it produces join the
        caller's trace.

        Returns a future resolving to a :class:`BatchOutput`.  Raises
        :class:`QueueFullError` under backpressure and ``ValueError``
        for malformed or oversized payloads.
        """
        images = np.ascontiguousarray(images, dtype=np.float32)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            raise ValueError(f"expected (C,H,W) or (k,C,H,W) images, "
                             f"got shape {images.shape}")
        if len(images) == 0:
            raise ValueError("empty request")
        if len(images) > self.policy.max_batch_size:
            raise ValueError(
                f"request of {len(images)} images exceeds max_batch_size="
                f"{self.policy.max_batch_size}; split it client-side")
        request = _Request(key, images, trace=trace)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if len(self._queue) >= self.policy.max_queue:
                self._rejected.inc()
                raise QueueFullError(
                    f"queue depth {self.policy.max_queue} reached")
            self._queue.append(request)
            self._requests.inc()
            self._per_key_requests[key] = self._per_key_requests.get(key, 0) + 1
            self._cond.notify_all()
        return request.future

    # -- worker --------------------------------------------------------
    def _take_group_locked(self, key: Hashable) -> List[_Request]:
        """Pop queued same-key requests, in FIFO order, up to batch width."""
        group: List[_Request] = []
        total = 0
        kept: List[_Request] = []
        while self._queue:
            request = self._queue.popleft()
            if (request.key == key
                    and total + len(request.images) <= self.policy.max_batch_size):
                group.append(request)
                total += len(request.images)
            else:
                kept.append(request)
        self._queue.extend(kept)
        return group

    def _group_size_locked(self, key: Hashable) -> int:
        total = 0
        for request in self._queue:
            if request.key == key:
                total += len(request.images)
        return total

    def _worker(self) -> None:
        delay = self.policy.max_delay_ms / 1000.0
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return          # closed and drained
                head = self._queue[0]
                deadline = head.submitted_at + delay
                # Hold the head request open for companions until the
                # batch is full, the delay elapses, or we are draining.
                while not self._closed:
                    if self._group_size_locked(head.key) >= self.policy.max_batch_size:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                group = self._take_group_locked(head.key)
            self._dispatch_group(head.key, group)

    def _dispatch_group(self, key: Hashable, group: List[_Request]) -> None:
        """Lay a group out at compute width, run it, resolve its futures.

        Request rows, then the screen's rows, then zeros up to a
        multiple of ``max_batch_size``; ``infer_fn`` runs on each
        width-sized chunk here, in the scheduler thread, which then
        resolves every request's future.
        """
        dispatched_at = time.perf_counter()
        if _trace.tracing_enabled():
            # Queue-wait span per request (submission → group take), and
            # one coalesce span for the group under the head's trace.
            for request in group:
                if request.trace is not None:
                    _trace.record_span(
                        "queue.wait", request.trace,
                        dispatched_at - request.submitted_at,
                        start_s=request.submitted_at)
            head = group[0]
            if head.trace is not None:
                _trace.record_span(
                    "batch.coalesce", head.trace,
                    dispatched_at - head.submitted_at,
                    start_s=head.submitted_at,
                    tags={"key": _format_key(key), "rows": len(group)})
        _prof = _profile.ACTIVE
        prof_token = (_prof.start("serve.dispatch")
                      if _prof is not None else None)
        images = np.concatenate([request.images for request in group])
        real = len(images)
        width = self.policy.max_batch_size
        try:
            screen = (self.screen.rows(key, images)
                      if self.screen is not None else images[:0])
            rows = real + len(screen)
            batch = np.zeros((-(-rows // width) * width,) + images.shape[1:],
                             dtype=np.float32)
            batch[:real] = images
            batch[real:rows] = screen
            logits = np.concatenate([
                np.asarray(self.infer_fn(key, batch[start:start + width]))
                for start in range(0, len(batch), width)])
        except BaseException as exc:    # noqa: BLE001 — relayed to callers
            self._fail_group(group, exc)
            return
        finally:
            if _prof is not None:
                _prof.stop(prof_token)
        self._finish_group(key, group, images, logits, len(screen),
                           dispatched_at)

    def _fail_group(self, group: List[_Request], exc: BaseException) -> None:
        self._errors.inc(len(group))
        for request in group:
            if not request.future.set_running_or_notify_cancel():
                continue
            request.future.set_exception(exc)

    def _finish_group(self, key: Hashable, group: List[_Request],
                      images: np.ndarray, logits: np.ndarray,
                      screen_rows: int, dispatched_at: float) -> None:
        real = len(images)
        computed = len(logits)
        try:
            extra: Dict[str, np.ndarray] = {}
            if self.screen is not None:
                extra = dict(self.screen.score(
                    key, images, logits[real:real + screen_rows]))
            logits = logits[:real]
        except BaseException as exc:    # noqa: BLE001 — relayed to callers
            self._fail_group(group, exc)
            return
        now = time.perf_counter()
        self._batches.inc()
        self._real_rows.inc(real)
        self._screen_rows.inc(screen_rows)
        self._padded_rows.inc(computed - real - screen_rows)
        if _trace.tracing_enabled():
            head = group[0]
            if head.trace is not None:
                _trace.record_span(
                    "batch.dispatch", head.trace, now - dispatched_at,
                    start_s=dispatched_at,
                    tags={"key": _format_key(key), "real": real,
                          "screen": screen_rows, "width": computed})
        with self._cond:
            for request in group:
                latency = now - request.submitted_at
                self._latencies.append(latency)
                self._latency_hist.observe(latency)
        start = 0
        for request in group:
            stop = start + len(request.images)
            output = BatchOutput(
                logits=logits[start:stop].copy(),
                extra={name: values[start:stop].copy()
                       for name, values in extra.items()})
            start = stop
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(output)

    # -- stats / lifecycle --------------------------------------------
    def stats(self) -> dict:
        """Counters + latency percentiles (seconds) since construction."""
        with self._cond:
            latencies = np.array(self._latencies, dtype=np.float64)
            queued = len(self._queue)
            per_key = {_format_key(key): count for key, count in
                       sorted(self._per_key_requests.items())}
        real_rows = self._real_rows.value
        screen_rows = self._screen_rows.value
        padded_rows = self._padded_rows.value
        batches = self._batches.value
        useful_rows = real_rows + screen_rows
        return {
            "requests": self._requests.value,
            "rejected": self._rejected.value,
            "errors": self._errors.value,
            "batches": batches,
            "queued": queued,
            "real_rows": real_rows,
            "screen_rows": screen_rows,
            "padded_rows": padded_rows,
            "occupancy": (useful_rows / (useful_rows + padded_rows)
                          if useful_rows else 1.0),
            "mean_batch_width": (real_rows / batches if batches else 0.0),
            "latency_p50_s": (float(np.quantile(latencies, 0.5))
                              if len(latencies) else 0.0),
            "latency_p95_s": (float(np.quantile(latencies, 0.95))
                              if len(latencies) else 0.0),
            "per_key_requests": per_key,
        }

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting requests, drain the queue, join the scheduler."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
