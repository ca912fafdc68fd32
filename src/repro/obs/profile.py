"""Per-phase profiling hooks: wall + CPU timers, zero-cost when off.

The instrumented layers — the batcher's dispatch path and the
conv kernels — each guard their timer with one module-attribute
check::

    _prof = _profile.ACTIVE
    if _prof is not None:
        token = _prof.start("serve.dispatch")
    ...
    if _prof is not None:
        _prof.stop(token)

One attribute load and a ``None`` test per site: with profiling off
(the default, :data:`ACTIVE` is ``None``) the hot paths pay nothing
measurable.  :func:`profiled` flips it on for a scope; the benches use
that to produce the per-phase breakdown sections.

Wall time is ``time.perf_counter``; CPU time is ``time.thread_time``
(this thread only), so a phase that blocks on a lock or a condition
variable shows high wall and near-zero CPU — the signature that tells
waiting apart from computing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

Token = Tuple[str, float, float]


class PhaseProfiler:
    """Accumulates per-phase call counts and wall/CPU seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._phases: Dict[str, list] = {}

    def start(self, phase: str) -> Token:
        return (phase, time.perf_counter(), time.thread_time())

    def stop(self, token: Token) -> None:
        phase, wall0, cpu0 = token
        wall = time.perf_counter() - wall0
        cpu = time.thread_time() - cpu0
        with self._lock:
            bucket = self._phases.get(phase)
            if bucket is None:
                bucket = self._phases[phase] = [0, 0.0, 0.0]
            bucket[0] += 1
            bucket[1] += wall
            bucket[2] += cpu

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        token = self.start(name)
        try:
            yield
        finally:
            self.stop(token)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {phase: {"calls": bucket[0], "wall_s": bucket[1],
                            "cpu_s": bucket[2]}
                    for phase, bucket in sorted(self._phases.items())}

    def reset(self) -> None:
        with self._lock:
            self._phases.clear()


#: The live profiler, or ``None`` (the default: profiling disabled).
ACTIVE: Optional[PhaseProfiler] = None


def install(profiler: Optional[PhaseProfiler] = None) -> PhaseProfiler:
    """Enable profiling process-wide; returns the active profiler."""
    global ACTIVE
    ACTIVE = profiler if profiler is not None else PhaseProfiler()
    return ACTIVE


def uninstall() -> Optional[PhaseProfiler]:
    """Disable profiling; returns the profiler that was active."""
    global ACTIVE
    profiler, ACTIVE = ACTIVE, None
    return profiler


@contextmanager
def profiled() -> Iterator[PhaseProfiler]:
    """Scoped enable: profile the body, restore the previous state."""
    global ACTIVE
    previous = ACTIVE
    profiler = install()
    try:
        yield profiler
    finally:
        ACTIVE = previous
