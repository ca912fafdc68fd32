"""Typed metrics: counters, gauges, log-bucketed histograms, registries.

Every layer of the serving stack used to keep its own hand-rolled,
lock-guarded counter dict.  This module replaces them with three typed
instruments behind a :class:`Registry`:

- :class:`Counter` — monotonically increasing integer (requests served,
  batches dispatched, retrain rounds);
- :class:`Gauge` — a level that moves both ways (last activation acks,
  queue depth rendered at scrape time);
- :class:`Histogram` — observation counts over **fixed log-spaced
  bucket bounds** (powers of two, exactly representable in binary
  floating point), so every snapshot has the same deterministic bucket
  layout.

Snapshots are plain JSON-able dicts.

:func:`render_prometheus` turns one or more registries (or plain
scalar dicts) into the Prometheus text exposition format served at
``/v1/metrics.prom``.  The JSON ``/v1/metrics`` payload keeps its historical
schema — registries only changed what backs the numbers.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

#: Canonical histogram bounds: powers of two from ~7.6 µs to 64 s.
#: Log-spaced and exactly representable, so every histogram computes
#: the identical bucket layout.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** exponent for exponent in range(-17, 7))


class Counter:
    """Monotonic counter with cheap thread-safe increments."""

    __slots__ = ("name", "_lock", "_value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value



class Gauge:
    """A level that can move both ways (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Observation counts over fixed, shared bucket bounds.

    ``bounds`` are *upper* bucket edges; one overflow bucket catches
    everything past the last bound.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        with self._lock:
            return {"bounds": list(self.bounds), "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for index, count in enumerate(counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]


Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """Named instruments, snapshotted as one unit.

    Components own their registry (a server's request stats, the
    batcher's counters, the forget plane's rounds) — process-global
    state is deliberately avoided so several servers can coexist in one
    test process without sharing counts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: str, factory) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if metric.kind != kind:
            raise TypeError(f"metric {name!r} is a {metric.kind}, "
                            f"not a {kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
                  ) -> Histogram:
        return self._get_or_create(name, "histogram",
                                   lambda: Histogram(name, bounds))

    def metrics(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Point-in-time values, grouped by instrument type (JSON-able)."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            if metric.kind == "counter":
                out["counters"][metric.name] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][metric.name] = metric.value
            else:
                out["histograms"][metric.name] = metric.snapshot()
        return out


# -- Prometheus text exposition ----------------------------------------

def _prom_name(*parts: str) -> str:
    name = "_".join(part for part in parts if part)
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char in "_:":
            out.append(char)
        else:
            out.append("_")
    name = "".join(out)
    if name and name[0].isdigit():
        name = "_" + name
    return name or "_"


def _prom_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def render_prometheus(groups: Iterable[Tuple[str, Union[Registry, Mapping]]],
                      ) -> str:
    """Render ``(prefix, registry-or-scalar-dict)`` groups as exposition.

    A plain mapping renders its numeric values as gauges — the escape
    hatch for point-in-time state (queue depth, recorder counts) that is read
    from live structures rather than kept in an instrument.
    """
    lines: List[str] = []
    for prefix, source in groups:
        if isinstance(source, Registry):
            for metric in source.metrics():
                name = _prom_name(prefix, metric.name)
                if metric.kind == "counter":
                    if not name.endswith("_total"):
                        name += "_total"
                    lines.append(f"# TYPE {name} counter")
                    lines.append(f"{name} {metric.value}")
                elif metric.kind == "gauge":
                    lines.append(f"# TYPE {name} gauge")
                    lines.append(f"{name} {_prom_float(metric.value)}")
                else:
                    snap = metric.snapshot()
                    lines.append(f"# TYPE {name} histogram")
                    cumulative = 0
                    for bound, count in zip(snap["bounds"], snap["counts"]):
                        cumulative += count
                        lines.append(f'{name}_bucket{{le="'
                                     f'{_prom_float(bound)}"}} {cumulative}')
                    cumulative += snap["counts"][-1]
                    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                    lines.append(f"{name}_sum {_prom_float(snap['sum'])}")
                    lines.append(f"{name}_count {snap['count']}")
        else:
            for key in sorted(source):
                value = source[key]
                if isinstance(value, bool):
                    value = int(value)
                if not isinstance(value, (int, float)):
                    continue
                name = _prom_name(prefix, key)
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_prom_float(value)}")
    return "\n".join(lines) + "\n"
