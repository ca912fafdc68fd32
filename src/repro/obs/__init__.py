"""``repro.obs`` — the unified observability plane.

One substrate for everything the serving and training layers
report about themselves:

- :mod:`repro.obs.metrics` — typed :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments behind per-component
  :class:`Registry` objects, with deterministic log-spaced histogram
  buckets, and a Prometheus text renderer for ``/v1/metrics.prom``;
- :mod:`repro.obs.trace` — 64-bit request trace ids propagated HTTP
  front end → batcher, span records collected into the bounded
  process-local :data:`~repro.obs.trace.RECORDER` flight recorder,
  dumpable via ``GET /v1/debug/traces``;
- :mod:`repro.obs.profile` — per-phase wall/CPU timers (batcher
  dispatch, conv kernels), off by default and
  zero-cost when off (one module-attr ``None`` check per site);
- :mod:`repro.obs.backoff` — the deterministic sha1-jitter backoff
  behind the serving client's retry loop.

Dependency-free by design (stdlib only): any layer may import it
without cycles.
"""

from .backoff import backoff_delay, jitter_unit
from .metrics import (DEFAULT_BUCKET_BOUNDS, Counter, Gauge, Histogram,
                      Registry, render_prometheus)
from .profile import PhaseProfiler, profiled
from .trace import (RECORDER, TRACE_HEADER, FlightRecorder, coerce_trace_id,
                    mint_trace_id, record_span, set_tracing, span,
                    tracing_enabled, valid_trace_id)

__all__ = [
    "Counter", "Gauge", "Histogram", "Registry", "render_prometheus",
    "DEFAULT_BUCKET_BOUNDS",
    "FlightRecorder", "RECORDER", "TRACE_HEADER", "span", "record_span",
    "mint_trace_id", "coerce_trace_id", "valid_trace_id",
    "set_tracing", "tracing_enabled",
    "PhaseProfiler", "profiled",
    "backoff_delay", "jitter_unit",
]
