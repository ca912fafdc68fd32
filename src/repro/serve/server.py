"""Inference server core: store + scheduler + optional screening.

:class:`InferenceServer` is the transport-agnostic heart of
``repro serve``: it resolves requests against a :class:`ModelStore`,
pushes them through the :class:`MicroBatcher` (one forward per
coalesced group, on the per-version folded copy), and optionally
screens every served batch with :class:`OnlineStrip`, whose blend rows
ride in that same forward.  The stdlib HTTP front end
(:mod:`repro.serve.http`) and the in-process test/bench paths both
drive this same object, so behaviour is identical with and without the
network in the loop.

Forward passes run without tape construction even though the scheduler
thread never touches the global ``no_grad`` switch: the folded
inference copies freeze every parameter, so the autograd layer records
nothing.  That keeps serving re-entrant with training happening
elsewhere in the process.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..nn.tensor import Tensor
from ..obs import trace as _trace
from ..obs.metrics import Registry, render_prometheus
from .batcher import BatchPolicy, MicroBatcher, QueueFullError
from .cache import ResponseCache, input_digest
from .screening import OnlineStrip
from .store import ModelKey, ModelStore


@dataclass
class PredictResult:
    """One served prediction (the JSON shape of ``/predict``)."""

    model: str
    version: str
    logits: np.ndarray
    labels: np.ndarray
    screening: Optional[Dict[str, list]] = None
    cached: bool = False

    def to_json(self) -> dict:
        payload = {
            "model": self.model,
            "version": self.version,
            "labels": self.labels.tolist(),
            "logits": self.logits.tolist(),
            "cached": self.cached,
        }
        if self.screening is not None:
            payload["screening"] = self.screening
        return payload

    def clone(self, cached: Optional[bool] = None) -> "PredictResult":
        """Independent copy (cache hits must never alias cached arrays)."""
        return PredictResult(
            model=self.model, version=self.version,
            logits=self.logits.copy(), labels=self.labels.copy(),
            screening=None if self.screening is None
            else {name: (list(values) if isinstance(values, list) else values)
                  for name, values in self.screening.items()},
            cached=self.cached if cached is None else cached)


class ServerStats:
    """Request-outcome counters, backed by a typed metrics registry.

    ``begin()`` counts every arrival before its outcome is known;
    outcomes are exactly one of ``served`` / ``rejected`` (backpressure)
    / ``invalid`` (unknown model, malformed payload) / ``failed``
    (everything else), so ``total == served + rejected + invalid +
    failed`` is an exit invariant the smoke lanes assert.
    """

    def __init__(self):
        self.registry = Registry()
        self._total = self.registry.counter("total")
        self._served = self.registry.counter("served")
        self._rejected = self.registry.counter("rejected")
        self._invalid = self.registry.counter("invalid")
        self._failed = self.registry.counter("failed")
        self.latency = self.registry.histogram("predict_latency_s")

    @property
    def served(self) -> int:
        return self._served.value

    def begin(self) -> None:
        self._total.inc()

    def bump(self, outcome: str) -> None:
        getattr(self, f"_{outcome}").inc()

    def snapshot(self) -> dict:
        return {"total": self._total.value, "served": self._served.value,
                "rejected": self._rejected.value,
                "invalid": self._invalid.value,
                "failed": self._failed.value}


class _StoreScreen:
    """The batcher's view of an :class:`OnlineStrip`: each key screens
    against the store's folded copy of that version."""

    def __init__(self, strip: OnlineStrip, store: ModelStore):
        self.strip = strip
        self.store = store

    def rows(self, key: ModelKey, images: np.ndarray) -> np.ndarray:
        return self.strip.rows(key, self.store.folded(*key), images)

    def score(self, key: ModelKey, images: np.ndarray,
              blend_logits: np.ndarray) -> Dict[str, np.ndarray]:
        return self.strip.score(key, self.store.folded(*key), images,
                                blend_logits)


class InferenceServer:
    """Micro-batched prediction service over a :class:`ModelStore`.

    Parameters
    ----------
    store:
        The shared model store; hot-swaps through it are visible to the
        next submitted request.
    policy:
        Batch coalescing policy (see :class:`BatchPolicy`).
    screening:
        Optional :class:`OnlineStrip`; when present every served batch
        is entropy-scored and responses carry per-input flags.
    response_cache:
        Entry capacity of the exact-response LRU (0 disables caching).
        Hits short-circuit the scheduler entirely — they consume no
        queue slot and run no forward.
    prefetch_replicas:
        Warm every registered version *before* its first request
        (default on): at construction / registration time the folded
        copy is built (and compiled), the STRIP screen calibrates, and
        — for entries registered with an ``input_shape`` — one
        fixed-compute-width warm-up forward runs in this process, so
        the first real batch pays no cold-start spike.  The lazy path
        stays as a safety net either way.
    compile_models:
        Compile every entry that declares an ``input_shape`` into a
        fused/arena program at the serving width
        (:func:`repro.nn.compile`) during prefetch, and serve through
        it (default on).  Logits are bit-identical either way — a trace
        failure warns once and falls back to the interpreted path.
    """

    def __init__(self, store: ModelStore,
                 policy: BatchPolicy = BatchPolicy(),
                 screening: Optional[OnlineStrip] = None,
                 response_cache: int = 0,
                 prefetch_replicas: bool = True,
                 compile_models: bool = True):
        self.store = store
        self.policy = policy
        self.screening = screening
        self.compile_models = compile_models
        self.stats = ServerStats()
        self.cache = (ResponseCache(response_cache)
                      if response_cache else None)
        self.batcher = MicroBatcher(
            self._infer, policy,
            screen=(_StoreScreen(screening, store)
                    if screening is not None else None))
        self.prefetch_replicas = prefetch_replicas
        # Online unlearning plane (attach_forget); ``/v1/forget`` 404s
        # until one is attached.
        self.forget_plane = None
        self._closing = False
        self._warm_lock = threading.Lock()
        self._warmed_inline: set = set()
        if prefetch_replicas:
            # Everything registered so far, then everything registered
            # (or hot-swapped) while this server lives.  A failed
            # prefetch fails construction loudly — but never leaks the
            # scheduler thread started above.
            try:
                for entry in store.all_entries():
                    self._prefetch_entry(entry)
            except BaseException:
                self.close()
                raise
            store.subscribe(self._on_store_event)

    # -- prefetch / warm-up --------------------------------------------
    def _on_store_event(self, event: str, entry) -> None:
        if not self._closing:
            self._prefetch_entry(entry)

    def _prefetch_entry(self, entry) -> None:
        """Make ``entry`` fully warm before any request names it.

        Builds (and compiles) the folded copy, calibrates the screening
        boundary, and runs one forward at the fixed compute width —
        after this, the first real request for the version does no lazy
        work at all.
        """
        key = entry.key
        self._ensure_compiled(entry)
        folded = entry.folded()          # build the folded copy now
        if self.screening is not None:
            self.screening.ensure_bound(key, folded)
        if entry.input_shape is None:
            return                       # no shape, no warm-up forward
        width = self.policy.max_batch_size
        mark = (key, (width,) + tuple(entry.input_shape))
        with self._warm_lock:
            if mark in self._warmed_inline:
                return
            self._warmed_inline.add(mark)
        batch = np.zeros((width,) + tuple(entry.input_shape),
                         dtype=np.float32)
        folded(Tensor(batch))

    def _ensure_compiled(self, entry) -> None:
        """Compile ``entry`` at the serving width when the knob is on
        and the input shape was registered.  Never raises: compilation failures surface as a
        one-time warning inside :func:`repro.nn.compile` and the entry
        keeps serving interpreted."""
        if not self.compile_models:
            return
        if entry.input_shape is None:
            return                       # no shape → nothing to trace
        entry.ensure_compiled(self.policy.max_batch_size)

    # -- scheduler callbacks -------------------------------------------
    def _infer(self, key: ModelKey, batch: np.ndarray) -> np.ndarray:
        return self.store.entry(*key).executable()(Tensor(batch)).data

    # -- public API ----------------------------------------------------
    def predict(self, model: str, images: np.ndarray,
                version: Optional[str] = None,
                timeout: float = 60.0,
                trace: Optional[str] = None) -> PredictResult:
        """Serve one request (blocking until its batch is run).

        Unversioned requests pin the *currently* active version at
        submission, so a hot-swap never splits a request across models
        and in-flight requests are unaffected by later swaps.

        ``trace`` is the request's 64-bit trace id (minted by the HTTP
        front end; minted here when absent); every
        span this request produces — queue wait, coalesce, dispatch —
        carries it.

        Raises :class:`KeyError` for unknown models/versions,
        ``ValueError`` for malformed payloads and
        :class:`~repro.serve.batcher.QueueFullError` on backpressure.
        """
        trace = _trace.coerce_trace_id(trace)
        self.stats.begin()
        started = time.perf_counter()
        with _trace.span("server.predict", trace=trace, model=model) as tags:
            try:
                result = self._predict(model, images, version, timeout, trace)
            except QueueFullError:
                self.stats.bump("rejected")
                if tags is not None:
                    tags["outcome"] = "rejected"
                raise
            except (KeyError, ValueError):
                self.stats.bump("invalid")
                if tags is not None:
                    tags["outcome"] = "invalid"
                raise
            except Exception:
                self.stats.bump("failed")
                if tags is not None:
                    tags["outcome"] = "failed"
                raise
            self.stats.bump("served")
            self.stats.latency.observe(time.perf_counter() - started)
            if tags is not None:
                tags["outcome"] = "cached" if result.cached else "served"
            return result

    def _predict(self, model: str, images: np.ndarray,
                 version: Optional[str], timeout: float,
                 trace: str) -> PredictResult:
        key = self.store.resolve(model, version)
        digest = None
        if self.cache is not None:
            # Normalize exactly as the batcher will, so the digest keys
            # on what would actually be forwarded.
            normalized = np.ascontiguousarray(images, dtype=np.float32)
            if normalized.ndim == 3:
                normalized = normalized[None]
            digest = input_digest(normalized)
            hit = self.cache.get((key, digest))
            if hit is not None:
                # Exact by the determinism contract: a fresh forward of
                # these bytes at this version could not differ.  No
                # queue slot, no forward, no backpressure exposure.
                return hit.clone(cached=True)
        # Lazy-path safety net (prefetch normally did this).
        self._ensure_compiled(self.store.entry(*key))
        if self.screening is not None:
            # Calibrate the screen for this version here, in the caller's
            # thread, so the first request after a hot-swap never stalls
            # the batcher thread (and everyone queued behind it).
            self.screening.ensure_bound(key, self.store.folded(*key))
        future = self.batcher.submit(key, images, trace=trace)
        output = future.result(timeout=timeout)
        screening = None
        if output.extra:
            screening = {
                "entropy": np.round(output.extra["entropy"], 6).tolist(),
                "flagged": output.extra["flagged"].astype(bool).tolist(),
                "boundary": float(output.extra["boundary"][0]),
            }
        result = PredictResult(model=key[0], version=key[1],
                               logits=output.logits,
                               labels=output.logits.argmax(axis=1),
                               screening=screening)
        if self.cache is not None and digest is not None:
            self.cache.put((key, digest), result.clone())
        return result

    def compile_model(self, name: str, version: Optional[str] = None) -> dict:
        """Compile ``name/version`` at the serving width (``/v1/compile``).

        Explicit admin trigger — works even with ``compile_models``
        off.  Returns the JSON-ready compilation report.

        Raises :class:`KeyError` for unknown models/versions and
        ``ValueError`` when the entry registered no ``input_shape`` (no
        shape → nothing to trace).
        """
        key = self.store.resolve(name, version)
        entry = self.store.entry(*key)
        if entry.input_shape is None:
            raise ValueError(
                f"cannot compile {key[0]}/{key[1]}: no input_shape was "
                f"registered for it")
        compiled = entry.ensure_compiled(self.policy.max_batch_size)
        report = {"model": key[0], "version": key[1],
                  "compiled": entry.compiled,
                  "plan": entry.plan_summary()}
        if compiled.fallback_reason is not None:
            report["fallback"] = str(compiled.fallback_reason)
        return report

    def health(self) -> dict:
        """Liveness report (drives ``/healthz``): the process answers,
        so ``status`` is ``"ok"``, with the registered model names."""
        return {"status": "ok", "models": self.store.names()}

    def metrics(self) -> dict:
        """JSON-ready metrics for ``/metrics``."""
        payload = {
            "requests": self.stats.snapshot(),
            "batcher": self.batcher.stats(),
            "policy": {
                "max_batch_size": self.policy.max_batch_size,
                "max_delay_ms": self.policy.max_delay_ms,
                "max_queue": self.policy.max_queue,
            },
            "models": self.store.describe(),
            "prefetch": {
                "enabled": self.prefetch_replicas,
                "warmed_inline": len(self._warmed_inline),
            },
            "compile": {
                "enabled": self.compile_models,
                "compiled_versions": sum(
                    1 for entry in self.store.all_entries()
                    if entry.compiled),
            },
        }
        if self.cache is not None:
            payload["response_cache"] = self.cache.stats()
        if self.screening is not None:
            payload["screening"] = self.screening.report()
        if self.forget_plane is not None:
            payload["forget"] = self.forget_plane.stats()
        payload["obs"] = {
            "latency": self.stats.registry.snapshot()["histograms"].get(
                "predict_latency_s", {}),
            "recorder": _trace.RECORDER.stats(),
            "tracing": _trace.tracing_enabled(),
        }
        return payload

    def prometheus(self) -> str:
        """Prometheus text exposition for ``/metrics.prom``.

        Composes every registry this server owns — request outcomes,
        batcher, forget plane — plus the flight recorder's own counters,
        under stable name prefixes.
        """
        groups = [
            ("reveil_requests", self.stats.registry),
            ("reveil_batcher", self.batcher.registry),
            ("reveil_recorder", _trace.RECORDER.stats()),
        ]
        if self.forget_plane is not None:
            groups.append(("reveil_forget", self.forget_plane.registry))
        return render_prometheus(groups)

    def attach_forget(self, plane) -> None:
        """Attach an online unlearning plane (``/v1/forget`` backing).

        Versions the plane publishes register into this server's store,
        so the existing prefetch subscription warms the retrained
        version *before* the swap flips unversioned traffic onto it —
        that is what keeps predict latency flat through a forget round.
        The server owns the plane from here on: ``close()`` drains it.
        """
        self.forget_plane = plane

    def close(self) -> None:
        """Drain the forget plane, then the scheduler.

        Order matters: the forget plane publishes through the store and
        batcher, so it drains first.
        """
        self._closing = True     # store events must stop warming versions
        if self.forget_plane is not None:
            self.forget_plane.close()
        if self.prefetch_replicas:
            self.store.unsubscribe(self._on_store_event)
        self.batcher.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
