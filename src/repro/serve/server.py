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

Forward passes run without tape construction even though the worker
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
from ..parallel.pool import resolve_workers
from ..reliability import ReliabilityConfig
from ..reliability import faults as _faults
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
    workers:
        Execution backend width: 1 (default) runs forwards inline in
        the scheduler thread; >= 2 dispatches fixed-width batches over
        that many persistent worker processes, each holding its own
        folded replica per version
        (:class:`~repro.serve.multiproc.MultiprocBackend`); 0 = one per
        available core.  Logits are bit-identical at every setting.
    response_cache:
        Entry capacity of the exact-response LRU (0 disables caching).
        Hits short-circuit the scheduler entirely — they consume no
        queue slot and run no forward.
    mp_context:
        multiprocessing start method for the worker processes.
    prefetch_replicas:
        Warm every registered version *before* its first request
        (default on): replicas ship to all worker processes at
        construction / registration time instead of lazily, the STRIP
        screen calibrates, and — for entries registered with an
        ``input_shape`` — one fixed-compute-width warm-up forward runs
        per worker (or inline), so the first real batch pays no
        cold-start spike.  The lazy path stays as a safety net either
        way.
    reliability:
        :class:`~repro.reliability.ReliabilityConfig` for the
        multi-process backend: per-batch retry policy, worker failure
        thresholds / respawn budgets / breaker cooldowns, and the
        degrade-to-inline switch.  The server always passes its own
        inline forward as the degradation fallback, so an all-workers
        -dead backend keeps answering (slower, never down,
        bit-identical by the fingerprint contract).
    compile_models:
        Compile every entry that declares an ``input_shape`` into a
        fused/arena program at the serving width
        (:func:`repro.nn.compile`) during prefetch, and serve through
        it (default on).  The compiled plan ships to worker processes
        with the replica payload, so workers compile the same width and
        input shape.  Logits are bit-identical either way — a trace
        failure warns once and falls back to the interpreted path.
    """

    def __init__(self, store: ModelStore,
                 policy: BatchPolicy = BatchPolicy(),
                 screening: Optional[OnlineStrip] = None,
                 workers: int = 1,
                 response_cache: int = 0,
                 mp_context: Optional[str] = None,
                 prefetch_replicas: bool = True,
                 reliability: Optional[ReliabilityConfig] = None,
                 compile_models: bool = True):
        self.store = store
        self.policy = policy
        self.screening = screening
        self.compile_models = compile_models
        self.stats = ServerStats()
        self.workers = resolve_workers(workers)
        self.reliability = reliability or ReliabilityConfig()
        self.backend = None
        if self.workers > 1:
            from .multiproc import MultiprocBackend
            self.backend = MultiprocBackend(self.workers, context=mp_context,
                                            reliability=self.reliability,
                                            fallback_fn=self._infer)
        self.cache = (ResponseCache(response_cache)
                      if response_cache else None)
        self.batcher = MicroBatcher(
            self._infer, policy, backend=self.backend,
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
            # worker processes and shm lanes built above.
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

        Ships the replica to every worker process (shared-memory state
        transport), calibrates the screening boundary, and runs one
        forward at the fixed compute width per worker — after this, the
        first real request for the version does no lazy work at all.
        """
        key = entry.key
        # Compile *before* the replica ships: the plan rides the
        # payload, so workers build the same program.
        self._ensure_compiled(entry)
        if self.backend is not None:
            self.backend.ensure_loaded(key, entry)
        else:
            self.store.folded(*key)      # build the folded copy now
        if self.screening is not None:
            self.screening.ensure_bound(key, self.store.folded(*key))
        if entry.input_shape is None:
            return                       # no shape, no warm-up forward
        width = self.policy.max_batch_size
        if self.backend is not None:
            self.backend.warm_up(key, entry.input_shape, width)
            return
        mark = (key, (width,) + tuple(entry.input_shape))
        with self._warm_lock:
            if mark in self._warmed_inline:
                return
            self._warmed_inline.add(mark)
        batch = np.zeros((width,) + tuple(entry.input_shape),
                         dtype=np.float32)
        self.store.folded(*key)(Tensor(batch))

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
        front end or the cluster router; minted here when absent); every
        span this request produces — queue wait, coalesce, dispatch,
        worker call — carries it.

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
        # Lazy-path safety net (prefetch normally did all of this):
        # compile first so a worker payload carries the plan too.
        entry = self.store.entry(*key)
        self._ensure_compiled(entry)
        if self.backend is not None:
            # Ship this version's replica to the worker processes on
            # first use (once per version; cheap membership check after).
            self.backend.ensure_loaded(key, entry)
        if self.screening is not None:
            # Calibrate the screen for this version here, in the caller's
            # thread, so the first request after a hot-swap never stalls
            # the batcher worker (and everyone queued behind it).
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
        off.  When the multi-process backend is up, the resulting plan
        is pushed to every worker so they rebuild their replicas as the
        same fused/arena program.
        Returns the JSON-ready compilation report.

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
        plan = entry.plan()
        if self.backend is not None and plan is not None:
            self.backend.ensure_loaded(key, entry)
            self.backend.compile_key(key, plan)
        report = {"model": key[0], "version": key[1],
                  "compiled": entry.compiled,
                  "plan": entry.plan_summary()}
        if compiled.fallback_reason is not None:
            report["fallback"] = str(compiled.fallback_reason)
        return report

    def health(self) -> dict:
        """Liveness + readiness report (drives ``/healthz`` and ``/readyz``).

        ``status`` is ``"ok"`` at full capacity and ``"degraded"`` while
        the multi-process pool has every worker ejected and requests are
        served through the inline fallback.  Liveness holds either way
        — degraded serving still answers, bit-identically — but
        ``ready`` goes false so a load balancer can drain traffic until
        a probe respawn re-promotes the pool.
        """
        degraded = bool(self.backend is not None
                        and getattr(self.backend, "degraded", False))
        report = {
            "status": "degraded" if degraded else "ok",
            "ready": not degraded,
            "models": self.store.names(),
        }
        if self.backend is not None:
            backend_stats = self.backend.stats()
            total = backend_stats.get("workers", self.workers)
            report["workers"] = {
                "total": total,
                # Default from the same source as "total": a backend
                # that reports neither key must not make a pool look
                # healthier (or sicker) than its own worker count.
                "active": backend_stats.get("active_workers", total),
                "ejections": backend_stats.get("ejections", 0),
                "repromotions": backend_stats.get("repromotions", 0),
            }
        return report

    def metrics(self) -> dict:
        """JSON-ready metrics for ``/metrics``."""
        payload = {
            "requests": self.stats.snapshot(),
            "batcher": self.batcher.stats(),
            "backend": self.batcher.backend.stats(),
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
        payload["reliability"] = {
            "degraded": bool(self.backend is not None
                             and getattr(self.backend, "degraded", False)),
            "retry_max_attempts": self.reliability.retry.max_attempts,
            "call_deadline_s": self.reliability.retry.deadline_s,
            "failure_threshold": self.reliability.failure_threshold,
            "respawn_budget": self.reliability.respawn_budget,
            "breaker_cooldown_s": self.reliability.breaker_cooldown_s,
            "degrade_to_inline": self.reliability.degrade_to_inline,
        }
        injector = _faults.active_injector()
        if injector is not None:
            payload["fault_injection"] = injector.stats()
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
        batcher, execution backend, worker ship-backs — plus the flight
        recorder's own counters, under stable name prefixes.
        """
        groups = [
            ("reveil_requests", self.stats.registry),
            ("reveil_batcher", self.batcher.registry),
            ("reveil_recorder", _trace.RECORDER.stats()),
        ]
        backend_registry = getattr(self.batcher.backend, "registry", None)
        if backend_registry is not None:
            groups.append(("reveil_backend", backend_registry))
        worker_registry = getattr(self.batcher.backend,
                                  "worker_registry", None)
        if worker_registry is not None:
            groups.append(("reveil_worker", worker_registry))
        if self.forget_plane is not None:
            groups.append(("reveil_forget", self.forget_plane.registry))
        return render_prometheus(groups)

    def attach_forget(self, plane) -> None:
        """Attach an online unlearning plane (``/v1/forget`` backing).

        Versions the plane publishes register into this server's store,
        so the existing prefetch subscription warms the retrained
        replica *before* the swap flips unversioned traffic onto it —
        that is what keeps predict latency flat through a forget round.
        The server owns the plane from here on: ``close()`` drains it.
        """
        self.forget_plane = plane

    def close(self) -> None:
        """Drain the scheduler, then stop the execution backend.

        Order matters: the forget plane publishes through the store and
        batcher, so it drains first; the batcher drain then waits for
        in-flight batches, which need the workers still alive.
        """
        self._closing = True     # store events must stop warming workers
        if self.forget_plane is not None:
            self.forget_plane.close()
        if self.prefetch_replicas:
            self.store.unsubscribe(self._on_store_event)
        self.batcher.close()
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
