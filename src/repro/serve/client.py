"""HTTP client + closed-loop load generator for the serving layer.

:class:`ServingClient` is a thin stdlib (``http.client``) wrapper over
the front end's JSON endpoints; :func:`run_load` drives it with ``N``
concurrent closed-loop workers firing single-image requests — the
traffic shape micro-batching exists for — and reports throughput,
latency percentiles and response-derived statistics (label counts,
screening flags).  ``repro client`` and ``benchmarks/bench_serving.py``
are both built on it, as is the tier-2 CI serving smoke gate.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from urllib.parse import urlparse

import numpy as np

from ..obs.backoff import backoff_delay
from .http import API_PREFIX


@dataclass(frozen=True)
class ModelVersionEntry:
    """One model version from ``GET /v1/models``, typed.

    ``plan`` is the compact compiled-plan summary (``ops`` / ``fused``
    / ``arena_bytes``) or ``None`` while the version serves
    interpreted.  ``arena_bytes`` is the size of the arena the version
    replays in; every program of that size shares it.  ``metadata`` is the registration metadata with the
    additive ``compiled``/``plan`` wire keys stripped back out.
    """

    name: str
    version: str
    active: bool
    compiled: bool
    plan: Optional[dict]
    metadata: Dict[str, str]


class ServingError(RuntimeError):
    """Non-2xx response from the serving front end.

    Carries the HTTP ``status`` plus — when the server answered with
    the ``/v1`` error envelope — the machine-readable ``code`` and the
    request's ``trace_id`` (pull exactly this request's spans from
    ``/v1/debug/traces?trace=<id>``).
    """

    def __init__(self, status: int, message: str,
                 code: Optional[str] = None,
                 trace_id: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code
        self.trace_id = trace_id


class ServingClient:
    """Client for one serving endpoint (e.g. ``http://127.0.0.1:8351``).

    All endpoint methods (``predict`` / ``forget`` / ``activate`` /
    ``health`` / …) ride one request core that speaks the versioned
    ``/v1`` API and understands the unified error envelope.
    Connections are per-call (the load generator opens one per worker
    thread through ``http.client`` anyway), which keeps the client
    trivially thread-safe.
    """

    def __init__(self, url: str, timeout: float = 60.0,
                 retry_resets: int = 1):
        parsed = urlparse(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// endpoints are supported, got {url}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        #: Per-request socket timeout: a stalled server fails the call
        #: instead of hanging a closed-loop worker (and the whole load
        #: run behind it) forever.
        self.timeout = timeout
        #: Extra attempts after a connection reset / server-side hangup.
        #: Serving is deterministic, so the retry returns the same bits
        #: the aborted attempt would have.
        self.retry_resets = max(0, int(retry_resets))

    # -- transport -----------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: Optional[float] = None) -> dict:
        """One logical round-trip, retrying connection resets.

        ``path`` is the endpoint name (``/predict``); the ``/v1`` prefix
        is prepended here — the one request core every endpoint method
        rides.  A server restarting (or an OS reclaiming sockets under
        pressure) shows up client-side as a reset or
        mid-response hangup; those retry up to
        ``retry_resets`` times.  Anything still failing is normalized
        into :class:`ServingError` / ``OSError`` so callers — the load
        generator's worker threads in particular — only ever see those
        two."""
        path = f"{API_PREFIX}{path}"
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retry_resets + 1):
            try:
                return self._request_once(method, path, payload,
                                          timeout=timeout)
            except (ConnectionResetError, BrokenPipeError,
                    http.client.RemoteDisconnected) as exc:
                last_exc = exc
                if attempt < self.retry_resets:
                    # Deterministic sha1-jitter curve (repro.obs.backoff);
                    # keyed by path so concurrent workers don't
                    # thundering-herd.
                    time.sleep(backoff_delay(attempt + 1,
                                             base_delay_s=0.05,
                                             max_delay_s=1.0,
                                             token=path))
        raise ServingError(
            0, f"connection reset after {self.retry_resets + 1} attempts: "
               f"{last_exc}") from last_exc

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None,
                      timeout: Optional[float] = None) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionResetError, BrokenPipeError,
                    http.client.RemoteDisconnected):
                raise       # retried by _request
            except http.client.HTTPException as exc:
                raise ServingError(
                    0, f"malformed HTTP response: {exc}") from exc
            try:
                data = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                raise ServingError(
                    response.status,
                    f"non-JSON response body ({len(raw)} bytes)") from exc
            if not isinstance(data, dict):
                raise ServingError(response.status,
                                   "response body is not a JSON object")
            if response.status >= 300:
                raise self._error_from(response.status, data)
            return data
        finally:
            conn.close()

    @staticmethod
    def _error_from(status: int, data: dict) -> ServingError:
        """Build a :class:`ServingError` from an error response body.

        Every server error is the ``{"error": {code, message, trace_id}}``
        envelope; a body without it maps to a bare "request failed".
        """
        err = data.get("error")
        if not isinstance(err, dict):
            return ServingError(status, "request failed")
        return ServingError(status, str(err.get("message", "request failed")),
                            code=err.get("code"), trace_id=err.get("trace_id"))

    # -- endpoints -----------------------------------------------------
    def predict(self, model: str, images: np.ndarray,
                version: Optional[str] = None) -> dict:
        payload = {"model": model, "inputs": np.asarray(images).tolist()}
        if version is not None:
            payload["version"] = version
        return self._request("POST", "/predict", payload)

    def forget(self, user, sample_ids, wait: bool = True,
               timeout: float = 120.0) -> dict:
        """Submit a deletion request to the online unlearning plane.

        With ``wait`` (default) the call blocks until the covering
        retrain round's version is live and returns the full outcome —
        version, shards retrained, deletion-to-swap latency; without it
        the server acknowledges with 202 once the request is queued.
        Raises :class:`ServingError` with ``code`` ``rate_limited``
        (429) / ``deletion_flagged`` (403) / ``backpressure`` (429) on
        guard or queue refusals.
        """
        payload = {"user": user,
                   "sample_ids": [int(i) for i in sample_ids],
                   "wait": wait, "timeout": timeout}
        # The socket must outlive the server-side wait for the swap.
        return self._request("POST", "/forget", payload,
                             timeout=timeout + self.timeout)

    def health(self) -> dict:
        """Liveness + model listing (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def models(self) -> List[ModelVersionEntry]:
        """Typed model listing (``GET /models``), name/version order."""
        entries = []
        for name, info in sorted(self.models_json().items()):
            active = info.get("active")
            for version, meta in sorted(info.get("versions", {}).items()):
                meta = dict(meta)
                compiled = bool(meta.pop("compiled", False))
                plan = meta.pop("plan", None)
                entries.append(ModelVersionEntry(
                    name=name, version=version, active=version == active,
                    compiled=compiled, plan=plan, metadata=meta))
        return entries

    def models_json(self) -> dict:
        """The raw ``GET /models`` wire payload (legacy dict shape)."""
        return self._request("GET", "/models")

    def activate(self, model: str, version: str) -> dict:
        return self._request("POST", "/activate",
                             {"model": model, "version": version})

    def compile(self, model: str, version: Optional[str] = None) -> dict:
        """Trigger server-side compilation (``POST /compile``).

        Returns the compilation report: ``compiled`` (bool), the plan
        summary, and — when compilation fell back to the interpreted
        path — the ``fallback`` reason.  Raises :class:`ServingError`
        with ``code`` ``bad_request`` when the version has no
        registered input shape and ``not_found`` for unknown models.
        """
        payload: dict = {"model": model}
        if version is not None:
            payload["version"] = version
        return self._request("POST", "/compile", payload)


@dataclass
class LoadReport:
    """Outcome of one :func:`run_load` run."""

    requests: int
    ok: int
    rejected: int            # 429s (backpressure)
    errors: int              # anything else
    seconds: float
    latencies_s: List[float] = field(default_factory=list)
    label_counts: Dict[int, int] = field(default_factory=dict)
    flagged: int = 0
    screened: int = 0

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.seconds if self.seconds > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.quantile(np.array(self.latencies_s), q))

    @property
    def p50_ms(self) -> float:
        return self.latency_quantile(0.5) * 1e3

    @property
    def p95_ms(self) -> float:
        return self.latency_quantile(0.95) * 1e3

    def label_fraction(self, label: int) -> float:
        """Fraction of successful responses predicting ``label`` —
        served-traffic ASR when the load is triggered images."""
        total = sum(self.label_counts.values())
        return self.label_counts.get(label, 0) / total if total else 0.0

    def summary(self) -> str:
        flag = (f", flagged {self.flagged}/{self.screened}"
                if self.screened else "")
        return (f"{self.ok}/{self.requests} ok "
                f"({self.rejected} rejected, {self.errors} errors) in "
                f"{self.seconds:.2f}s — {self.throughput_rps:.1f} req/s, "
                f"p50 {self.p50_ms:.1f}ms, p95 {self.p95_ms:.1f}ms{flag}")


def run_load(client: ServingClient, model: str, images: np.ndarray,
             requests: int, concurrency: int = 4,
             version: Optional[str] = None) -> LoadReport:
    """Fire ``requests`` single-image predicts from closed-loop workers.

    Worker ``w`` serves request indices ``w, w+C, w+2C, ...`` round-robin
    over ``images``, so the request mix is deterministic for a given
    (requests, concurrency) pair even though arrival interleaving — and
    therefore batch composition — is not.  The batcher's fixed-width
    contract is exactly what makes that interleaving irrelevant to the
    returned logits.
    """
    if requests < 1 or concurrency < 1:
        raise ValueError("requests and concurrency must be >= 1")
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4 or len(images) == 0:
        raise ValueError("images must be a non-empty (N, C, H, W) array")

    lock = threading.Lock()
    report = LoadReport(requests=requests, ok=0, rejected=0, errors=0,
                        seconds=0.0)

    def worker(offset: int) -> None:
        for index in range(offset, requests, concurrency):
            image = images[index % len(images)]
            start = time.perf_counter()
            try:
                response = client.predict(model, image, version=version)
            except ServingError as exc:
                with lock:
                    if exc.status == 429:
                        report.rejected += 1
                    else:
                        report.errors += 1
                continue
            except OSError:
                with lock:
                    report.errors += 1
                continue
            latency = time.perf_counter() - start
            label = int(response["labels"][0])
            screening = response.get("screening")
            with lock:
                report.ok += 1
                report.latencies_s.append(latency)
                report.label_counts[label] = \
                    report.label_counts.get(label, 0) + 1
                if screening is not None:
                    report.screened += 1
                    report.flagged += int(screening["flagged"][0])

    threads = [threading.Thread(target=worker, args=(offset,), daemon=True)
               for offset in range(concurrency)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.seconds = time.perf_counter() - start
    return report
