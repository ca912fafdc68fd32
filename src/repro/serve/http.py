"""Stdlib HTTP front end for the inference server.

The API is mounted under a versioned prefix and driven by a declarative
route table — every endpoint is one :class:`Route` entry, shared by this
front end and the cluster router front end, so new endpoints (like
``/v1/forget``) are one-line registrations instead of another branch in
an if/elif chain.

Endpoints (all JSON, canonical under ``/v1``; the legacy unprefixed
paths remain as aliases answering identically but with a
``Deprecation: true`` response header):

- ``POST /v1/predict`` — ``{"model": str, "version"?: str, "inputs":
  nested lists (C,H,W) or (N,C,H,W)}`` → logits, argmax labels, the
  served version and (when screening is on) per-input STRIP flags.
  ``429`` with ``Retry-After`` under backpressure, ``404`` for unknown
  models/versions, ``400`` for malformed payloads.
- ``POST /v1/forget`` — ``{"user": str|int, "sample_ids": [int, ...],
  "wait"?: bool}`` — the online unlearning plane: the request is
  screened (rate limits, suspicion flags), coalesced per SISA shard,
  retrained in the background and hot-swapped into serving.  ``404``
  when no forget plane is attached or an id is unknown, ``429`` when the
  user's deletion rate or the queue bound is exceeded, ``403`` when the
  guard runs in enforce mode and flags the request.
- ``POST /v1/activate`` — ``{"model": str, "version": str}`` hot-swaps
  the active version; subsequent unversioned requests hit the new one.
- ``POST /v1/compile`` — ``{"model": str, "version"?: str}`` compiles
  the version into a fused/arena program at the serving width
  (:func:`repro.nn.compile`) and pushes the plan to every serving
  worker; answers with the compilation report (``compiled``/``plan``).
  ``400`` when the entry registered no input shape.
- ``GET /v1/healthz`` — liveness + registered model names.  Always
  ``200`` while the process answers; ``status`` reads ``"degraded"``
  (with worker-pool detail) when every serving worker is ejected and
  requests run through the inline fallback.
- ``GET /v1/readyz`` — load-balancer readiness: ``200`` at full
  capacity, ``503`` while degraded, so traffic drains to healthier
  hosts without killing a process that is still (slowly) serving.
- ``GET /v1/metrics`` — scheduler counters (occupancy, latency
  percentiles, queue depth), request outcomes, per-version screening
  flag rates.
- ``GET /v1/metrics.prom`` — the same counters in Prometheus text
  exposition format (``text/plain; version=0.0.4``), composed from the
  typed registries in :mod:`repro.obs.metrics`.
- ``GET /v1/debug/traces`` — the process-local flight recorder dump
  (``?trace=<id>`` filters to one request's spans); the CI smoke lanes
  write this into the failure artifact when an assertion trips.
- ``GET /v1/models`` — the store listing (versions, active flags, and
  per-version ``compiled``/``plan`` compilation state).

Every response — success or error, on either prefix — echoes the
request's trace id on the ``X-Trace-Id`` header (minted here when the
client did not send one), so a client can pull exactly its own spans
from ``/v1/debug/traces``.  Error responses share one envelope::

    {"error": {"code": str, "message": str, "trace_id": str}}

where ``code`` is a stable machine-readable slug (``bad_request``,
``not_found``, ``method_not_allowed``, ``backpressure``,
``version_skew``, ``rate_limited``, ``deletion_flagged``, ``internal``,
…) and ``message`` is human-readable detail.

Built on ``http.server.ThreadingHTTPServer`` (one thread per
connection) so concurrent requests genuinely queue up in the batcher —
that concurrency is what micro-batching coalesces.  No third-party
dependencies.
"""

from __future__ import annotations

import errno
import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from ..obs import trace as _trace
from .batcher import QueueFullError

#: Refuse request bodies beyond this size (64 MiB of JSON ≈ abuse).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Canonical API prefix; unprefixed paths are deprecated aliases.
API_PREFIX = "/v1"

#: Fallback error-code slugs per status when the raising exception does
#: not carry an ``error_code`` of its own.
ERROR_CODES = {
    400: "bad_request",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    429: "backpressure",
    500: "internal",
    503: "unavailable",
}


@dataclass(frozen=True)
class Route:
    """One endpoint: method + canonical name + handler + body policy.

    ``handler`` names a method on the request handler class, so front
    ends specialize endpoints by plain subclassing (the cluster router
    overrides ``_predict`` / ``_activate`` and inherits the rest).
    ``needs_body`` routes get their JSON body parsed and validated
    before dispatch; the handler receives the payload dict.
    """

    method: str
    name: str
    handler: str
    needs_body: bool = False


#: The API surface.  Adding an endpoint = one entry + one handler method.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "healthz", "_healthz"),
    Route("GET", "readyz", "_readyz"),
    Route("GET", "metrics", "_metrics"),
    Route("GET", "metrics.prom", "_metrics_prom"),
    Route("GET", "debug/traces", "_debug_traces"),
    Route("GET", "models", "_models"),
    Route("POST", "predict", "_predict", needs_body=True),
    Route("POST", "activate", "_activate", needs_body=True),
    Route("POST", "compile", "_compile", needs_body=True),
    Route("POST", "forget", "_forget", needs_body=True),
)


def route_table(routes: Tuple[Route, ...]
                ) -> Tuple[Dict[Tuple[str, str], Tuple[Route, bool]],
                           Dict[str, Tuple[str, ...]]]:
    """Expand routes into ``(method, path) -> (route, deprecated)`` plus
    a ``path -> allowed methods`` map (for 405 responses).

    Each route answers on its canonical ``/v1/<name>`` path and on the
    legacy ``/<name>`` alias, which is marked deprecated.
    """
    lookup: Dict[Tuple[str, str], Tuple[Route, bool]] = {}
    methods: Dict[str, set] = {}
    for route in routes:
        for path, deprecated in ((f"{API_PREFIX}/{route.name}", False),
                                 (f"/{route.name}", True)):
            lookup[(route.method, path)] = (route, deprecated)
            methods.setdefault(path, set()).add(route.method)
    return lookup, {path: tuple(sorted(ms)) for path, ms in methods.items()}


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to an :class:`InferenceServer`.

    ``inference`` is duck-typed: anything with ``predict`` / ``health``
    / ``metrics`` and a ``store`` can sit behind the handler — the
    cluster router front end (:mod:`repro.serve.cluster`) reuses this
    exact server with its own handler subclass via ``handler_cls``.
    """

    daemon_threads = True
    # Ephemeral-port reuse in quick test cycles.
    allow_reuse_address = True
    # socketserver's default accept backlog is 5; the closed-loop load
    # generator (and any real client burst) opens far more one-shot
    # connections at once, and overflowing SYNs stall ~1s for a
    # retransmit or get reset outright — which reads as p95 cliffs and
    # spurious "errored responses" that have nothing to do with serving.
    request_queue_size = 128

    #: Handler class; subclasses override to reroute individual verbs.
    handler_cls = None  # filled in after _Handler is defined

    def __init__(self, address: Tuple[int, int], inference) -> None:
        super().__init__(address, type(self).handler_cls)
        self.inference = inference

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    #: Route table shared by every front end; subclasses may extend
    #: ``routes`` and the expanded table is rebuilt per class.
    routes: Tuple[Route, ...] = ROUTES

    # The default implementation logs every request to stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def inference(self):
        return self.server.inference

    @classmethod
    def table(cls):
        cached = cls.__dict__.get("_route_table")
        if cached is None:
            cached = route_table(cls.routes)
            cls._route_table = cached
        return cached

    # -- plumbing ------------------------------------------------------
    def _response_headers(self, headers: Optional[dict] = None) -> dict:
        merged = {}
        trace = getattr(self, "_trace", None)
        if trace is not None:
            merged[_trace.TRACE_HEADER] = trace
        if getattr(self, "_deprecated", False):
            # Draft RFC 9745 header on legacy unprefixed aliases; bodies
            # stay byte-for-byte identical to the /v1 canonical path.
            merged["Deprecation"] = "true"
        merged.update(headers or {})
        return merged

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in self._response_headers(headers).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in self._response_headers().items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_raw(self, status: int, body: bytes,
                  headers: Optional[dict] = None,
                  content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in self._response_headers(headers).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, status: int, code: str, message: str,
                             headers: Optional[dict] = None) -> None:
        self._send_json(status, {"error": {
            "code": code, "message": message,
            "trace_id": getattr(self, "_trace", None)}}, headers=headers)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("missing request body")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        payload = json.loads(self.rfile.read(length))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path, _, self._query = self.path.partition("?")
        # The front end is where trace ids are born: accept the client's
        # (normalized), mint one otherwise, and echo it back on every
        # response — success or error, any endpoint.
        self._trace = _trace.coerce_trace_id(
            self.headers.get(_trace.TRACE_HEADER))
        lookup, methods = self.table()
        entry = lookup.get((method, path))
        if entry is None:
            allowed = methods.get(path)
            self._deprecated = (allowed is not None
                                and not path.startswith(API_PREFIX + "/"))
            if allowed:
                self._send_error_envelope(
                    405, "method_not_allowed",
                    f"{method} not allowed for {path} "
                    f"(allowed: {', '.join(allowed)})",
                    headers={"Allow": ", ".join(allowed)})
            else:
                self._send_error_envelope(404, "not_found",
                                          f"unknown path {path}")
            return
        route, self._deprecated = entry
        try:
            payload = self._read_json() if route.needs_body else None
            getattr(self, route.handler)(payload, self._trace)
        except QueueFullError as exc:
            self._send_error_envelope(429, "backpressure", str(exc),
                                      headers={"Retry-After": "1"})
        except KeyError as exc:
            self._send_error_envelope(
                404, "not_found", str(exc.args[0] if exc.args else exc))
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_error_envelope(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - surfaced as 500
            # Exceptions carrying an ``http_status`` pick their own code
            # (version-skew refusals answer 409, guard rejections 403 or
            # 429); ``error_code`` picks the envelope slug.
            status = int(getattr(exc, "http_status", 500))
            code = (getattr(exc, "error_code", None)
                    or ERROR_CODES.get(status, "internal"))
            message = (str(exc) if status < 500
                       else f"{type(exc).__name__}: {exc}")
            headers = {"Retry-After": "1"} if status == 429 else None
            self._send_error_envelope(status, code, message, headers=headers)

    # -- handlers ------------------------------------------------------
    def _healthz(self, payload, trace) -> None:
        # Liveness: 200 as long as the process answers, with the health
        # detail inline — a degraded pool is alive.
        self._send_json(200, self.inference.health())

    def _readyz(self, payload, trace) -> None:
        # Readiness: 503 while degraded so load balancers route around
        # this host until the pool re-promotes.
        health = self.inference.health()
        self._send_json(200 if health["ready"] else 503, health)

    def _metrics(self, payload, trace) -> None:
        self._send_json(200, self.inference.metrics())

    def _metrics_prom(self, payload, trace) -> None:
        renderer = getattr(self.inference, "prometheus", None)
        if not callable(renderer):
            raise KeyError("no prometheus exposition for this server")
        self._send_text(
            200, renderer(),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    def _debug_traces(self, payload, trace) -> None:
        query = parse_qs(getattr(self, "_query", ""))
        wanted = query.get("trace", [None])[0]
        self._send_json(200, {
            "spans": _trace.RECORDER.dump(trace=wanted),
            "stats": _trace.RECORDER.stats(),
            "tracing": _trace.tracing_enabled(),
        })

    def _models(self, payload, trace) -> None:
        self._send_json(200, self.inference.store.describe())

    def _predict(self, payload, trace) -> None:
        model, version, images = self._parse_predict(payload)
        result = self.inference.predict(model, images, version=version,
                                        trace=trace)
        self._send_json(200, result.to_json())

    @staticmethod
    def _parse_predict(payload: dict) -> Tuple[str, Optional[str],
                                               np.ndarray]:
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("'model' must be a non-empty string")
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise ValueError("'version' must be a string when given")
        if "inputs" not in payload:
            raise ValueError("missing 'inputs'")
        try:
            images = np.asarray(payload["inputs"], dtype=np.float32)
        except (TypeError, ValueError):
            raise ValueError("'inputs' must be a numeric (C,H,W) or "
                             "(N,C,H,W) nested list") from None
        return model, version, images

    def _activate(self, payload, trace) -> None:
        model, version = payload.get("model"), payload.get("version")
        if not isinstance(model, str) or not isinstance(version, str):
            raise ValueError("'model' and 'version' must be strings")
        self.inference.store.activate(model, version)
        self._send_json(200, {"model": model, "active": version})

    def _compile(self, payload, trace) -> None:
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("'model' must be a non-empty string")
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise ValueError("'version' must be a string when given")
        compiler = getattr(self.inference, "compile_model", None)
        if not callable(compiler):
            raise KeyError("this server does not support compilation")
        self._send_json(200, compiler(model, version))

    def _forget(self, payload, trace) -> None:
        plane = getattr(self.inference, "forget_plane", None)
        if plane is None:
            raise KeyError("no forget plane attached to this server")
        user = payload.get("user")
        if not isinstance(user, (str, int)) or isinstance(user, bool):
            raise ValueError("'user' must be a string or integer")
        sample_ids = payload.get("sample_ids")
        if (not isinstance(sample_ids, list) or not sample_ids
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for i in sample_ids)):
            raise ValueError("'sample_ids' must be a non-empty list of "
                             "integers")
        wait = payload.get("wait", True)
        if not isinstance(wait, bool):
            raise ValueError("'wait' must be a boolean when given")
        timeout = payload.get("timeout", 120.0)
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ValueError("'timeout' must be a positive number")
        result = plane.request(user, sample_ids, trace=trace, wait=wait,
                               timeout=float(timeout))
        self._send_json(200 if wait else 202, result)


ServingHTTPServer.handler_cls = _Handler


def start_http_server(inference, host: str = "127.0.0.1",
                      port: int = 0, retries: int = 3,
                      server_factory: type = ServingHTTPServer,
                      ) -> ServingHTTPServer:
    """Bind (``port=0`` = ephemeral) and serve on a background thread.

    A requested port that turns out to be taken (``EADDRINUSE`` — CI
    runners recycle ports between jobs, and ``allow_reuse_address``
    cannot paper over a *live* listener) is retried up to ``retries``
    times on an **ephemeral** rebind instead of failing the whole serve:
    read ``server.url`` for where it actually landed.  Other bind errors
    raise immediately.

    Returns the server; call :func:`stop_http_server` (or
    ``server.shutdown()``) to stop.
    """
    attempt = 0
    while True:
        try:
            httpd = server_factory((host, port), inference)
            break
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt >= retries:
                raise
            attempt += 1
            port = 0        # ephemeral rebind: let the OS pick a free one
    thread = threading.Thread(target=httpd.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    httpd._serve_thread = thread
    return httpd


def stop_http_server(httpd: ServingHTTPServer) -> None:
    """Stop the accept loop and release the socket (idempotent)."""
    httpd.shutdown()
    httpd.server_close()
    thread = getattr(httpd, "_serve_thread", None)
    if thread is not None:
        thread.join(timeout=10.0)
