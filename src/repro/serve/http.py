"""Stdlib HTTP front end for the inference server.

The API is mounted under a versioned prefix and driven by a declarative
route table — every endpoint is one :class:`Route` entry, so new
endpoints (like ``/v1/forget``) are one-line registrations instead of
another branch in an if/elif chain.

Endpoints (all JSON, each on exactly one ``/v1`` path):

- ``POST /v1/predict`` — ``{"model": str, "version"?: str, "inputs":
  {"shape": [C,H,W] or [N,C,H,W], "b64": str}}`` → logits, argmax
  labels, the served version and (when screening is on) per-input STRIP
  flags.  ``inputs`` is one tensor object: ``b64`` is the standard
  base64 of the tensor's little-endian float32 bytes in C order, so
  neither end walks a nested list of floats.  ``429`` with
  ``Retry-After`` under backpressure, ``404`` for unknown
  models/versions, ``400`` for malformed payloads (a byte count other
  than ``prod(shape) * 4``, a rank other than 3 or 4, a dimension that
  is not positive, bad base64, nested lists).
- ``POST /v1/forget`` — ``{"user": str|int, "sample_ids": [int, ...],
  "wait"?: bool, "timeout"?: seconds}`` — the online unlearning plane:
  the request is screened (rate limits, suspicion flags), coalesced per
  SISA shard, retrained in the background and hot-swapped into serving.
  ``404`` when no forget plane is attached or an id was never trained
  on, ``429`` when the user's deletion rate or the queue bound is
  exceeded, ``403`` when the guard runs in enforce mode and flags the
  request.
- ``POST /v1/activate`` — ``{"model": str, "version": str}`` hot-swaps
  the active version; subsequent unversioned requests hit the new one.
- ``GET /v1/healthz`` — liveness + registered model names; ``200``
  with ``status`` ``"ok"`` while the process answers.  Readiness is the
  same answer: one process serves every request, so there is no pool
  to drain around.
- ``GET /v1/metrics`` — scheduler counters (occupancy, latency
  percentiles, queue depth), request outcomes, per-version screening
  flag rates.
- ``GET /v1/metrics.prom`` — the same counters in Prometheus text
  exposition format (``text/plain; version=0.0.4``), composed from the
  typed registries in :mod:`repro.obs.metrics`.
- ``GET /v1/debug/traces`` — the process-local flight recorder dump
  (``?trace=<id>`` filters to one request's spans); the CI smoke lanes
  write this into the failure artifact when an assertion trips.
- ``GET /v1/models`` — the store listing (versions, active flags and
  registration metadata).

Every response — success or error — echoes the
request's trace id on the ``X-Trace-Id`` header (minted here when the
client did not send one), so a client can pull exactly its own spans
from ``/v1/debug/traces``.  Error responses share one envelope::

    {"error": {"code": str, "message": str, "trace_id": str}}

where ``code`` is a stable machine-readable slug (``bad_request``,
``not_found``, ``method_not_allowed``, ``backpressure``,
``rate_limited``, ``deletion_flagged``, ``internal``, …) and
``message`` is human-readable detail.

Built on ``http.server.ThreadingHTTPServer`` (one thread per
connection) so concurrent requests genuinely queue up in the batcher —
that concurrency is what micro-batching coalesces.  The handler speaks
HTTP/1.1 with keep-alive, so a client sends request after request on
one connection to one handler thread, and it sets ``TCP_NODELAY`` on
every accepted socket: without it a response written in two segments
waits out the client's delayed ACK.  Bodies are read by
``Content-Length``; a ``Transfer-Encoding`` body or a bad length
answers 400 with ``Connection: close`` and ends the connection, whose
unread bytes would otherwise be parsed as the next request.
:func:`stop_http_server` shuts the read side of every open connection,
so idle keep-alive connections end with the server.  No third-party
dependencies.
"""

from __future__ import annotations

import base64
import binascii
import errno
import json
import math
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from ..obs import trace as _trace
from .batcher import QueueFullError

#: Refuse request bodies beyond this size (64 MiB of JSON ≈ abuse).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The API prefix every route is mounted under.
API_PREFIX = "/v1"

#: Fallback error-code slugs per status when the raising exception does
#: not carry an ``error_code`` of its own.
ERROR_CODES = {
    400: "bad_request",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    429: "backpressure",
    500: "internal",
}


@dataclass(frozen=True)
class Route:
    """One endpoint: method + name + handler + body policy.

    ``handler`` names a method on the request handler class.
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
    Route("GET", "metrics", "_metrics"),
    Route("GET", "metrics.prom", "_metrics_prom"),
    Route("GET", "debug/traces", "_debug_traces"),
    Route("GET", "models", "_models"),
    Route("POST", "predict", "_predict", needs_body=True),
    Route("POST", "activate", "_activate", needs_body=True),
    Route("POST", "forget", "_forget", needs_body=True),
)


def route_table(routes: Tuple[Route, ...]
                ) -> Tuple[Dict[Tuple[str, str], Route],
                           Dict[str, Tuple[str, ...]]]:
    """Expand routes into ``(method, path) -> route`` plus a
    ``path -> allowed methods`` map (for 405 responses).

    Each route answers on ``/v1/<name>`` only.
    """
    lookup: Dict[Tuple[str, str], Route] = {}
    methods: Dict[str, set] = {}
    for route in routes:
        path = f"{API_PREFIX}/{route.name}"
        lookup[(route.method, path)] = route
        methods.setdefault(path, set()).add(route.method)
    return lookup, {path: tuple(sorted(ms)) for path, ms in methods.items()}


#: The expanded table every request dispatches through.
_LOOKUP, _METHODS = route_table(ROUTES)


def encode_tensor(images: np.ndarray) -> dict:
    """The ``/v1/predict`` tensor object of ``images``:
    ``{"shape": [...], "b64": <little-endian float32 bytes>}``."""
    array = np.ascontiguousarray(images, dtype="<f4")
    return {"shape": list(array.shape),
            "b64": base64.b64encode(array).decode("ascii")}


def decode_tensor(obj) -> np.ndarray:
    """Inverse of :func:`encode_tensor`, validating every field.

    Raises ``ValueError`` (answered 400) for anything but a
    ``{"shape", "b64"}`` object of rank 3 or 4, positive dimensions and
    exactly ``prod(shape) * 4`` decoded bytes.
    """
    if not isinstance(obj, dict) or set(obj) != {"shape", "b64"}:
        raise ValueError("'inputs' must be a tensor object "
                         "{\"shape\": [...], \"b64\": str}")
    shape, data = obj["shape"], obj["b64"]
    if (not isinstance(shape, list) or len(shape) not in (3, 4)
            or not all(isinstance(d, int) and not isinstance(d, bool)
                       and d > 0 for d in shape)):
        raise ValueError("'inputs.shape' must be 3 or 4 positive integers "
                         "((C,H,W) or (N,C,H,W))")
    if not isinstance(data, str):
        raise ValueError("'inputs.b64' must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError):
        raise ValueError("'inputs.b64' is not valid base64") from None
    expected = 4 * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(f"'inputs.b64' holds {len(raw)} bytes; shape "
                         f"{shape} needs {expected}")
    return np.frombuffer(raw, dtype="<f4").reshape(shape)


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to an :class:`InferenceServer`.

    ``inference`` is duck-typed: anything with ``predict`` / ``health``
    / ``metrics`` and a ``store`` can sit behind the handler.  Each
    connection gets a daemon handler thread, tracked until the
    connection closes so :func:`stop_http_server` can end it.
    """

    # Ephemeral-port reuse in quick test cycles.
    allow_reuse_address = True
    # socketserver's default accept backlog is 5; the closed-loop load
    # generator (and any real client burst) opens many connections at
    # once, and overflowing SYNs stall ~1s for a
    # retransmit or get reset outright — which reads as p95 cliffs and
    # spurious "errored responses" that have nothing to do with serving.
    request_queue_size = 128

    def __init__(self, address: Tuple[int, int], inference) -> None:
        super().__init__(address, _Handler)
        self.inference = inference
        #: Open connection -> the handler thread serving it.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        # Runs in the accept loop, so once ``shutdown()`` has returned
        # the map holds every connection a handler thread may read.
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  daemon=True)
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Shut the read side of every open connection and join its
        handler thread (for at most 10 s in all).

        A handler idle between keep-alive requests reads end-of-file
        and returns at once; one mid-request writes its response first.
        """
        with self._connections_lock:
            connections = dict(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass            # the peer already closed it
        deadline = time.monotonic() + 10.0
        for thread in connections.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive: one connection carries many requests.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on the accepted socket (see the module docstring).
    disable_nagle_algorithm = True

    # The default implementation logs every request to stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def inference(self):
        return self.server.inference

    # -- plumbing ------------------------------------------------------
    def _response_headers(self, headers: Optional[dict] = None) -> dict:
        merged = {}
        trace = getattr(self, "_trace", None)
        if trace is not None:
            merged[_trace.TRACE_HEADER] = trace
        merged.update(headers or {})
        return merged

    def _send(self, status: int, body: bytes, content_type: str,
              headers: Optional[dict] = None) -> None:
        self.send_response(status)
        if self.close_connection:
            # Tell the client not to send another request on this one.
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in self._response_headers(headers).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json",
                   headers)

    def _send_error_envelope(self, status: int, code: str, message: str,
                             headers: Optional[dict] = None) -> None:
        self._send_json(status, {"error": {
            "code": code, "message": message,
            "trace_id": getattr(self, "_trace", None)}}, headers=headers)

    def _read_body(self) -> bytes:
        """The request body, read whole so the connection stays in step
        for its next request whatever this one answers."""
        if "Transfer-Encoding" in self.headers:
            # Chunked bodies are not read; their bytes would be parsed
            # as the next request, so the connection ends here.
            self.close_connection = True
            raise ValueError("Transfer-Encoding is not supported; "
                             "send a Content-Length body")
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body cannot be skipped, so the connection ends here.
            self.close_connection = True
            raise ValueError(f"Content-Length must be 0..{MAX_BODY_BYTES}")
        return self.rfile.read(length)

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if not body:
            raise ValueError("missing request body")
        payload = json.loads(body)
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
        try:
            body = self._read_body()
        except ValueError as exc:
            self._send_error_envelope(400, "bad_request", str(exc))
            return
        route = _LOOKUP.get((method, path))
        if route is None:
            allowed = _METHODS.get(path)
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
        try:
            payload = self._parse_json(body) if route.needs_body else None
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
            # (guard rejections answer 403 or 429); ``error_code`` picks
            # the envelope slug.
            status = int(getattr(exc, "http_status", 500))
            code = (getattr(exc, "error_code", None)
                    or ERROR_CODES.get(status, "internal"))
            message = (str(exc) if status < 500
                       else f"{type(exc).__name__}: {exc}")
            headers = {"Retry-After": "1"} if status == 429 else None
            self._send_error_envelope(status, code, message, headers=headers)

    # -- handlers ------------------------------------------------------
    def _healthz(self, payload, trace) -> None:
        self._send_json(200, self.inference.health())

    def _metrics(self, payload, trace) -> None:
        self._send_json(200, self.inference.metrics())

    def _metrics_prom(self, payload, trace) -> None:
        renderer = getattr(self.inference, "prometheus", None)
        if not callable(renderer):
            raise KeyError("no prometheus exposition for this server")
        self._send(200, renderer().encode(),
                   "text/plain; version=0.0.4; charset=utf-8")

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
        return model, version, decode_tensor(payload["inputs"])

    def _activate(self, payload, trace) -> None:
        model, version = payload.get("model"), payload.get("version")
        if not isinstance(model, str) or not isinstance(version, str):
            raise ValueError("'model' and 'version' must be strings")
        self.inference.store.activate(model, version)
        self._send_json(200, {"model": model, "active": version})

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
        # json.loads accepts Infinity and NaN, and a bool is an int; the
        # comparison rejects NaN and anything a wait cannot take.
        if (not isinstance(timeout, (int, float)) or isinstance(timeout, bool)
                or not 0 < timeout <= threading.TIMEOUT_MAX):
            raise ValueError("'timeout' must be a positive, finite number "
                             "of seconds")
        result = plane.request(user, sample_ids, trace=trace, wait=wait,
                               timeout=float(timeout))
        self._send_json(200 if wait else 202, result)


def start_http_server(inference, host: str = "127.0.0.1",
                      port: int = 0, retries: int = 3) -> ServingHTTPServer:
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
            httpd = ServingHTTPServer((host, port), inference)
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
    """Stop the accept loop, end every connection and release the
    socket (idempotent).

    Idle keep-alive connections end at once; a request in flight
    finishes and answers first.  Returns once every handler thread has
    exited, or after 10 s with a request still in flight.
    """
    httpd.shutdown()
    httpd.end_connections()
    httpd.server_close()
    thread = getattr(httpd, "_serve_thread", None)
    if thread is not None:
        thread.join(timeout=10.0)
