"""The observability plane end-to-end: /metrics schema stability across
serving modes, the Prometheus exposition, trace-id propagation over
HTTP, and the health() worker-stats fallback."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.obs import trace as _trace
from repro.parallel import ModelSpec
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         start_http_server, stop_http_server)

SPEC = ModelSpec("small_cnn", 4, scale="tiny")
POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)

#: The schema contract: keys the JSON /metrics payload must keep,
#: whatever backs the numbers.  Additions are fine; removals break
#: dashboards.
GOLDEN_TOP_KEYS = {"requests", "batcher", "backend", "policy", "models",
                   "prefetch", "reliability", "obs"}
GOLDEN_REQUEST_KEYS = {"total", "served", "rejected", "invalid", "failed"}


def make_store(seed: int = 5) -> ModelStore:
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("m", model, version="v1", spec=SPEC)
    return store


@pytest.fixture(scope="module")
def stack():
    server = InferenceServer(make_store(), policy=POLICY)
    httpd = start_http_server(server)
    yield server, httpd
    stop_http_server(httpd)
    server.close()


@pytest.fixture(scope="module")
def image(rng):
    return rng.random((3, 12, 12)).astype(np.float32)


def _get(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, dict(response.headers), response.read()


def _post_predict(url: str, image, headers=None):
    body = json.dumps({"model": "m", "inputs": image.tolist()}).encode()
    request = urllib.request.Request(
        f"{url}/v1/predict", data=body, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), \
            json.loads(response.read())


def _assert_metrics_schema(metrics: dict) -> None:
    assert GOLDEN_TOP_KEYS <= set(metrics)
    assert set(metrics["requests"]) == GOLDEN_REQUEST_KEYS
    assert set(metrics["policy"]) == {"max_batch_size", "max_delay_ms",
                                      "max_queue"}
    assert {"latency", "recorder", "tracing"} <= set(metrics["obs"])
    assert {"spans_started", "spans_ended", "spans_dropped",
            "spans_held", "capacity"} <= set(metrics["obs"]["recorder"])


class TestMetricsSchemaInline:
    def test_metrics_json_golden_keys(self, stack, image):
        server, httpd = stack
        _post_predict(httpd.url, image)
        status, _, body = _get(f"{httpd.url}/v1/metrics")
        assert status == 200
        metrics = json.loads(body)
        _assert_metrics_schema(metrics)
        assert metrics["requests"]["served"] >= 1
        ledger = metrics["requests"]
        assert ledger["total"] == (ledger["served"] + ledger["rejected"]
                                   + ledger["invalid"] + ledger["failed"])

    def test_prometheus_exposition_over_http(self, stack, image):
        _, httpd = stack
        _post_predict(httpd.url, image)
        status, headers, body = _get(f"{httpd.url}/v1/metrics.prom")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        lines = [line for line in text.splitlines() if line]
        assert lines, "empty exposition"
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in {"counter", "gauge", "histogram"}
                if kind == "counter":
                    assert name.endswith("_total")
            else:
                name, value = line.rsplit(" ", 1)
                float(value)  # every sample parses as a number
        assert any(line.startswith("reveil_requests_served_total ")
                   for line in lines)
        assert any(line.startswith("reveil_recorder_spans_started ")
                   for line in lines)
        # The latency histogram renders with a closing +Inf bucket.
        assert any('le="+Inf"' in line for line in lines)


class TestTracePropagation:
    def test_client_trace_id_is_echoed_and_queryable(self, stack, image):
        _, httpd = stack
        trace = "cafe" * 4
        status, headers, _ = _post_predict(
            httpd.url, image, headers={_trace.TRACE_HEADER: trace})
        assert status == 200
        assert headers[_trace.TRACE_HEADER] == trace
        _, _, body = _get(f"{httpd.url}/v1/debug/traces?trace={trace}")
        dump = json.loads(body)
        spans = dump["spans"]
        assert spans, "no spans recorded under the client's trace id"
        assert all(span["trace"] == trace for span in spans)
        # The request-level span plus at least one downstream stage
        # (queue/dispatch), proving the id rode the envelopes.
        names = {span["name"] for span in spans}
        assert "server.predict" in names
        assert len(names) >= 2
        # The unfiltered dump and recorder stats stay balanced.
        stats = dump["stats"]
        assert stats["spans_started"] == stats["spans_ended"]
        assert stats["spans_dropped"] == 0

    def test_short_trace_id_is_normalized(self, stack, image):
        _, httpd = stack
        _, headers, _ = _post_predict(
            httpd.url, image, headers={_trace.TRACE_HEADER: "BEEF"})
        assert headers[_trace.TRACE_HEADER] == "000000000000beef"

    def test_invalid_trace_id_gets_minted_replacement(self, stack, image):
        _, httpd = stack
        _, headers, _ = _post_predict(
            httpd.url, image, headers={_trace.TRACE_HEADER: "not hex"})
        minted = headers[_trace.TRACE_HEADER]
        assert minted != "not hex"
        assert _trace.valid_trace_id(minted) and len(minted) == 16

    def test_error_responses_carry_the_trace_header(self, stack, image):
        _, httpd = stack
        trace = "dead" * 4
        body = json.dumps({"model": "ghost",
                           "inputs": image.tolist()}).encode()
        request = urllib.request.Request(
            f"{httpd.url}/v1/predict", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     _trace.TRACE_HEADER: trace})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        assert excinfo.value.headers[_trace.TRACE_HEADER] == trace


class _StubBackend:
    """A backend that publishes partial stats dicts."""

    degraded = False

    def __init__(self, stats):
        self._stats = dict(stats)

    def stats(self):
        return dict(self._stats)


class TestHealthWorkerFallback:
    def test_active_defaults_from_reported_worker_count(self):
        # A backend that reports "workers" but not "active_workers" must
        # not look healthier (or sicker) than its own worker count —
        # the fallback draws from the same stats dict, not the server's
        # configured width.
        server = InferenceServer(make_store(), policy=POLICY)
        try:
            server.backend = _StubBackend({"workers": 3})
            report = server.health()
            assert report["workers"]["total"] == 3
            assert report["workers"]["active"] == 3
        finally:
            server.backend = None
            server.close()

    def test_bare_stats_fall_back_to_configured_width(self):
        server = InferenceServer(make_store(), policy=POLICY)
        try:
            server.backend = _StubBackend({})
            report = server.health()
            assert report["workers"]["total"] == server.workers
            assert report["workers"]["active"] == server.workers
        finally:
            server.backend = None
            server.close()


@pytest.mark.parallel
def test_metrics_golden_keys_multiproc():
    """The /metrics schema holds when a worker pool backs the numbers."""
    server = InferenceServer(make_store(), policy=POLICY, workers=2)
    try:
        rng = np.random.default_rng(3)
        images = rng.random((4, 3, 12, 12)).astype(np.float32)
        server.predict("m", images)
        metrics = server.metrics()
        _assert_metrics_schema(metrics)
        assert metrics["backend"]["workers"] == 2
        assert "active_workers" in metrics["backend"]
        health = server.health()
        assert health["workers"]["total"] == 2
        assert health["workers"]["active"] == 2
        # Worker-side registries shipped home render in the exposition.
        assert "reveil_backend" in server.prometheus()
    finally:
        server.close()
