"""The observability plane end-to-end: /metrics schema stability, the
Prometheus exposition, and trace-id propagation over HTTP."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.obs import trace as _trace
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         encode_tensor, start_http_server, stop_http_server)

POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)

#: The schema contract: keys the JSON /metrics payload must keep,
#: whatever backs the numbers.  Additions are fine; removals break
#: dashboards.
GOLDEN_TOP_KEYS = {"requests", "batcher", "policy", "models", "prefetch",
                   "obs"}
GOLDEN_REQUEST_KEYS = {"total", "served", "rejected", "invalid", "failed"}


def make_store(seed: int = 5) -> ModelStore:
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("m", model, version="v1")
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
    body = json.dumps({"model": "m", "inputs": encode_tensor(image)}).encode()
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
                           "inputs": encode_tensor(image)}).encode()
        request = urllib.request.Request(
            f"{httpd.url}/v1/predict", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     _trace.TRACE_HEADER: trace})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()       # the error holds the response socket
        assert excinfo.value.code == 404
        assert excinfo.value.headers[_trace.TRACE_HEADER] == trace
