"""Route table semantics: one /v1 path per endpoint, unified errors.

Every endpoint answers under ``/v1/`` only, with the
``{"error": {code, message, trace_id}}`` envelope and an echoed
``X-Trace-Id``; unprefixed paths are unknown (404).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         start_http_server, stop_http_server)
from repro.serve.http import API_PREFIX, ROUTES, route_table


@pytest.fixture(scope="module")
def stack():
    nn.manual_seed(0)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("m", model, version="v1")
    server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8,
                                                       max_delay_ms=1.0))
    httpd = start_http_server(server)
    yield httpd
    stop_http_server(httpd)
    server.close()


def _fetch(url, data=None, method=None, headers=None):
    """(status, body-bytes, headers) without raising on 4xx/5xx."""
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


class TestRouteTable:
    def test_every_route_is_mounted_once(self):
        lookup, methods = route_table(ROUTES)
        assert len(lookup) == len(ROUTES)
        for route in ROUTES:
            path = f"{API_PREFIX}/{route.name}"
            assert lookup[(route.method, path)] is route
            assert route.method in methods[path]
            assert f"/{route.name}" not in methods

    def test_405_names_the_allowed_methods(self, stack):
        status, body, headers = _fetch(f"{stack.url}/v1/healthz",
                                       data=b"{}", method="POST")
        assert status == 405
        assert headers["Allow"] == "GET"
        error = json.loads(body)["error"]
        assert error["code"] == "method_not_allowed"
        assert "GET" in error["message"]

    def test_unknown_path_404_envelope(self, stack):
        predict = json.dumps({"model": "m",
                              "inputs": np.zeros((3, 12, 12)).tolist()})
        # Unprefixed paths are unknown, whatever the method.
        for path, data in (("/v1/nope", None), ("/healthz", None),
                           ("/predict", predict.encode())):
            status, body, headers = _fetch(f"{stack.url}{path}", data=data)
            assert status == 404, path
            error = json.loads(body)["error"]
            assert error["code"] == "not_found"
            assert error["trace_id"] == headers["X-Trace-Id"]
            assert "Deprecation" not in headers

    def test_trace_id_echoes_on_success_and_error(self, stack):
        supplied = "deadbeefdeadbeef"
        for path in ("/v1/healthz", "/v1/nope"):
            _, _, headers = _fetch(f"{stack.url}{path}",
                                   headers={"X-Trace-Id": supplied})
            assert headers["X-Trace-Id"] == supplied
        # Absent header: the server mints one rather than omitting it.
        _, _, headers = _fetch(f"{stack.url}/v1/healthz")
        assert len(headers["X-Trace-Id"]) == 16

    def test_error_envelope_shape_everywhere(self, stack):
        image = np.zeros((3, 12, 12), np.float32)
        cases = (
            (f"{stack.url}/v1/predict", b"not json", 400, "bad_request"),
            (f"{stack.url}/v1/predict",
             json.dumps({"model": "ghost",
                         "inputs": image.tolist()}).encode(),
             404, "not_found"),
            (f"{stack.url}/v1/activate",
             json.dumps({"model": "m", "version": "v9"}).encode(),
             404, "not_found"),
        )
        for url, data, expected_status, expected_code in cases:
            status, body, headers = _fetch(url, data=data)
            assert status == expected_status
            error = json.loads(body)["error"]
            assert error["code"] == expected_code
            assert error["message"]
            assert error["trace_id"] == headers["X-Trace-Id"]
