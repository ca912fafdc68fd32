"""Route table semantics: one /v1 path per endpoint, unified errors.

Every endpoint answers under ``/v1/`` only, with the
``{"error": {code, message, trace_id}}`` envelope and an echoed
``X-Trace-Id``; unprefixed paths are unknown (404).
"""

from __future__ import annotations

import base64
import json
import string
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import build_model
from repro.obs.trace import coerce_trace_id, valid_trace_id
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         decode_tensor, encode_tensor, start_http_server,
                         stop_http_server)
from repro.serve.http import API_PREFIX, ROUTES, route_table

_LOOKUP, _METHODS = route_table(ROUTES)

_settings = settings(max_examples=25, deadline=None, derandomize=True)

#: Known paths, the same names without the prefix, and made-up ones.
paths = st.one_of(
    st.sampled_from(sorted(_METHODS)),
    st.sampled_from([f"/{route.name}" for route in ROUTES]),
    st.lists(st.text(alphabet=string.ascii_lowercase + string.digits + "-_",
                     min_size=1, max_size=8),
             min_size=1, max_size=3).map(
        lambda parts: "/".join(["", *parts])),
    st.lists(st.text(alphabet=string.ascii_lowercase + ".", min_size=1,
                     max_size=8),
             min_size=1, max_size=2).map(
        lambda parts: "/".join([API_PREFIX, *parts])))
methods = st.sampled_from(["GET", "POST"])


@st.composite
def tensor_objects(draw):
    """``/v1/predict`` tensor objects: a drawn shape (any rank, zero and
    negative sizes included) whose ``b64`` is right for it, a few bytes
    off, or not base64 at all."""
    shape = draw(st.lists(st.integers(-1, 3), min_size=2, max_size=5))
    count = 4 * int(np.prod([max(d, 0) for d in shape]))
    count += draw(st.sampled_from([0, 0, -4, 3, 4]))
    data = base64.b64encode(b"\0" * max(count, 0)).decode()
    data = draw(st.sampled_from([data, data, "!" + data, 7]))
    return {"shape": shape, "b64": data}


#: POST bodies: none, not JSON, not an object, and objects whose fields
#: range over right and wrong values.
bodies = st.one_of(
    st.none(), st.just(b"not json"), st.just(b"[1, 2]"),
    st.fixed_dictionaries({}, optional={
        "model": st.sampled_from(["m", "ghost", 3]),
        "version": st.sampled_from(["v1", "v9", 5]),
        "inputs": st.one_of(
            tensor_objects(),
            st.sampled_from([encode_tensor(np.zeros((3, 12, 12))),
                             np.zeros((3, 12, 12)).tolist(), "x",
                             [[1.0]]])),
        "user": st.sampled_from(["alice", True]),
        "sample_ids": st.sampled_from([[1], [], ["a"]]),
    }).map(lambda payload: json.dumps(payload).encode()))
#: X-Trace-Id values: absent, valid hex of either case, and arbitrary
#: printable ASCII.
trace_headers = st.one_of(
    st.none(),
    st.text(alphabet=string.hexdigits, min_size=1, max_size=16),
    st.text(alphabet=string.ascii_letters + string.digits
            + string.punctuation, min_size=1, max_size=20))


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
        with exc:                   # the error holds the response socket
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
                              "inputs": encode_tensor(np.zeros((3, 12, 12)))})
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
                         "inputs": encode_tensor(image)}).encode(),
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


def _tensor(shape, nbytes=None, data=None):
    if data is None:
        count = int(np.prod(shape)) * 4 if nbytes is None else nbytes
        data = base64.b64encode(b"\0" * count).decode()
    return {"shape": list(shape), "b64": data}


class TestTensorInputs:
    def test_a_tensor_object_round_trips_its_bits(self):
        image = np.random.default_rng(0).random((2, 3, 4, 4)) \
            .astype(np.float32)
        image[0, 0, 0, :2] = [-0.0, np.nan]
        decoded = decode_tensor(json.loads(json.dumps(encode_tensor(image))))
        assert decoded.shape == image.shape
        assert decoded.tobytes() == image.tobytes()

    def test_a_well_formed_tensor_is_served(self, stack):
        status, body, _ = _fetch(
            f"{stack.url}/v1/predict",
            data=json.dumps({"model": "m",
                             "inputs": _tensor((1, 3, 12, 12))}).encode())
        assert status == 200, body
        assert len(json.loads(body)["labels"]) == 1

    @pytest.mark.parametrize("inputs, reason", [
        (_tensor((3, 12, 12), data="!!!not base64"), "bad base64"),
        (_tensor((3, 12, 12), data="AAAA="), "bad base64 padding"),
        (_tensor((3, 12, 12), nbytes=3 * 12 * 12 * 4 - 4), "short bytes"),
        (_tensor((3, 12, 12), nbytes=3 * 12 * 12 * 4 + 1), "long bytes"),
        (_tensor((12, 12)), "rank 2"),
        (_tensor((1, 1, 3, 12, 12)), "rank 5"),
        (_tensor((0, 3, 12, 12)), "zero dimension"),
        (_tensor((3, -12, 12), nbytes=0), "negative dimension"),
        ({"shape": [3, 12.0, 12], "b64": ""}, "float dimension"),
        ({"shape": [True, 3, 12, 12], "b64": ""}, "bool dimension"),
        ({"shape": [3, 12, 12]}, "no bytes"),
        ({"shape": [3, 12, 12], "b64": 5}, "bytes not a string"),
        (np.zeros((3, 12, 12)).tolist(), "nested lists"),
        ("AAAA", "bare string"),
    ])
    def test_malformed_tensors_answer_400(self, stack, inputs, reason):
        status, body, headers = _fetch(
            f"{stack.url}/v1/predict",
            data=json.dumps({"model": "m", "inputs": inputs}).encode())
        assert status == 400, reason
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert "inputs" in error["message"]
        assert error["trace_id"] == headers["X-Trace-Id"]


class TestDispatchProperties:
    @_settings
    @given(method=methods, path=paths)
    def test_unrouted_pairs_answer_404_or_405(self, stack, method, path):
        assume((method, path) not in _LOOKUP)
        status, body, headers = _fetch(
            f"{stack.url}{path}", data=b"{}" if method == "POST" else None,
            method=method)
        allowed = _METHODS.get(path)
        error = json.loads(body)["error"]
        if allowed:
            assert status == 405
            assert headers["Allow"] == ", ".join(allowed)
            assert error["code"] == "method_not_allowed"
        else:
            assert status == 404
            assert "Allow" not in headers
            assert error["code"] == "not_found"

    @_settings
    @given(method=methods, path=paths, body=bodies, trace=trace_headers)
    def test_every_error_is_one_envelope_echoing_the_trace(
            self, stack, method, path, body, trace):
        status, raw, headers = _fetch(
            f"{stack.url}{path}",
            data=(body or b"") if method == "POST" else None,
            method=method,
            headers={} if trace is None else {"X-Trace-Id": trace})
        echoed = headers["X-Trace-Id"]
        assert valid_trace_id(echoed) and len(echoed) == 16
        if trace is not None and valid_trace_id(trace):
            assert echoed == coerce_trace_id(trace)
        if 200 <= status < 300:
            return
        payload = json.loads(raw)
        assert set(payload) == {"error"}
        error = payload["error"]
        assert set(error) == {"code", "message", "trace_id"}
        assert isinstance(error["code"], str) and error["code"]
        assert isinstance(error["message"], str) and error["message"]
        assert error["trace_id"] == echoed
