"""HTTP front end: endpoints, error mapping, hot-swap over the wire."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         QueueFullError, ServingClient, ServingError,
                         start_http_server, stop_http_server)


def _tiny_model(seed):
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    return model


@pytest.fixture(scope="module")
def stack():
    store = ModelStore()
    store.register("m", _tiny_model(0), version="v1")
    store.register("m", _tiny_model(99), version="v2", activate=False)
    server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8,
                                                       max_delay_ms=1.0))
    httpd = start_http_server(server)
    yield store, server, httpd, ServingClient(httpd.url)
    stop_http_server(httpd)
    server.close()


@pytest.fixture(scope="module")
def image(rng):
    return rng.random((3, 12, 12)).astype(np.float32)


class TestEndpoints:
    def test_healthz(self, stack):
        _, _, _, client = stack
        payload = client.health()
        assert payload["status"] == "ok" and payload["models"] == ["m"]

    def test_models_listing(self, stack):
        _, _, _, client = stack
        entries = client.models()
        assert {(e.name, e.version) for e in entries} \
            == {("m", "v1"), ("m", "v2")}
        active = {e.version for e in entries if e.active}
        assert active == {"v1"}
        # No input_shape registered → nothing compiled, plan is None,
        # and the compilation keys stay out of the metadata dict.
        for entry in entries:
            assert entry.compiled is False and entry.plan is None
            assert "compiled" not in entry.metadata
        # The raw wire dict is still there for consumers of the payload.
        raw = client.models_json()
        assert set(raw["m"]["versions"]) == {"v1", "v2"}

    def test_predict_single_and_batch(self, stack, image):
        _, _, _, client = stack
        single = client.predict("m", image)
        assert single["model"] == "m" and single["version"] == "v1"
        assert len(single["labels"]) == 1 and len(single["logits"][0]) == 4
        batch = client.predict("m", np.stack([image, image]))
        assert len(batch["labels"]) == 2
        # Same image, same version → bit-identical logits through JSON.
        assert batch["logits"][0] == single["logits"][0]

    def test_metrics_shape(self, stack, image):
        _, _, _, client = stack
        client.predict("m", image)
        metrics = client.metrics()
        assert metrics["requests"]["served"] >= 1
        assert metrics["batcher"]["batches"] >= 1
        assert metrics["policy"]["max_batch_size"] == 8
        assert "m" in metrics["models"]

    def test_version_pinning(self, stack, image):
        _, _, _, client = stack
        pinned = client.predict("m", image, version="v2")
        assert pinned["version"] == "v2"


class TestErrorMapping:
    def test_unknown_model_404(self, stack, image):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("ghost", image)
        assert excinfo.value.status == 404

    def test_unknown_version_404(self, stack, image):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", image, version="v9")
        assert excinfo.value.status == 404

    def test_malformed_inputs_400(self, stack):
        _, _, httpd, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", np.zeros((2, 2), dtype=np.float32))
        assert excinfo.value.status == 400
        for body in (b"not json", b'{"inputs": [[[0.0]]]}',
                     b'{"model": "m"}'):
            request = urllib.request.Request(
                f"{httpd.url}/v1/predict", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_unknown_paths_404(self, stack):
        _, _, httpd, _ = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{httpd.url}/nope")
        assert excinfo.value.code == 404

    def test_backpressure_maps_to_429(self, stack, image, monkeypatch):
        _, server, _, client = stack

        def full(*args, **kwargs):
            raise QueueFullError("queue depth 1 reached")

        monkeypatch.setattr(server.batcher, "submit", full)
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", image)
        assert excinfo.value.status == 429

    def test_429_carries_retry_after(self, stack, image, monkeypatch):
        _, server, httpd, _ = stack

        def full(*args, **kwargs):
            raise QueueFullError("queue depth 1 reached")

        monkeypatch.setattr(server.batcher, "submit", full)
        body = json.dumps({"model": "m",
                           "inputs": image.tolist()}).encode()
        request = urllib.request.Request(
            f"{httpd.url}/v1/predict", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "1"


class TestHotSwap:
    def test_activate_endpoint_swaps_served_version(self, stack, image):
        store, _, _, client = stack
        try:
            before = client.predict("m", image)
            assert before["version"] == "v1"
            client.activate("m", "v2")
            after = client.predict("m", image)
            assert after["version"] == "v2"
            # Different weights, different logits; pinned v1 unchanged.
            assert after["logits"] != before["logits"]
            pinned = client.predict("m", image, version="v1")
            assert pinned["logits"] == before["logits"]
        finally:
            store.activate("m", "v1")

    def test_activate_unknown_version_404(self, stack):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.activate("m", "v9")
        assert excinfo.value.status == 404
