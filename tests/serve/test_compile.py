"""Compiled serving: plans through the store, the wire, and the workers.

The API-redesign satellite contract: ``/v1/models`` advertises
compilation state per version, ``POST /v1/compile`` triggers it with
the standard error envelope, and the compiled hot path stays invisible
— every served logit bit-identical to the interpreted fixed-width
forward, whether the batch runs in-process or on a worker replica
rebuilt from a shipped plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn.fold import _inference_copy
from repro.nn.tensor import Tensor
from repro.parallel import ModelSpec
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         ServingClient, ServingError, start_http_server,
                         stop_http_server)

SHAPE = (3, 12, 12)
POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)
PLAN_KEYS = {"ops", "fused", "arena_bytes"}


def _tiny_model(seed):
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    return model


@pytest.fixture(scope="module")
def stack():
    store = ModelStore()
    store.register("m", _tiny_model(0), version="v1", input_shape=SHAPE)
    store.register("bare", _tiny_model(1), version="v1")    # no input shape
    server = InferenceServer(store, policy=POLICY)
    httpd = start_http_server(server)
    yield store, server, httpd, ServingClient(httpd.url)
    stop_http_server(httpd)
    server.close()


@pytest.fixture(scope="module")
def image(rng):
    return rng.random(SHAPE).astype(np.float32)


class TestCompileEndpoint:
    def test_compile_reports_the_plan(self, stack):
        _, _, _, client = stack
        report = client.compile("m")
        assert report["model"] == "m" and report["version"] == "v1"
        assert report["compiled"] is True
        assert set(report["plan"]) == PLAN_KEYS
        assert report["plan"]["ops"] >= 1
        assert "fallback" not in report

    def test_models_listing_advertises_compilation(self, stack):
        _, _, _, client = stack
        client.compile("m")
        listed = {(entry.name, entry.version): entry
                  for entry in client.models()}
        compiled = listed[("m", "v1")]
        assert compiled.compiled and set(compiled.plan) == PLAN_KEYS
        bare = listed[("bare", "v1")]
        assert bare.compiled is False and bare.plan is None
        # The wire keys are additive on the legacy dict shape.
        raw = client.models_json()
        assert raw["m"]["versions"]["v1"]["compiled"] is True
        assert raw["bare"]["versions"]["v1"]["plan"] is None

    def test_unknown_model_maps_to_404(self, stack):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.compile("ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_shapeless_version_maps_to_400(self, stack):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.compile("bare")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "input_shape" in str(excinfo.value)

    def test_compile_is_idempotent_and_cached(self, stack):
        store, _, _, client = stack
        first = client.compile("m")
        entry = store.entry("m", "v1")
        executable = entry.ensure_compiled(POLICY.max_batch_size)
        assert client.compile("m") == first
        assert entry.ensure_compiled(POLICY.max_batch_size) is executable

    def test_metrics_surface_compilation(self, stack, image):
        _, _, _, client = stack
        client.compile("m")
        client.predict("m", image)
        compile_metrics = client.metrics()["compile"]
        assert compile_metrics["enabled"] is True
        assert compile_metrics["compiled_versions"] >= 1


class TestCompiledHotPath:
    def test_served_logits_bit_identical_to_interpreted(self, stack, image):
        store, server, _, client = stack
        client.compile("m")
        assert store.entry("m", "v1").compiled
        served = np.array(client.predict("m", image)["logits"][0],
                          dtype=np.float32)
        batch = np.zeros((POLICY.max_batch_size,) + SHAPE, np.float32)
        batch[0] = image
        interpreted = _inference_copy(store.model("m", "v1"))
        with nn.no_grad():
            direct = interpreted(Tensor(batch)).data[0].astype(np.float32)
        assert np.array_equal(served, direct)

    def test_compile_models_off_serves_interpreted(self, image):
        store = ModelStore()
        store.register("m", _tiny_model(7), version="v1", input_shape=SHAPE)
        server = InferenceServer(store, policy=POLICY, compile_models=False)
        try:
            result = server.predict("m", np.stack([image]))
            assert not store.entry("m", "v1").compiled
            assert server.metrics()["compile"]["enabled"] is False
            # The explicit admin trigger still works with the knob off.
            report = server.compile_model("m")
            assert report["compiled"] and store.entry("m", "v1").compiled
            recompiled = server.predict("m", np.stack([image]))
            assert np.array_equal(result.logits, recompiled.logits)
        finally:
            server.close()


@pytest.mark.parallel
class TestPlanShipping:
    def test_workers_rebuild_replicas_from_the_shipped_plan(self, image):
        store = ModelStore()
        model = _tiny_model(3)
        store.register("m", model, version="v1",
                       spec=ModelSpec("small_cnn", 4, scale="tiny"),
                       input_shape=SHAPE)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            assert store.entry("m", "v1").compiled   # compiled at prefetch
            served = server.predict("m", np.stack([image])).logits[0]
            report = server.compile_model("m")
            assert report["compiled"]
            stats = server.backend.stats()
            assert stats["compile_ships"] >= 1
            after = server.predict("m", np.stack([image])).logits[0]
            batch = np.zeros((POLICY.max_batch_size,) + SHAPE, np.float32)
            batch[0] = image
            interpreted = _inference_copy(model)
            with nn.no_grad():
                direct = interpreted(Tensor(batch)).data[0]
            assert np.array_equal(served, direct.astype(served.dtype))
            assert np.array_equal(after, served)
        finally:
            server.close()
