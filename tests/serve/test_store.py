"""ModelStore: registration, versioning, hot-swap, shared folded copies."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.registry import get_profile
from repro.defenses import StripDefense
from repro.eval.harness import PipelineConfig, PipelineResult
from repro.models import build_model
from repro.serve import BatchPolicy, InferenceServer, ModelStore
from repro.serve.scenario import serving_store
from repro.train import predict_logits


def _tiny_model(seed: int = 0):
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    return model


class TestRegistration:
    def test_auto_versions_and_active(self):
        store = ModelStore()
        assert store.register("m", _tiny_model(0)) == "v1"
        assert store.register("m", _tiny_model(1)) == "v2"
        assert store.active_version("m") == "v2"       # activate defaults on
        assert store.versions("m") == ["v1", "v2"]
        assert store.names() == ["m"]

    def test_register_without_activate_keeps_active(self):
        store = ModelStore()
        store.register("m", _tiny_model(0), version="a")
        store.register("m", _tiny_model(1), version="b", activate=False)
        assert store.active_version("m") == "a"
        assert store.resolve("m") == ("m", "a")

    def test_duplicate_version_rejected(self):
        store = ModelStore()
        store.register("m", _tiny_model(0), version="v1")
        with pytest.raises(ValueError, match="already registered"):
            store.register("m", _tiny_model(1), version="v1")

    def test_unknown_lookups_raise_keyerror(self):
        store = ModelStore()
        store.register("m", _tiny_model(0))
        with pytest.raises(KeyError):
            store.model("nope")
        with pytest.raises(KeyError):
            store.folded("m", "v9")
        with pytest.raises(KeyError):
            store.activate("m", "v9")

    def test_describe_lists_versions_and_active(self):
        store = ModelStore()
        store.register("m", _tiny_model(0), version="v1",
                       metadata={"stage": "camouflage"})
        store.register("m", _tiny_model(1), version="v2")
        store.activate("m", "v1")
        listing = store.describe()
        assert listing["m"]["active"] == "v1"
        assert listing["m"]["versions"]["v1"] == {"stage": "camouflage"}
        assert set(listing["m"]["versions"]) == {"v1", "v2"}


class TestHotSwap:
    def test_resolve_pins_active_at_call_time(self):
        store = ModelStore()
        store.register("m", _tiny_model(0), version="old")
        store.register("m", _tiny_model(1), version="new", activate=False)
        before = store.resolve("m")
        store.activate("m", "new")
        after = store.resolve("m")
        assert before == ("m", "old") and after == ("m", "new")
        # Explicitly-pinned versions survive the swap.
        assert store.resolve("m", "old") == ("m", "old")


class TestFoldedSharing:
    def test_folded_is_cached_per_version(self):
        store = ModelStore()
        store.register("m", _tiny_model(0))
        assert store.folded("m") is store.folded("m")

    def test_folded_shared_with_defense_sweeps(self, unit_data):
        """STRIP bound to the same trained weights reuses the store's
        folded copy — the model is folded once across eval + serving."""
        _, test, _ = unit_data
        model = _tiny_model(3)
        store = ModelStore()
        store.register("m", model)
        folded = store.folded("m")
        defense = StripDefense(model, test, num_overlays=2)
        assert defense._infer.get() is folded
        # Even a second, independent store hits the shared cache.
        other = ModelStore()
        other.register("same-weights", model)
        assert other.folded("same-weights") is folded

    def test_registered_models_are_immutable_artifacts(self, small_batch):
        """The fingerprint is pinned at registration (the serving hot
        path never re-hashes weights); new weights mean a new version."""
        model = _tiny_model(5)
        store = ModelStore()
        store.register("m", model, version="v1")
        served = store.folded("m")               # pinned at registration
        registered_logits = predict_logits(served, small_batch)
        for param in model.parameters():
            param.data += 0.05
        # Serving keeps the registered weights, hot path never re-hashes.
        assert store.folded("m") is served
        np.testing.assert_allclose(
            predict_logits(store.folded("m"), small_batch),
            registered_logits, atol=1e-5)
        # The deployment-model way to pick up new weights: a new version.
        store.register("m", model, version="v2")
        np.testing.assert_allclose(
            predict_logits(store.folded("m"), small_batch),
            predict_logits(model, small_batch), atol=1e-5)

    def test_mutation_before_first_fold_rejected(self):
        """Folding mutated weights under the registration fingerprint
        would poison the shared cache — rejected loudly instead."""
        model = _tiny_model(6)
        store = ModelStore()
        store.register("m", model, version="v1")
        for param in model.parameters():
            param.data += 0.05
        with pytest.raises(RuntimeError, match="immutable"):
            store.folded("m")


class TestServingStore:
    def _result(self, camouflage=None, unlearned=None, poison=None):
        return PipelineResult(config=PipelineConfig(dataset="unit"),
                              bundle=None, clean_test=None, attack_test=None,
                              target_label=0, poison_model=poison,
                              camouflage_model=camouflage,
                              unlearned_model=unlearned)

    def test_stage_models_become_versions(self):
        result = self._result(camouflage=_tiny_model(0),
                              unlearned=_tiny_model(1))
        store = serving_store(result, name="served")
        assert store.versions("served") == ["camouflage", "unlearned"]
        # The paper's deployment state: camouflaged model active.
        assert store.active_version("served") == "camouflage"
        meta = store.describe()["served"]["versions"]["unlearned"]
        assert meta["stage"] == "unlearned" and meta["dataset"] == "unit"

    def test_activate_override_and_default_name(self):
        result = self._result(camouflage=_tiny_model(0),
                              unlearned=_tiny_model(1))
        store = result.model_store(activate="unlearned")
        assert store.active_version("small_cnn") == "unlearned"

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="no stage models"):
            serving_store(self._result())


class TestVersionMemory:
    def test_each_registered_bench_version_adds_under_half_a_megabyte(self):
        """A deletion's version adds its model and folded copy, and
        nothing per version beside them grows with the store."""
        profile = get_profile("cifar10-bench")
        shape = (3, profile.spec.image_size, profile.spec.image_size)

        def register(store, seed):
            nn.manual_seed(seed)
            model = build_model("small_cnn", profile.num_classes,
                                scale="bench")
            model.eval()
            store.register("m", model, version=f"v{seed}",
                           input_shape=shape)
            assert store.entry("m", f"v{seed}")._folded is not None

        store = ModelStore()
        server = InferenceServer(store, policy=BatchPolicy())
        try:
            register(store, 0)
            gc.collect()
            tracemalloc.start()
            try:
                sizes = [tracemalloc.get_traced_memory()[0]]
                for seed in range(1, 4):
                    register(store, seed)
                    gc.collect()
                    sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        finally:
            server.close()
        growth = np.diff(sizes) / (1 << 20)
        assert growth.max() <= 0.5, growth
