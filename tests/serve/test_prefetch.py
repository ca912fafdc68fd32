"""Prefetch + warm-up: every version is warm before traffic, no cold start."""

import numpy as np
import pytest

from repro import nn
from repro.data.registry import load_dataset
from repro.models.registry import build_model
from repro.serve import BatchPolicy, InferenceServer, ModelStore

POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)


@pytest.fixture(scope="module")
def data():
    _, test, profile = load_dataset("unit", seed=0)
    return test, profile


def make_store(profile, test, versions=("v1",), input_shape=True):
    store = ModelStore()
    for index, version in enumerate(versions):
        nn.manual_seed(index)
        model = build_model("small_cnn", profile.num_classes, scale="tiny")
        model.eval()
        store.register("m", model, version=version,
                       input_shape=test.images.shape[1:]
                       if input_shape else None)
    return store


class TestPrefetchOnRegister:
    def test_register_after_server_creation_prefetches(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY)
        try:
            nn.manual_seed(77)
            v2 = build_model("small_cnn", profile.num_classes, scale="tiny")
            v2.eval()
            store.register("m", v2, version="v2",
                           input_shape=test.images.shape[1:],
                           activate=False)
            assert store.entry("m", "v2")._folded is not None
            assert store.entry("m", "v2").compiled
            assert len(server._warmed_inline) == 2
        finally:
            server.close()

    def test_prefetched_logits_bit_identical_to_lazy(self, data):
        test, profile = data
        eager = InferenceServer(make_store(profile, test), policy=POLICY)
        lazy = InferenceServer(make_store(profile, test), policy=POLICY,
                               prefetch_replicas=False)
        try:
            a = eager.predict("m", test.images[0]).logits
            b = lazy.predict("m", test.images[0]).logits
            assert np.array_equal(a, b)
        finally:
            eager.close()
            lazy.close()

    def test_inline_server_warms_folded_copy(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY)
        try:
            # The folded copy was built (and forwarded once) at init.
            entry = store.entry("m", "v1")
            assert entry._folded is not None
            assert len(server._warmed_inline) == 1
        finally:
            server.close()

    def test_no_input_shape_skips_warmup(self, data):
        test, profile = data
        store = make_store(profile, test, input_shape=False)
        server = InferenceServer(store, policy=POLICY)
        try:
            assert store.entry("m", "v1")._folded is not None
            assert len(server._warmed_inline) == 0
            served = server.predict("m", test.images[0])
            assert served.version == "v1"
        finally:
            server.close()
