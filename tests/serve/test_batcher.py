"""MicroBatcher: determinism contract, coalescing, backpressure, lifecycle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn.tensor import Tensor
from repro.serve import BatchPolicy, MicroBatcher, ModelStore, QueueFullError


@pytest.fixture(scope="module")
def served_model():
    nn.manual_seed(11)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("m", model, version="v1")
    return store


def model_infer(store):
    def infer(key, batch):
        return store.folded(*key)(Tensor(batch)).data
    return infer


@pytest.fixture(scope="module")
def images(rng):
    return rng.random((16, 3, 12, 12)).astype(np.float32)


class TestPolicyValidation:
    @pytest.mark.parametrize("width", [1, 5, 8, 15, 16, 20, 32, 64])
    def test_stable_widths_accepted(self, width):
        # Row-invariant GEMMs make every width bit-stable.
        assert BatchPolicy(max_batch_size=width).max_batch_size == width

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_ms=-1)
        with pytest.raises(ValueError):
            BatchPolicy(max_queue=0)


class TestDeterminism:
    def test_solo_vs_coalesced_bit_identity(self, served_model, images):
        """The tentpole contract: a request's logits are bit-identical
        whether served alone or coalesced with arbitrary traffic."""
        policy = BatchPolicy(max_batch_size=8, max_delay_ms=200.0)
        with MicroBatcher(model_infer(served_model), policy) as batcher:
            key = ("m", "v1")
            solo = [batcher.submit(key, images[i]).result(timeout=30).logits[0]
                    for i in range(8)]
            # Burst of 8 single-image requests within the delay window:
            # coalesces into one full-width batch.
            futures = [batcher.submit(key, images[i]) for i in range(8)]
            coalesced = [f.result(timeout=30).logits[0] for f in futures]
            stats = batcher.stats()
        for s, c in zip(solo, coalesced):
            assert np.array_equal(s, c)
        # Prove the burst actually coalesced (one batch, not eight).
        assert stats["batches"] < stats["requests"]
        assert stats["mean_batch_width"] > 1.0

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["interpreted", "compiled"])
    def test_width_20_solo_vs_coalesced_bit_identity(self, served_model,
                                                     images, compiled):
        """20 splits into unequal conv row-blocks (3/3/3/3/2/2/2/2); the
        contract holds anyway because no GEMM shape depends on them."""
        key = ("m", "v1")
        forward = served_model.folded(*key)
        if compiled:
            forward = nn.compile(served_model.entry(*key).model, 20,
                                 input_shape=images.shape[1:])
            assert forward.compiled, forward.fallback_reason

        def infer(_key, batch):
            return forward(Tensor(batch)).data

        policy = BatchPolicy(max_batch_size=20, max_delay_ms=200.0)
        with MicroBatcher(infer, policy) as batcher:
            solo = [batcher.submit(key, images[i]).result(timeout=30).logits
                    for i in range(16)]
            futures = [batcher.submit(key, images[i:i + 4])
                       for i in range(0, 16, 4)]
            coalesced = np.concatenate(
                [f.result(timeout=30).logits for f in futures])
            stats = batcher.stats()
        assert np.concatenate(solo).tobytes() == coalesced.tobytes()
        assert stats["batches"] < stats["requests"]

    def test_multi_image_requests_match_solo(self, served_model, images):
        policy = BatchPolicy(max_batch_size=8, max_delay_ms=100.0)
        with MicroBatcher(model_infer(served_model), policy) as batcher:
            key = ("m", "v1")
            solo = batcher.submit(key, images[:3]).result(timeout=30).logits
            f1 = batcher.submit(key, images[:3])
            f2 = batcher.submit(key, images[3:7])
            mixed = f1.result(timeout=30).logits
            other = f2.result(timeout=30).logits
        assert np.array_equal(solo, mixed)
        assert other.shape == (4, 4)

    def test_keys_never_mix_in_one_batch(self, images, rng):
        seen_widths = {}

        def spy_infer(key, batch):
            seen_widths.setdefault(key, []).append(len(batch))
            return np.full((len(batch), 2), float(key[1] == "v2"))

        policy = BatchPolicy(max_batch_size=8, max_delay_ms=100.0)
        with MicroBatcher(spy_infer, policy) as batcher:
            futures = [batcher.submit(("m", "v1" if i % 2 else "v2"),
                                      images[i]) for i in range(8)]
            outputs = [f.result(timeout=30) for f in futures]
        for i, output in enumerate(outputs):
            assert output.logits[0, 0] == float(i % 2 == 0)
        # Padded forwards always run at the fixed compute width.
        assert all(width == 8 for widths in seen_widths.values()
                   for width in widths)


class TestBackpressure:
    def test_queue_full_raises_and_counts(self, images):
        release = threading.Event()
        started = threading.Event()

        def slow_infer(key, batch):
            started.set()
            release.wait(timeout=30)
            return np.zeros((len(batch), 2))

        policy = BatchPolicy(max_batch_size=8, max_delay_ms=0.0, max_queue=2)
        batcher = MicroBatcher(slow_infer, policy)
        try:
            first = batcher.submit("k", images[0])
            assert started.wait(timeout=10)      # worker is busy serving it
            queued = [batcher.submit("k", images[i]) for i in (1, 2)]
            with pytest.raises(QueueFullError):
                batcher.submit("k", images[3])
            release.set()
            for future in [first] + queued:
                future.result(timeout=30)
            assert batcher.stats()["rejected"] == 1
        finally:
            release.set()
            batcher.close()

    def test_malformed_requests_rejected(self, images):
        with MicroBatcher(lambda k, b: np.zeros((len(b), 2)),
                          BatchPolicy(max_batch_size=4)) as batcher:
            with pytest.raises(ValueError, match="exceeds max_batch_size"):
                batcher.submit("k", images[:5])
            with pytest.raises(ValueError, match="empty"):
                batcher.submit("k", images[:0])
            with pytest.raises(ValueError, match="expected"):
                batcher.submit("k", images[0, 0])


class TestLifecycle:
    def test_close_drains_pending_then_rejects(self, images):
        done = []

        def infer(key, batch):
            done.append(len(batch))
            return np.zeros((len(batch), 2))

        batcher = MicroBatcher(infer, BatchPolicy(max_batch_size=4,
                                                  max_delay_ms=50.0))
        futures = [batcher.submit("k", images[i]) for i in range(3)]
        batcher.close()
        assert all(f.done() for f in futures)
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("k", images[0])

    def test_atexit_registry_tracks_live_instances(self):
        from repro.serve.batcher import _LIVE, _close_live_batchers

        batcher = MicroBatcher(lambda key, batch: np.zeros((len(batch), 2)),
                               BatchPolicy(max_batch_size=4))
        assert batcher in _LIVE
        batcher.close()
        # Closing again via the atexit path is a no-op.
        _close_live_batchers()

    def test_infer_errors_propagate_to_all_group_members(self, images):
        def broken(key, batch):
            raise RuntimeError("kernel exploded")

        with MicroBatcher(broken, BatchPolicy(max_batch_size=8,
                                              max_delay_ms=100.0)) as batcher:
            futures = [batcher.submit("k", images[i]) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(timeout=30)
            assert batcher.stats()["errors"] == 3

    def test_screen_extra_sliced_per_request(self, images):
        def infer(key, batch):
            return np.zeros((len(batch), 2))

        class Screen:
            def rows(self, key, real_images):
                return real_images[:0]

            def score(self, key, real_images, logits):
                # Tag each *request* row with its index: padding never
                # leaks in.
                return {"row": np.arange(len(real_images),
                                         dtype=np.float64)}

        with MicroBatcher(infer, BatchPolicy(max_batch_size=8,
                                             max_delay_ms=100.0),
                          screen=Screen()) as batcher:
            f1 = batcher.submit("k", images[:2])
            f2 = batcher.submit("k", images[2:5])
            rows1 = f1.result(timeout=30).extra["row"]
            rows2 = f2.result(timeout=30).extra["row"]
        combined = sorted(list(rows1) + list(rows2))
        assert combined == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(rows1) == 2 and len(rows2) == 3

    @pytest.mark.parametrize("requested, forwards", [(1, 1), (3, 2)])
    def test_screen_rows_ride_in_padding(self, images, requested, forwards):
        """Request rows, then screen rows, then zeros; chunked at width."""
        seen = []

        def infer(key, batch):
            seen.append(batch.copy())
            return batch.reshape(len(batch), -1)[:, :2] * 1.0

        class Screen:
            def rows(self, key, real_images):
                return np.concatenate([1.0 - real_images] * 3)

            def score(self, key, real_images, logits):
                expected = np.concatenate([1.0 - real_images] * 3)
                assert np.array_equal(
                    logits, expected.reshape(len(expected), -1)[:, :2])
                return {"n": np.full(len(real_images), len(logits))}

        with MicroBatcher(infer, BatchPolicy(max_batch_size=8),
                          screen=Screen()) as batcher:
            output = batcher.submit("k", images[:requested]).result(
                timeout=30)
            stats = batcher.stats()
        assert [len(batch) for batch in seen] == [8] * forwards
        rows = np.concatenate(seen)
        screened = 4 * requested
        assert np.array_equal(rows[:requested], images[:requested])
        assert not rows[screened:].any()
        assert np.array_equal(
            output.logits,
            images[:requested].reshape(requested, -1)[:, :2])
        assert list(output.extra["n"]) == [3 * requested] * requested
        assert stats["screen_rows"] == 3 * requested
        assert stats["padded_rows"] == 8 * forwards - screened
        assert stats["occupancy"] == screened / (8 * forwards)
