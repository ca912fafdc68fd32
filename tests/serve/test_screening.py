"""OnlineStrip: per-version binding, counters, parity with the offline sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.defenses import StripDefense
from repro.serve import OnlineStrip, ScreenConfig
from repro.train import predict_logits


def _screen(screen, key, model, images):
    """One served screen: blend rows, their forward, then the score."""
    blend_logits = predict_logits(model, screen.rows(key, model, images))
    return screen.score(key, model, images, blend_logits)


@pytest.fixture(scope="module")
def pools():
    _, test, _ = load_dataset("unit", seed=0)
    return test.subset(range(16)), test.images[16:28]


class TestConfig:
    def test_bad_overlays_rejected(self):
        with pytest.raises(ValueError):
            ScreenConfig(num_overlays=0)

    def test_empty_pools_rejected(self, pools, unit_data):
        overlays, _ = pools
        _, test, _ = unit_data
        with pytest.raises(ValueError, match="overlay_pool"):
            OnlineStrip(test.subset([]))
        with pytest.raises(ValueError, match="calibration_images"):
            OnlineStrip(overlays, calibration_images=test.images[:0])


class TestScoring:
    def test_matches_offline_strip(self, pools, trained_tiny_model):
        """The online screen is the offline detector bound per version:
        same boundary, same suspect entropies.  It is handed the served
        (folded) inference copy, like the server does."""
        from repro import nn
        overlays, calibration = pools
        config = ScreenConfig(num_overlays=4, seed=3)
        screen = OnlineStrip(overlays, calibration_images=calibration,
                             config=config)
        suspects = calibration[:6]
        served_copy = nn.prepare_for_inference(trained_tiny_model)
        scored = _screen(screen, ("m", "v1"), served_copy, suspects)

        offline = StripDefense(trained_tiny_model, overlays,
                               num_overlays=4, alpha=config.alpha,
                               frr=config.frr, seed=3)
        np.testing.assert_array_equal(
            scored["entropy"], offline.entropies(suspects, seed_offset=2))
        assert scored["boundary"][0] == offline.calibrate(calibration)
        np.testing.assert_array_equal(
            scored["flagged"], scored["entropy"] < scored["boundary"][0])

    def test_served_entropies_match_offline(self, pools, trained_tiny_model):
        """Through the server, blend rows ride in the request's forward;
        the entropies still equal the offline sweep's bits."""
        from repro.serve import BatchPolicy, InferenceServer, ModelStore
        overlays, calibration = pools
        config = ScreenConfig(num_overlays=3, seed=5)
        store = ModelStore()
        store.register("m", trained_tiny_model, version="v1",
                       input_shape=calibration.shape[1:])
        screen = OnlineStrip(overlays, calibration_images=calibration,
                             config=config)
        offline = StripDefense(trained_tiny_model, overlays,
                               num_overlays=3, alpha=config.alpha,
                               frr=config.frr, seed=5)
        with InferenceServer(store, policy=BatchPolicy(max_batch_size=8),
                             screening=screen) as server:
            for suspects in (calibration[:1], calibration[2:5]):
                served = server.batcher.submit(("m", "v1"), suspects)
                np.testing.assert_array_equal(
                    served.result(timeout=30).extra["entropy"],
                    offline.entropies(suspects, seed_offset=2))
            batcher = server.batcher.stats()
        # 1 + 3 rows in one forward, then 3 + 9 rows in chunks of 8 and
        # 4: no row is padding.
        assert batcher["screen_rows"] == 12
        assert batcher["padded_rows"] == 0

    def test_counters_accumulate_per_version(self, pools, trained_tiny_model):
        overlays, calibration = pools
        screen = OnlineStrip(overlays, calibration_images=calibration,
                             config=ScreenConfig(num_overlays=2))
        _screen(screen, ("m", "camouflage"), trained_tiny_model, calibration[:4])
        _screen(screen, ("m", "camouflage"), trained_tiny_model, calibration[:3])
        _screen(screen, ("m", "unlearned"), trained_tiny_model, calibration[:5])
        report = screen.report()
        assert report["m/camouflage"]["screened"] == 7
        assert report["m/unlearned"]["screened"] == 5
        for entry in report.values():
            assert 0.0 <= entry["flag_rate"] <= 1.0
            assert entry["flagged"] <= entry["screened"]
            assert np.isfinite(entry["boundary"])

    def test_calibration_defaults_to_overlay_pool(self, pools,
                                                  trained_tiny_model):
        overlays, _ = pools
        screen = OnlineStrip(overlays, config=ScreenConfig(num_overlays=2))
        scored = _screen(screen, ("m", "v1"), trained_tiny_model,
                              overlays.images[:2])
        assert len(scored["entropy"]) == 2
