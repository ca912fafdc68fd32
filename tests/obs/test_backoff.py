"""The deterministic-jitter backoff curve.

These tests pin the semantics the serving client's retry loop depends
on: reproducible across runs and decorrelated across tokens.
"""

from __future__ import annotations

import pytest

from repro.obs.backoff import backoff_delay, jitter_unit


class TestJitterUnit:
    def test_deterministic_and_in_unit_interval(self):
        draws = [jitter_unit("worker-0", attempt) for attempt in range(1, 64)]
        assert draws == [jitter_unit("worker-0", a) for a in range(1, 64)]
        assert all(0.0 <= unit < 1.0 for unit in draws)

    def test_tokens_decorrelate(self):
        assert jitter_unit("worker-0", 1) != jitter_unit("worker-1", 1)
        assert jitter_unit("worker-0", 1) != jitter_unit("worker-0", 2)


class TestBackoffDelay:
    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(0, base_delay_s=0.1)

    def test_jitter_range_validated(self):
        with pytest.raises(ValueError):
            backoff_delay(1, base_delay_s=0.1, jitter=1.5)

    def test_exponential_doubling_capped(self):
        delays = [backoff_delay(attempt, base_delay_s=0.1, max_delay_s=0.5,
                                jitter=0.0) for attempt in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_scales_within_band(self):
        for attempt in range(1, 16):
            delay = backoff_delay(attempt, base_delay_s=0.1, max_delay_s=0.5,
                                  jitter=0.25, token="t")
            center = backoff_delay(attempt, base_delay_s=0.1, max_delay_s=0.5,
                                   jitter=0.0)
            assert center * 0.75 <= delay < center * 1.25

    def test_reproducible_across_calls(self):
        first = [backoff_delay(a, base_delay_s=0.02, token="worker-3")
                 for a in range(1, 8)]
        second = [backoff_delay(a, base_delay_s=0.02, token="worker-3")
                  for a in range(1, 8)]
        assert first == second
