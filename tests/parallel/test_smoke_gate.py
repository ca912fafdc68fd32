"""The tier-2 parallel smoke gate: passes clean, fails on a live child."""

import multiprocessing

import pytest

from repro.benchmarks import smoke
from repro.parallel import default_context

pytestmark = pytest.mark.parallel


def test_gate_passes(capsys):
    assert smoke.main([]) == 0
    assert "no live children" in capsys.readouterr().out


def test_gate_fails_when_a_child_outlives_the_fit(monkeypatch, capsys):
    ctx = multiprocessing.get_context(default_context())
    release = ctx.Event()
    child = ctx.Process(target=release.wait)
    real_fit = smoke._fit

    def leaky_fit(workers):
        if not child.is_alive():
            child.start()
        return real_fit(workers)

    monkeypatch.setattr(smoke, "_fit", leaky_fit)
    try:
        assert smoke.main([]) == 1
    finally:
        release.set()
        child.join(timeout=10)
    assert not child.is_alive()
    assert "still alive after the pooled fit" in capsys.readouterr().err
