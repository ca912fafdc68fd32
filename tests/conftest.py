"""Shared fixtures for the test suite.

Everything here uses the ``unit`` dataset profile (4 classes, 12×12) and
tiny models so the full suite stays fast.  Expensive artifacts (a trained
model) are session-scoped.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import nn
from repro.data import load_dataset
from repro.models import small_cnn
from repro.train import TrainConfig, train_model


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Let a failing hypothesis test print its falsifying example under
    ``-W error``.

    Hypothesis reports a failure by importing its patch writer, whose
    ``libcst`` import raises one third-party DeprecationWarning
    (``mypy_extensions.TypedDict``); ``-W error`` turns that into an
    INTERNALERROR that hides the example.  A ``filterwarnings`` entry in
    the pytest config cannot help: pytest applies command-line ``-W``
    filters after the config's, so ``error`` wins.  This wrapper runs
    outside hypothesis's and ignores exactly that warning.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning)
        yield


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``array``.

    ``fn`` must recompute the scalar from the (mutated) array each call.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = fn()
        flat[i] = original - eps
        low = fn()
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def unit_data():
    """(train, test, profile) for the 'unit' synthetic profile."""
    return load_dataset("unit", seed=0)


@pytest.fixture(scope="session")
def tiny_model_factory(unit_data):
    """Zero-arg factory building a fresh tiny CNN for the unit profile."""
    _, _, profile = unit_data

    def factory():
        return small_cnn(profile.num_classes, width=8)

    return factory


@pytest.fixture(scope="session")
def trained_tiny_model(unit_data, tiny_model_factory):
    """A tiny CNN trained on the unit profile (session-scoped)."""
    train, _, _ = unit_data
    nn.manual_seed(0)
    model = tiny_model_factory()
    train_model(model, train, TrainConfig(epochs=10, lr=3e-3, seed=0))
    return model


@pytest.fixture()
def small_batch(rng) -> np.ndarray:
    """A (4, 3, 12, 12) float32 image batch in [0, 1]."""
    return rng.random((4, 3, 12, 12)).astype(np.float32)
