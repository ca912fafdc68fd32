"""repro.nn.graph: trace → fuse → arena, bit-identity contract.

The compiled path is only allowed to exist because it is invisible:
for every registered architecture, at every serving width, thread
count, and fusion setting, the flat arena program must reproduce the
interpreted folded forward byte for byte — and when a model cannot be
traced, :func:`repro.nn.compile` must degrade to the interpreted path
with a single warning instead of failing.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import nn
from repro.models import available_models, build_model
from repro.nn.fold import FoldedModelCache, _inference_copy
from repro.nn.graph import _FALLBACK_WARNED, prepare_for_inference
from repro.nn.graph import compile as nn_compile
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.nn.threading import intra_op_threads
from tests.nn import reference_kernels

#: Per-sample shape of the unit profile every tiny model accepts.
SHAPE = (3, 12, 12)


def _model(name="small_cnn", seed=0):
    nn.manual_seed(seed)
    model = build_model(name, num_classes=4, scale="tiny")
    model.eval()
    return model


def _batch(width, seed=99):
    rng = np.random.default_rng(seed)
    return rng.random((width,) + SHAPE).astype(np.float32)


class _Untraceable(Module):
    """Forward escapes the tensor op layer → the tracer cannot see it."""

    def forward(self, x):
        return Tensor(np.tanh(x.data))


class TestBitIdentity:
    """Property sweep: architectures × widths × threads × fusion."""

    @pytest.mark.parametrize("name", available_models())
    @pytest.mark.parametrize("width", [1, 8, 32])
    def test_compiled_matches_interpreted_bitwise(self, name, width):
        model = _model(name)
        interpreted = _inference_copy(model)
        batch = _batch(width)
        with nn.no_grad():
            reference = interpreted(Tensor(batch)).data
        for fused in (True, False):
            compiled = nn_compile(model, width, input_shape=SHAPE, fused=fused)
            assert compiled.compiled, compiled.fallback_reason
            for threads in (1, 0):      # serial and one-per-core
                with intra_op_threads(threads):
                    out = compiled(batch).data
                assert out.dtype == reference.dtype
                assert out.tobytes() == reference.tobytes(), (
                    f"{name} width={width} fused={fused} "
                    f"threads={threads} diverged from interpreted")

    @pytest.mark.parametrize("width", [1, 8])
    def test_signed_zero_pool_windows_match_interpreted(self, width):
        """ReLU of a negative is ``-0.0``, so pool windows mix both zeros.

        The compiled max-pool writes into its arena buffer with ``out=``;
        it must pick the same zero, sign included, as the interpreted
        path and the plain argmax formulation, in every window.
        """
        model = nn.Sequential(nn.ReLU(), nn.MaxPool2d(2))
        model.eval()
        rng = np.random.default_rng(width)
        batch = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5], np.float32),
                           size=(width,) + SHAPE)
        with nn.no_grad():
            reference = model(Tensor(batch)).data
            oracle = reference_kernels.max_pool2d(
                Tensor(batch).relu(), 2).data
        assert reference.tobytes() == oracle.tobytes()
        zeros = reference[reference == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        for fused in (True, False):
            compiled = nn_compile(model, width, input_shape=SHAPE, fused=fused)
            assert compiled.compiled, compiled.fallback_reason
            out = compiled(batch).data
            assert out.tobytes() == reference.tobytes(), (
                f"width={width} fused={fused} diverged from interpreted")

    def test_off_width_batches_delegate_to_interpreted(self):
        model = _model()
        compiled = nn_compile(model, 8, input_shape=SHAPE)
        batch = _batch(3)
        with nn.no_grad():
            reference = compiled.model(Tensor(batch)).data
        assert compiled(batch).data.tobytes() == reference.tobytes()


class TestFallback:
    def test_untraceable_model_falls_back_with_one_warning(self):
        _FALLBACK_WARNED.clear()
        model = _Untraceable()
        batch = _batch(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compiled = nn_compile(model, 4, input_shape=SHAPE)
            again = nn_compile(model, 4, input_shape=SHAPE)
        fallback_warnings = [w for w in caught
                             if issubclass(w.category, RuntimeWarning)]
        assert len(fallback_warnings) == 1, "fallback must warn exactly once"
        assert "interpreted" in str(fallback_warnings[0].message)
        for fallback in (compiled, again):
            assert not fallback.compiled
            assert fallback.fallback_reason
            with nn.no_grad():
                reference = model(Tensor(batch)).data
            assert fallback(batch).data.tobytes() == reference.tobytes()

    def test_missing_input_shape_is_a_fallback_not_a_crash(self):
        _FALLBACK_WARNED.clear()
        model = _model()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            compiled = nn_compile(model, 4)     # no shape registered
        assert not compiled.compiled
        assert "input_shape" in compiled.fallback_reason

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError, match="width"):
            nn_compile(_model(), 0, input_shape=SHAPE)


class TestCacheKeys:
    def test_cross_width_plans_do_not_collide(self):
        """Regression: the folded cache once keyed on fingerprint alone,
        so two widths of the same weights would overwrite each other."""
        model = _model(seed=11)
        w4 = prepare_for_inference(model, width=4, input_shape=SHAPE)
        w8 = prepare_for_inference(model, width=8, input_shape=SHAPE)
        assert w4 is not w8
        assert w4.width == 4 and w8.width == 8
        # Same (weights, width) → the exact same cached object.
        assert prepare_for_inference(model, width=4,
                                     input_shape=SHAPE) is w4
        assert prepare_for_inference(model, width=8,
                                     input_shape=SHAPE) is w8
        # The plain folded copy lives under its own width=None slot.
        folded = prepare_for_inference(model)
        assert folded is not w4 and folded is not w8
        assert prepare_for_inference(model, compile=False) is folded

    def test_folded_cache_width_keying_is_explicit(self):
        cache = FoldedModelCache()
        model = _model(seed=12)
        plain = cache.get(model)
        tagged = cache.get(model, width=8, build=lambda m: ("plan", m))
        assert tagged == ("plan", model)
        assert cache.get(model) is plain                  # None slot intact
        assert cache.get(model, width=8) is tagged
        assert len(cache) == 2
