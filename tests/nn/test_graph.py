"""repro.nn.graph: trace → fuse → arena → autotune, bit-identity contract.

The compiled path is only allowed to exist because it is invisible:
for every registered architecture, at every serving width, thread
count, and fusion setting, the flat arena program must reproduce the
interpreted folded forward byte for byte — and when a model cannot be
traced, :func:`repro.nn.compile` must degrade to the interpreted path
with a single warning instead of failing.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import nn
from repro.models import available_models, build_model
from repro.nn.fold import FoldedModelCache, _inference_copy_impl
from repro.nn.graph import (_FALLBACK_WARNED, CompiledModel,
                            prepare_for_inference)
from repro.nn.graph import compile as nn_compile
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.nn.threading import batch_blocks, intra_op_threads
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
    @pytest.mark.parametrize("width", [1, 8])
    def test_compiled_matches_interpreted_bitwise(self, name, width):
        model = _model(name)
        interpreted = _inference_copy_impl(model)
        batch = _batch(width)
        with nn.no_grad():
            reference = interpreted(Tensor(batch)).data
        for fused in (True, False):
            compiled = nn_compile(model, width, input_shape=SHAPE,
                                  fused=fused, autotune=False)
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
            compiled = nn_compile(model, width, input_shape=SHAPE,
                                  fused=fused, autotune=False)
            assert compiled.compiled, compiled.fallback_reason
            out = compiled(batch).data
            assert out.tobytes() == reference.tobytes(), (
                f"width={width} fused={fused} diverged from interpreted")

    def test_autotune_keeps_bits_and_records_table(self):
        model = _model()
        width = 32
        compiled = nn_compile(model, width, input_shape=SHAPE, autotune=True)
        assert compiled.compiled, compiled.fallback_reason
        table = compiled.plan["tuned"]
        assert table, "autotune recorded no conv blockings"
        for key, blocks in table.items():
            geometry, _, tuned_width = key.rpartition("|")
            assert geometry and int(tuned_width) == width
            assert blocks in (1, 2, 4, 8, 16)
        batch = _batch(width)
        interpreted = _inference_copy_impl(model)
        with nn.no_grad():
            reference = interpreted(Tensor(batch)).data
        assert compiled(batch).data.tobytes() == reference.tobytes()

    def test_off_width_batches_delegate_to_interpreted(self):
        model = _model()
        compiled = nn_compile(model, 8, input_shape=SHAPE, autotune=False)
        batch = _batch(3)
        with nn.no_grad():
            reference = compiled.model(Tensor(batch)).data
        assert compiled(batch).data.tobytes() == reference.tobytes()

    def test_plan_save_load_roundtrip(self, tmp_path):
        model = _model()
        compiled = nn_compile(model, 8, input_shape=SHAPE)
        path = tmp_path / "plan.json"
        compiled.save(path)
        plan = json.loads(path.read_text())
        assert plan["width"] == 8 and plan["ops"] >= 1
        reloaded = CompiledModel.load(path, model)
        assert reloaded.compiled
        assert reloaded.plan["tuned"] == compiled.plan["tuned"]
        batch = _batch(8)
        assert reloaded(batch).data.tobytes() \
            == compiled(batch).data.tobytes()


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


class TestBlockOverride:
    def test_batch_blocks_override_and_clamp(self):
        # Default decomposition untouched (the training path's contract).
        assert batch_blocks(8) == [slice(0, 8)]
        assert len(batch_blocks(64)) == 8
        # Explicit override: exact count, clamped to the batch.
        assert len(batch_blocks(64, blocks=4)) == 4
        assert batch_blocks(64, blocks=1) == [slice(0, 64)]
        assert len(batch_blocks(3, blocks=16)) == 3
        covered = batch_blocks(64, blocks=4)
        assert covered[0].start == 0 and covered[-1].stop == 64
        for left, right in zip(covered, covered[1:]):
            assert left.stop == right.start


class TestDeprecationShims:
    def test_inference_copy_warns_once_and_matches(self, small_batch):
        from repro.nn.fold import _SHIMS_WARNED, inference_copy
        _SHIMS_WARNED.discard("repro.nn.inference_copy")
        model = _model(seed=13)
        with pytest.warns(DeprecationWarning, match="prepare_for_inference"):
            shimmed = inference_copy(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # second call must be silent
            inference_copy(model)
        batch = Tensor(small_batch)
        with nn.no_grad():
            np.testing.assert_array_equal(
                shimmed(batch).data,
                prepare_for_inference(model)(batch).data)

    def test_predict_logits_fold_warns_once(self, small_batch):
        from repro.nn.fold import _SHIMS_WARNED
        from repro.train import predict_logits
        _SHIMS_WARNED.discard("predict_logits(fold=)")
        model = _model(seed=14)
        with pytest.warns(DeprecationWarning, match="prepare_for_inference"):
            folded = predict_logits(model, small_batch, fold=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = predict_logits(model, small_batch)
        np.testing.assert_allclose(folded, plain, atol=1e-5)
