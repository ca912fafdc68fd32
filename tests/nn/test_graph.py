"""repro.nn.graph: trace → fuse → arena, bit-identity contract.

The compiled path is only allowed to exist because it is invisible:
for every registered architecture, at every serving width, and for
every op in the op table, the flat arena program must
reproduce the interpreted forward byte for byte — and when a model
cannot be traced, :func:`repro.nn.compile` must degrade to the
interpreted path with a single warning instead of failing.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from repro import nn
from repro.models import available_models, build_model
from repro.nn import functional as F
from repro.nn.fold import FoldedModelCache, _inference_copy
from repro.nn.graph import _FALLBACK_WARNED, _trace, prepare_for_inference
from repro.nn.graph import compile as nn_compile
from repro.nn.module import Module
from repro.nn.tensor import OPS, Tensor
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
    """Property sweep: architectures × widths."""

    @pytest.mark.parametrize("name", available_models())
    @pytest.mark.parametrize("width", [1, 8, 32])
    def test_compiled_matches_interpreted_bitwise(self, name, width):
        model = _model(name)
        interpreted = _inference_copy(model)
        batch = _batch(width)
        with nn.no_grad():
            reference = interpreted(Tensor(batch)).data
        compiled = nn_compile(model, width, input_shape=SHAPE)
        assert compiled.compiled, compiled.fallback_reason
        out = compiled(batch).data
        assert out.dtype == reference.dtype
        assert out.tobytes() == reference.tobytes(), (
            f"{name} width={width} diverged from interpreted")

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
        compiled = nn_compile(model, width, input_shape=SHAPE)
        assert compiled.compiled, compiled.fallback_reason
        out = compiled(batch).data
        assert out.tobytes() == reference.tobytes(), (
            f"width={width} diverged from interpreted")

    def test_off_width_batches_delegate_to_interpreted(self):
        model = _model()
        compiled = nn_compile(model, 8, input_shape=SHAPE)
        batch = _batch(3)
        with nn.no_grad():
            reference = compiled.model(Tensor(batch)).data
        assert compiled(batch).data.tobytes() == reference.tobytes()


def _const(seed, *shape):
    return Tensor(np.random.default_rng(seed).standard_normal(shape)
                  .astype(np.float32))


#: One small forward per op in the table, on a ``(width, *SHAPE)`` input.
OP_CASES = {
    "add": lambda x: x + 1.5,
    "neg": lambda x: -x,
    "mul": lambda x: x * x,
    "div": lambda x: x / 3.0,
    "pow": lambda x: x ** 3,
    "exp": lambda x: x.exp(),
    "log": lambda x: (x * x + 0.5).log(),     # compile draws normal batches
    "sqrt": lambda x: (x * x).sqrt(),
    "tanh": lambda x: x.tanh(),
    "relu": lambda x: (x - 0.5).relu(),
    "sigmoid": lambda x: x.sigmoid(),
    "clip": lambda x: x.clip(0.2, 0.7),
    "matmul": lambda x: x.reshape(len(x), -1) @ _const(1, 432, 5),
    "sum": lambda x: x.sum(axis=(2, 3)),
    "max": lambda x: x.max(axis=1),
    "reshape": lambda x: x.reshape(len(x), -1),
    "transpose": lambda x: x.transpose(0, 2, 3, 1),
    "getitem": lambda x: x[:, 1:, ::2],
    "stack": lambda x: nn.stack([x, x * 2.0], axis=1),
    "concat": lambda x: nn.concat([x, x.relu()], axis=1),
    "conv2d": lambda x: F.conv2d(x, _const(2, 6, 1, 3, 3), _const(3, 6),
                                 stride=2, padding=1, groups=3),
    "max_pool2d": lambda x: F.max_pool2d(x, 2),
    "avg_pool2d": lambda x: F.avg_pool2d(x, 3),
    "pad2d": lambda x: F.pad2d(x, (1, 2)),
    "batch_norm": lambda x: F.batch_norm(
        x, _const(4, 3), _const(5, 3), np.full(3, 0.25, np.float32),
        np.full(3, 2.0, np.float32), training=False),
    "cross_entropy": lambda x: F.cross_entropy(
        x.reshape(len(x), -1), np.arange(len(x)) % 7),
}


class _Call(Module):
    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def forward(self, x):
        return self.fn(x)


class TestOpTable:
    """Every op in the table compiles and replays bit for bit.

    Widths 17 and 32 run the conv forward in several row-blocks through
    one block-sized columns buffer; 1 and 8 run it as one block.
    """

    @pytest.mark.parametrize("width", [1, 8, 17, 32])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_replays_bitwise(self, name, width):
        module = _Call(OP_CASES[name])
        module.eval()
        batch = _batch(width)
        nodes, _ = _trace(module, Tensor(batch))
        assert name in {node.op.name for node in nodes[1:]}
        with nn.no_grad():
            reference = module(Tensor(batch)).data
        compiled = nn_compile(module, width, input_shape=SHAPE)
        assert compiled.compiled, compiled.fallback_reason
        # Poison the arena: a kernel must not rely on what it held before.
        compiled._program.arena.fill(0xFF)
        out = compiled(batch).data
        assert out.dtype == reference.dtype and out.shape == reference.shape
        assert out.tobytes() == reference.tobytes(), (
            f"{name} width={width} diverged from interpreted")


class TestArenaAllocation:
    """A compiled replay keeps its buffers, scratch included, in the arena."""

    #: What is left is numpy's own iterator buffers and the replay's small
    #: Python objects, at width 32: 4.0 KB for small_cnn (resnet18 reads
    #: 4.8 KB) and 39.7 KB for efficientnet_b0, 34 KB of which is numpy's
    #: iteration buffers for one squeeze-excite multiply, whose gate
    #: broadcasts over the feature map.  A conv's broadcast bias add or a
    #: ufunc over max-pool's strided windows added ~33 KB each; per-batch
    #: max-pool masks or sigmoid temporaries outside the arena add 160 KB
    #: (small_cnn) to 1.8 MB (efficientnet_b0).
    BOUNDS = {"small_cnn": 8 * 1024, "efficientnet_b0": 44 * 1024}

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_replay_peak_above_arena_is_bounded(self, name):
        compiled = nn_compile(_model(name), 32, input_shape=SHAPE)
        assert compiled.compiled, compiled.fallback_reason
        batch = _batch(32)
        compiled(batch)
        tracemalloc.start()
        try:
            compiled(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUNDS[name], (
            f"{name}: {peak} bytes outside the arena")


class TestSharedArena:
    """Programs whose arenas have one byte size share one buffer and lock."""

    def test_two_versions_at_one_width_share_one_arena(self):
        a = nn_compile(_model(seed=21), 8, input_shape=SHAPE)
        b = nn_compile(_model(seed=22), 8, input_shape=SHAPE)
        assert a.compiled and b.compiled
        assert a._program.arena is b._program.arena
        assert a._program.lock is b._program.lock
        assert a.plan["arena_bytes"] == b.plan["arena_bytes"]

    def test_serving_one_version_while_another_compiles(self):
        """Compile's warm-up and verify replays write the arena that the
        served version reads; the shared lock keeps both bit-exact."""
        width = 8
        served = nn_compile(_model(seed=23), width, input_shape=SHAPE)
        batches = [_batch(width, seed=s) for s in range(3)]
        with nn.no_grad():
            expected = [served.model(Tensor(b)).data.tobytes()
                        for b in batches]
        done = threading.Event()
        results = []

        def serve():
            while not done.is_set():
                for batch, ref in zip(batches, expected):
                    results.append(served(batch).data.tobytes() == ref)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            others = [nn_compile(_model(seed=seed), width, input_shape=SHAPE)
                      for seed in (24, 25, 26)]
        finally:
            done.set()
            thread.join()
        assert results and all(results)
        batch = batches[0]
        for other in others:
            assert other.compiled, other.fallback_reason
            assert other._program.arena is served._program.arena
            with nn.no_grad():
                reference = other.model(Tensor(batch)).data
            assert other(batch).data.tobytes() == reference.tobytes()

    def test_arena_is_freed_with_its_last_program(self):
        model = nn.Sequential(nn.Conv2d(3, 5, 3, padding=1), nn.ReLU())
        model.eval()
        first = nn_compile(model, 3, input_shape=SHAPE)
        second = nn_compile(model, 3, input_shape=SHAPE)
        assert first.compiled and second.compiled
        arena = weakref.ref(first._program._shared)
        del first
        gc.collect()
        assert arena() is not None
        del second
        gc.collect()
        assert arena() is None


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

    def test_folded_cache_width_keying_is_explicit(self):
        cache = FoldedModelCache()
        model = _model(seed=12)
        plain = cache.get(model)
        tagged = cache.get(model, width=8, build=lambda m: ("plan", m))
        assert tagged == ("plan", model)
        assert cache.get(model) is plain                  # None slot intact
        assert cache.get(model, width=8) is tagged
        assert len(cache) == 2
