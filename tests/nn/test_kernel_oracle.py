"""Copy-free max-pool, batch norm and blocked conv vs reference kernels.

The production kernels in :mod:`repro.nn.functional` are rewrites for
speed or for fewer dependencies; they must not move a single bit.  A
hypothesis sweep compares them with the references in
``reference_kernels.py``: outputs, input and parameter gradients,
running statistics, the conv forward against per-sample GEMMs, the conv
input gradient against the sparse-GEMM col2im, and the conv weight
gradient against per-block GEMMs summed in block-index order, byte for
byte.  The value palettes are tiny on purpose so that
ties, windows mixing ``-0.0`` with ``+0.0``, and NaN windows come up
constantly.  A final test trains a model with each kernel pair and
compares the weights.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.data import load_dataset
from repro.models import small_cnn
from repro.nn import functional as F
from repro.nn.functional import MIN_BLOCK_BATCH
from repro.nn.tensor import RELU, SIGMOID, Tensor
from repro.train import TrainConfig, train_model
from tests.nn import reference_kernels as ref

_settings = settings(max_examples=60, deadline=None, derandomize=True)

DTYPES = (np.float32, np.float64)

#: Ties and signed zeros on purpose; NaN only where a case asks for it.
_POOL_PALETTE = [-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -2.0]
_GRAD_PALETTE = [-0.0, 0.0, 1.0, -1.5, 3.0, np.inf]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _pool_case(draw):
    kh = draw(st.sampled_from([2, 3]))
    kw = draw(st.sampled_from([kh, 2, 3]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from(DTYPES))
    palette = _POOL_PALETTE + ([np.nan] if draw(st.booleans()) else [])
    x = draw(arrays(dtype, (n, c, oh * kh, ow * kw),
                    elements=st.sampled_from(palette)))
    g = draw(arrays(dtype, (n, c, oh, ow),
                    elements=st.sampled_from(_GRAD_PALETTE)))
    return x, g, (kh, kw)


def _pool_run(fn, x, g, kernel):
    t = Tensor(x, requires_grad=True, dtype=x.dtype)
    out = fn(t, kernel)
    out.backward(g)
    return out.data, t.grad


@_settings
@given(_pool_case())
def test_max_pool_matches_reference_bitwise(case):
    x, g, kernel = case
    ref_out, ref_grad = _pool_run(ref.max_pool2d, x, g, kernel)
    out, grad = _pool_run(F.max_pool2d, x, g, kernel)
    assert _same_bits(out, ref_out)
    assert _same_bits(grad, ref_grad)


@_settings
@given(_pool_case())
def test_max_pool_select_into_buffer_matches_reference(case):
    """The compiled graph's path: no grad, output written into ``out=``."""
    x, _, (kh, kw) = case
    with nn.no_grad():
        ref_out = ref.max_pool2d(Tensor(x, dtype=x.dtype), (kh, kw)).data
    buf = np.full(ref_out.shape, 7.0, dtype=x.dtype)
    out, masks = F._max_pool_select(x, kh, kw, out=buf)
    assert out is buf
    assert _same_bits(out, ref_out)
    assert (masks.sum(axis=0) == 1).all(), "every window selects exactly one element"


def test_max_pool_signed_zero_and_nan_windows():
    """Hand-picked windows: first-of-tied zeros wins, first NaN wins."""
    x = np.array([[[[-0.0, 0.0, np.nan, 1.0],
                    [0.0, -0.0, 2.0, np.nan]]]], dtype=np.float32)
    out, grad = _pool_run(F.max_pool2d, x, np.array([[[[5.0, 6.0]]]],
                                                    dtype=np.float32), 2)
    assert np.signbit(out[0, 0, 0, 0]) and np.isnan(out[0, 0, 0, 1])
    ref_out, ref_grad = _pool_run(ref.max_pool2d, x, np.array(
        [[[[5.0, 6.0]]]], dtype=np.float32), 2)
    assert _same_bits(out, ref_out) and _same_bits(grad, ref_grad)
    assert grad[0, 0, 0, 0] == 5.0 and grad[0, 0, 0, 2] == 6.0
    assert not np.signbit(grad).any(), "unselected positions are +0.0"


@st.composite
def _bn_case(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # Activation and parameter dtypes, including both mixed pairings.
    x_dtype, p_dtype = draw(st.sampled_from(
        [(np.float32, np.float32), (np.float64, np.float64),
         (np.float64, np.float32), (np.float32, np.float64)]))
    values = st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.25]),
        st.floats(-8.0, 8.0, allow_nan=False, width=32))
    x = draw(arrays(x_dtype, (n, c, h, w), elements=values))
    g = draw(arrays(x_dtype, (n, c, h, w), elements=values))
    params = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    weight = draw(arrays(p_dtype, (c,), elements=params))
    bias = draw(arrays(p_dtype, (c,), elements=params))
    running_mean = draw(arrays(p_dtype, (c,), elements=params))
    running_var = draw(arrays(p_dtype, (c,),
                              elements=st.floats(0.25, 4.0, width=32)))
    training = draw(st.booleans())
    affine = draw(st.booleans())
    return x, g, weight, bias, running_mean, running_var, training, affine


def _bn_run(fn, case):
    x, g, weight, bias, running_mean, running_var, training, affine = case
    t = Tensor(x, requires_grad=True, dtype=x.dtype)
    w = Tensor(weight, requires_grad=True, dtype=weight.dtype) if affine else None
    b = Tensor(bias, requires_grad=True, dtype=bias.dtype) if affine else None
    rm, rv = running_mean.copy(), running_var.copy()
    out = fn(t, w, b, rm, rv, training)
    out.backward(g)
    grads = [t.grad] + ([w.grad, b.grad] if affine else [])
    return [out.data, rm, rv] + grads


@_settings
@given(_bn_case())
def test_batch_norm_matches_reference_bitwise(case):
    expected = _bn_run(ref.batch_norm, case)
    got = _bn_run(F.batch_norm, case)
    names = ["out", "running_mean", "running_var", "gx", "gw", "gb"]
    for name, a, b in zip(names, got, expected):
        assert _same_bits(a, b), f"{name} differs from the reference kernel"


@_settings
@given(st.sampled_from(DTYPES), st.data())
def test_sigmoid_matches_reference_bitwise(dtype, data):
    """Interpreted and into poisoned buffers, across the clip bounds."""
    values = st.one_of(
        st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 60.0, -60.0,
                         60.5, -61.0, 100.0, -100.0]),
        st.floats(-70.0, 70.0, allow_nan=False, width=32))
    a = data.draw(arrays(dtype, data.draw(st.integers(1, 40)),
                         elements=values))
    expected = ref.sigmoid(a)
    assert _same_bits(Tensor(a, dtype=dtype).sigmoid().data, expected)
    buffers = {name: np.full(a.shape, fill, dtype=kind) for name, fill, kind
               in [("out", np.nan, dtype), ("clipped", 7.0, dtype),
                   ("exp", -3.0, dtype), ("nonneg", True, bool)]}
    out, _ = SIGMOID.forward(a, **buffers)
    assert out is buffers["out"] and _same_bits(out, expected)


@_settings
@given(st.sampled_from(DTYPES), st.data())
def test_relu_matches_boolean_mask_multiply_bitwise(dtype, data):
    """The bits of ``a * (a > 0)``: ``-0.0`` for negatives, NaN stays NaN;
    interpreted, into poisoned buffers, and in place."""
    values = st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.5, -2.5])
    a = data.draw(arrays(dtype, data.draw(st.integers(1, 40)),
                         elements=values))
    with np.errstate(invalid="ignore"):         # -inf * 0 is NaN
        expected = a * (a > 0)
        assert _same_bits(Tensor(a, dtype=dtype).relu().data, expected)
        buffers = {"out": np.full(a.shape, np.nan, dtype),
                   "mask": np.ones(a.shape, bool),
                   "scale": np.full(a.shape, 7.0, dtype)}
        out, mask = RELU.forward(a, **buffers)
        assert out is buffers["out"] and _same_bits(out, expected)
        # The result buffer held the scale: the scratch was not written.
        assert (buffers["scale"] == 7.0).all()
        for scale in (None, np.full(a.shape, 7.0, dtype)):
            in_place = a.copy()
            out, _ = RELU.forward(in_place, out=in_place, scale=scale)
            assert out is in_place and _same_bits(out, expected)
    assert _same_bits(mask, a > 0)


def test_relu_forward_allocates_no_cast_buffer():
    """Multiplying by the boolean mask itself made numpy allocate a
    ~32 KB cast buffer on every call."""
    a = np.linspace(-1.0, 1.0, 1 << 16, dtype=np.float32)
    RELU.forward(a)
    tracemalloc.start()
    try:
        out, mask = RELU.forward(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes - mask.nbytes < 4096


def _conv_arrays(seed, n, c, o, groups, k, h, w, dtype, stride, pad, nan):
    """Input, weight and an upstream gradient full of signed zeros."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    weight = rng.standard_normal((o, c // groups, k, k)).astype(dtype)
    weight[rng.random(weight.shape) < 0.2] = -0.0
    out_hw = ((h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1)
    shape = (n, o) + out_hw
    palette = np.array([-0.0, 0.0, 1.0, -1.5] + ([np.nan] if nan else []),
                       dtype=dtype)
    g = np.where(rng.random(shape) < 0.5, rng.choice(palette, shape),
                 rng.standard_normal(shape)).astype(dtype)
    return x, weight, g


@st.composite
def _conv_case(draw):
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    if kind == "dense":
        groups, c, o = 1, draw(st.integers(1, 3)), draw(st.integers(1, 3))
    elif kind == "grouped":
        groups = 2
        c, o = 2 * draw(st.integers(1, 2)), 2 * draw(st.integers(1, 2))
    else:
        c = draw(st.integers(1, 4))
        groups, o = c, c
    k = draw(st.sampled_from([1, 3, 5]))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.integers(0, 2))
    low = max(1, k - 2 * pad)
    h, w = draw(st.integers(low, low + 4)), draw(st.integers(low, low + 4))
    n = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from(DTYPES))
    seed, nan = draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    return (seed, n, c, o, groups, k, h, w, dtype, stride, pad, nan)


def _check_conv_input_grad(case):
    seed, n, c, o, groups, k, h, w, dtype, stride, pad, nan = case
    x, weight, g = _conv_arrays(*case)
    t = Tensor(x, requires_grad=True, dtype=dtype)
    out = F.conv2d(t, Tensor(weight, dtype=dtype), stride=stride,
                   padding=pad, groups=groups)
    out.backward(g)
    expected = ref.conv2d_input_grad(g, x, weight, (stride, stride),
                                     (pad, pad), groups)
    assert _same_bits(t.grad, expected)


@_settings
@given(_conv_case())
def test_conv_input_grad_matches_sparse_col2im(case):
    _check_conv_input_grad(case)


#: (c, o, groups, k, h, w, stride, pad) of the fixed-shape conv checks.
_GEOMETRIES = [
    (3, 4, 1, 3, 6, 7, 2, 1),       # dense, stride 2
    (4, 4, 2, 5, 5, 5, 1, 2),       # grouped, kernel 5
    (4, 4, 4, 3, 8, 8, 2, 1),       # depthwise, stride 2
    (2, 3, 1, 1, 4, 4, 1, 0),       # pointwise
]


@pytest.mark.parametrize("n", [MIN_BLOCK_BATCH - 1, MIN_BLOCK_BATCH,
                               MIN_BLOCK_BATCH + 1, 40])
@pytest.mark.parametrize("geometry", _GEOMETRIES + [
    (3, 5, 1, 3, 6, 6, 1, 1),       # dense, stride 1
])
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_forward_matches_per_sample_reference(n, geometry, dtype):
    """One block below the threshold, several above it: each sample's
    output is its own GEMM's, whichever block computed it."""
    c, o, groups, k, h, w, stride, pad = geometry
    x, weight, _ = _conv_arrays(n, n, c, o, groups, k, h, w, dtype,
                                stride, pad, False)
    bias = np.linspace(-1.0, 1.0, o).astype(dtype)
    out = F.conv2d(Tensor(x, dtype=dtype), Tensor(weight, dtype=dtype),
                   Tensor(bias, dtype=dtype), stride=stride, padding=pad,
                   groups=groups)
    expected = ref.conv2d_forward(x, weight, bias, (stride, stride),
                                  (pad, pad), groups)
    assert _same_bits(out.data, expected)


@pytest.mark.parametrize("n", [1, MIN_BLOCK_BATCH - 1, MIN_BLOCK_BATCH, 40])
@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_conv_input_grad_matches_sparse_col2im_both_block_sides(n, geometry):
    """Each geometry on either side of the row-block threshold, with NaN.

    The depthwise case accumulates channels-last, the others in NCHW.
    """
    c, o, groups, k, h, w, stride, pad = geometry
    _check_conv_input_grad((n, n, c, o, groups, k, h, w, np.float32,
                            stride, pad, True))


def test_batch_blocks_cover_the_batch_in_order():
    for n in (1, 2, 15, 16, 17, 64, 100, 257):
        blocks = F._batch_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        for left, right in zip(blocks, blocks[1:]):
            assert left.stop == right.start
        assert blocks == ref.row_blocks(n)


def test_small_batches_stay_single_block():
    assert F._batch_blocks(MIN_BLOCK_BATCH - 1) == [slice(0, MIN_BLOCK_BATCH - 1)]
    assert len(F._batch_blocks(64)) > 1


def _check_conv_weight_grad(case):
    seed, n, c, o, groups, k, h, w, dtype, stride, pad, nan = case
    x, weight, g = _conv_arrays(*case)
    wt = Tensor(weight, requires_grad=True, dtype=dtype)
    out = F.conv2d(Tensor(x, dtype=dtype), wt, stride=stride,
                   padding=pad, groups=groups)
    out.backward(g)
    expected = ref.conv2d_weight_grad(g, x, weight, (stride, stride),
                                      (pad, pad), groups)
    assert _same_bits(wt.grad, expected)


@_settings
@given(_conv_case())
def test_conv_weight_grad_matches_blocked_reference(case):
    _check_conv_weight_grad(case)


@pytest.mark.parametrize("n", [1, MIN_BLOCK_BATCH - 1, MIN_BLOCK_BATCH, 40])
@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_conv_weight_grad_matches_blocked_reference_both_block_sides(
        n, geometry):
    """Without NaN, which would hide the summation order."""
    c, o, groups, k, h, w, stride, pad = geometry
    _check_conv_weight_grad((n, n, c, o, groups, k, h, w, np.float32,
                             stride, pad, False))


@pytest.mark.parametrize("n,c,h,w,o,k,s,p,g", [
    # (n, c, h, w, out_ch, kernel, stride, padding, groups): odd shapes,
    # strides and grouped/depthwise configurations on blocked batches.
    (20, 3, 12, 12, 8, 3, 1, 1, 1),
    (33, 5, 13, 11, 10, 3, 2, 1, 5),
    (16, 4, 9, 9, 8, 5, 2, 2, 2),
    (17, 6, 7, 10, 6, 3, 1, 0, 6),     # depthwise
    (64, 3, 8, 8, 4, 1, 1, 0, 1),      # 1x1
    (4, 3, 12, 12, 8, 3, 1, 1, 1),     # below MIN_BLOCK_BATCH
])
def test_conv_backward_matches_reference_odd_shapes(n, c, h, w, o, k, s, p, g):
    """Both gradients at uneven block splits, without NaN."""
    case = (n * 1000 + c, n, c, o, g, k, h, w, np.float32, s, p, False)
    _check_conv_weight_grad(case)
    _check_conv_input_grad(case)


def _trained_state_bytes() -> bytes:
    train, _, profile = load_dataset("unit", seed=0)
    nn.manual_seed(0)
    model = small_cnn(profile.num_classes, width=8)
    train_model(model, train, TrainConfig(epochs=2, lr=3e-3, seed=0))
    state = model.state_dict()
    return b"".join(name.encode() + np.ascontiguousarray(state[name]).tobytes()
                    for name in sorted(state))


def test_training_state_matches_reference_kernels(monkeypatch):
    """Two epochs of training end in the same state with either kernel pair."""
    calls = {"max_pool2d": 0, "batch_norm": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    production = _trained_state_bytes()
    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(F, name, counted(name, getattr(ref, name)))
        reference = _trained_state_bytes()
    assert all(calls.values()), "training never reached the reference kernels"
    assert production == reference
