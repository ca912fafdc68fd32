"""Structured neural-network ops with autograd support.

Convolution (stride / padding / groups via im2col), pooling, padding,
batch norm and the fused softmax cross-entropy loss used throughout the
reproduction.  Each is one entry of the op table in
:mod:`repro.nn.tensor`: a forward kernel that can write into ``out=``
(and into named scratch buffers: conv's padded input and im2col
columns) plus a backward rule.  The public functions here validate their
arguments and dispatch through :func:`repro.nn.tensor.apply`, so the
interpreted forward, the training tape and the compiled graph's replay
all run the same kernel.  They accept and return
:class:`repro.nn.tensor.Tensor`.

Max-pool works on strided window views of its input (no transposed copy)
and keeps one boolean mask per window element for the backward.
Max-pool and batch norm produce the same bits as the plain argmax /
``mean``+``var`` formulations, down to which of ``-0.0`` and ``+0.0`` a
tied window returns.

The conv2d matmuls (forward, input gradient, weight gradient) run as
row-blocks over the batch dimension dispatched through
:mod:`repro.nn.threading`; the block decomposition is shape-only and
reductions happen in block-index order, so results are bit-identical at
every ``intra_op_threads`` setting.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from ..obs import profile as _profile
from .tensor import Op, Tensor, _to, apply, ensure_tensor
from .threading import batch_blocks, map_blocks

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _im2col_indices(channels: int, height: int, width: int,
                    kh: int, kw: int, stride_h: int, stride_w: int,
                    pad_h: int, pad_w: int):
    """Index arrays mapping a padded image to its im2col matrix.

    Returns ``(k, i, j, out_h, out_w)`` such that
    ``x_padded[:, k, i, j]`` has shape ``(N, C*kh*kw, out_h*out_w)``.
    """
    out_h = (height + 2 * pad_h - kh) // stride_h + 1
    out_w = (width + 2 * pad_w - kw) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {height}x{width}, "
            f"kernel {kh}x{kw}, stride ({stride_h},{stride_w}), pad ({pad_h},{pad_w})")

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


# Caches keyed by the full conv geometry.  A training run reuses a handful
# of geometries thousands of times, so both caches stay tiny but hot.
_INDEX_CACHE: Dict[tuple, tuple] = {}
_SCATTER_CACHE: Dict[tuple, sparse.csr_matrix] = {}


def _cached_indices(key: tuple) -> tuple:
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = _im2col_indices(*key)
    return _INDEX_CACHE[key]


def _cached_scatter(key: tuple, k_idx, i_idx, j_idx,
                    padded_hw: Tuple[int, int], channels: int) -> sparse.csr_matrix:
    """Sparse matrix mapping im2col columns back to padded-image pixels.

    ``col2im`` (the input-gradient scatter-add) becomes a single sparse
    GEMM, which is an order of magnitude faster than ``np.add.at``.
    """
    if key not in _SCATTER_CACHE:
        hp, wp = padded_hw
        flat = (k_idx * hp * wp + i_idx * wp + j_idx).ravel()
        n_cols = flat.size
        scatter = sparse.csr_matrix(
            (np.ones(n_cols, dtype=np.float32),
             (flat, np.arange(n_cols, dtype=np.int64))),
            shape=(channels * hp * wp, n_cols))
        _SCATTER_CACHE[key] = scatter
    return _SCATTER_CACHE[key]


def _conv_gemm(w_g: np.ndarray, cols_g: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Forward conv GEMM ``(1, G, O/G, K) @ (N, G, K, L) -> out``.

    ``out`` has shape ``(N, G, O/G, L)``.  The batch is split into the
    shape-only :func:`~repro.nn.threading.batch_blocks` row-blocks; each
    block writes its own disjoint ``out=`` rows, so the blocks run
    concurrently on the intra-op pool without any reduction, and every
    sample's GEMM is the same at any thread count.
    """
    _prof = _profile.ACTIVE
    token = _prof.start("conv.forward") if _prof is not None else None
    blocks = batch_blocks(len(out))
    if len(blocks) == 1:
        np.matmul(w_g[None], cols_g, out=out)
    else:
        map_blocks(lambda sl, _b: np.matmul(w_g[None], cols_g[sl],
                                            out=out[sl]), blocks)
    if _prof is not None:
        _prof.stop(token)
    return out


def _conv_geometry(x: np.ndarray, weight: np.ndarray, stride, padding):
    """``(geometry key, out_h, out_w)`` of a conv; the key indexes the caches."""
    (sh, sw), (ph, pw) = stride, padding
    _, c, h, w = x.shape
    kh, kw = weight.shape[2:]
    key = (c, h, w, kh, kw, sh, sw, ph, pw)
    out_h, out_w = _cached_indices(key)[3:]
    return key, out_h, out_w


def _conv2d(x, weight, bias=None, *, stride, padding, groups,
            out=None, padded=None, cols=None):
    """Conv forward kernel: pad, im2col, :func:`_conv_gemm`, bias.

    Saves the im2col columns, shaped ``(N, C, kh, kw, out_h, out_w)``,
    for the backward.
    """
    _, out_h, out_w = _conv_geometry(x, weight, stride, padding)
    (sh, sw), (ph, pw) = stride, padding
    n, c = x.shape[:2]
    o, _, kh, kw = weight.shape
    xp = _pad2d(x, padding=padding, out=padded)[0] if ph or pw else x
    # im2col via a strided sliding-window view; the transposing copy is
    # cheaper than an equivalent fancy-index gather.
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    if cols is None:
        cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    np.copyto(cols, windows.transpose(0, 1, 4, 5, 2, 3))
    loc, kdim = out_h * out_w, c // groups * kh * kw
    w_g = weight.reshape(groups, o // groups, kdim)
    if out is None:
        out = np.empty((n, o, out_h, out_w), dtype=np.result_type(w_g, cols))
    _conv_gemm(w_g, cols.reshape(n, groups, kdim, loc),
               out.reshape(n, groups, o // groups, loc))
    if bias is not None:
        np.add(out, bias.reshape(1, o, 1, 1), out=out)
    return out.astype(x.dtype, copy=False), cols


def _conv2d_scratch(x, weight, bias=None, *, stride, padding, groups):
    _, out_h, out_w = _conv_geometry(x, weight, stride, padding)
    (ph, pw), (n, c, h, w) = padding, x.shape
    kh, kw = weight.shape[2:]
    specs = {"cols": ((n, c, kh, kw, out_h, out_w), x.dtype)}
    if ph or pw:
        specs["padded"] = ((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    return specs


def _conv2d_grad(g, ins, y, cols, *, stride, padding, groups):
    x, weight = ins[0], ins[1]
    bias = ins[2] if len(ins) > 2 else None
    geom_key, out_h, out_w = _conv_geometry(x.data, weight.data, stride,
                                            padding)
    k_idx, i_idx, j_idx = _cached_indices(geom_key)[:3]
    ph, pw = padding
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    hp, wp = h + 2 * ph, w + 2 * pw
    loc, kdim = out_h * out_w, c // groups * kh * kw
    cols = cols.reshape(n, c * kh * kw, loc)
    cols_g = cols.reshape(n, groups, kdim, loc)
    w_g = weight.data.reshape(groups, o // groups, kdim)

    _prof = _profile.ACTIVE
    prof_token = _prof.start("conv.backward") if _prof is not None else None
    g_r = g.reshape(n, groups, o // groups, loc)
    bwd_blocks = batch_blocks(n)
    gx = gw = gb = None
    if weight.requires_grad:
        if groups == 1:
            # Per-block GEMM (O, B*L) @ (B*L, K); partials summed in
            # block-index order so the reduction is deterministic.
            def _gw_block(sl: slice, _b: int) -> np.ndarray:
                nb = sl.stop - sl.start
                g2 = (g[sl].reshape(nb, o, loc)
                      .transpose(1, 0, 2).reshape(o, nb * loc))
                c2 = (cols[sl].transpose(1, 0, 2)
                      .reshape(kdim, nb * loc))
                return g2 @ c2.T
        else:
            def _gw_block(sl: slice, _b: int) -> np.ndarray:
                return np.matmul(
                    g_r[sl], cols_g[sl].transpose(0, 1, 3, 2)).sum(axis=0)

        partials = map_blocks(_gw_block, bwd_blocks)
        gw = partials[0]
        for partial in partials[1:]:
            gw = gw + partial
        gw = gw.reshape(weight.shape).astype(weight.dtype, copy=False)
    if x.requires_grad:
        scatter = _cached_scatter(geom_key, k_idx, i_idx, j_idx, (hp, wp), c)
        gx_padded = np.empty((n, c, hp, wp), dtype=np.result_type(w_g, g))

        def _gx_block(sl: slice, _b: int) -> None:
            nb = sl.stop - sl.start
            gcols = np.matmul(w_g.transpose(0, 2, 1)[None], g_r[sl])
            gcols = gcols.reshape(nb, c * kh * kw * loc)
            gx_padded[sl] = (scatter @ gcols.T).T.reshape(nb, c, hp, wp)

        map_blocks(_gx_block, bwd_blocks)
        gx = gx_padded[:, :, ph:ph + h, pw:pw + w].astype(x.dtype, copy=False)
    if bias is not None and bias.requires_grad:
        gb = g.sum(axis=(0, 2, 3)).astype(bias.dtype, copy=False)
    if _prof is not None:
        _prof.stop(prof_token)
    return (gx, gw) if bias is None else (gx, gw, gb)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0, groups: int = 1) -> Tensor:
    """2-D convolution (cross-correlation, as in every DL framework).

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    weight:
        Kernels of shape ``(O, C // groups, kh, kw)``.
    bias:
        Optional bias of shape ``(O,)``.
    stride, padding:
        Int or (h, w) pair.
    groups:
        Grouped convolution; ``groups == C == O`` gives a depthwise conv
        (used by MobileNetV2 / EfficientNetB0).
    """
    c = x.shape[1]
    o, c_per_group = weight.shape[:2]
    if c % groups or o % groups:
        raise ValueError(f"channels ({c}) and filters ({o}) must divide groups ({groups})")
    if c_per_group != c // groups:
        raise ValueError(f"weight expects {c_per_group * groups} input channels, got {c}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply(CONV2D, *inputs, stride=_pair(stride), padding=_pair(padding),
                 groups=int(groups))


def _max_pool_select(x: np.ndarray, kh: int, kw: int,
                     out: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Max over each non-overlapping ``kh x kw`` window, without copies.

    Scans the ``kh*kw`` strided window views of
    ``x.reshape(n, c, oh, kh, ow, kw)`` in row-major window order.
    Returns ``(out, masks)``: ``masks[k]`` is the one-hot selection of
    window element ``k``, using argmax's rule (the first maximum wins; a
    window holding a NaN selects its first NaN).  ``out`` is assembled
    from the selected element's own bits, so a window mixing ``-0.0``
    and ``+0.0`` yields whichever zero comes first.  ``out`` may be a
    preallocated ``(n, c, oh, ow)`` buffer.
    """
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    x6 = x.reshape(n, c, oh, kh, ow, kw)
    views = [x6[:, :, :, i, :, j] for i in range(kh) for j in range(kw)]
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
    # ``out`` holds the window max until the masks are built.
    np.copyto(out, views[0])
    for v in views[1:]:
        np.maximum(out, v, out=out)
    masks = np.empty((len(views), n, c, oh, ow), dtype=bool)
    np.equal(views[0], out, out=masks[0])
    seen = masks[0].copy()
    for v, mask in zip(views[1:], masks[1:]):
        np.equal(v, out, out=mask)
        np.greater(mask, seen, out=mask)        # mask & ~seen
        np.logical_or(seen, mask, out=seen)
    if not seen.all():
        # A NaN max compares unequal to everything: select the first NaN.
        unseen = np.logical_not(seen, out=seen)
        for v, mask in zip(views, masks):
            hit = np.isnan(v)
            np.logical_and(hit, unseen, out=hit)
            np.logical_or(mask, hit, out=mask)
            np.greater(unseen, hit, out=unseen)
    bits = np.dtype(f"u{x.dtype.itemsize}")
    out_bits = out.view(bits)
    sel = np.empty(out.shape, dtype=bits)
    for k, (v, mask) in enumerate(zip(views, masks)):
        np.negative(mask.view(np.uint8), dtype=bits, out=sel)   # 0 or ~0
        if k == 0:
            np.bitwise_and(v.view(bits), sel, out=out_bits)
        else:
            np.bitwise_and(v.view(bits), sel, out=sel)
            np.bitwise_or(out_bits, sel, out=out_bits)
    return out, masks


def _max_pool2d_grad(g, ins, y, masks, *, kernel):
    """Writes ``g`` through the window masks with a bitwise AND, so every
    unselected position gets exactly ``+0.0``."""
    x = ins[0]
    kh, kw = kernel
    n, c, h, w = x.shape
    g = g.astype(x.dtype, copy=False)
    bits = np.dtype(f"u{x.dtype.itemsize}")
    gx = np.empty(x.shape, dtype=x.dtype)
    gx6 = gx.view(bits).reshape(n, c, h // kh, kh, w // kw, kw)
    g_bits = g.view(bits)
    sel = np.empty(g.shape, dtype=bits)
    for k, mask in enumerate(masks):
        np.negative(mask.view(np.uint8), dtype=bits, out=sel)
        np.bitwise_and(g_bits, sel, out=gx6[:, :, :, k // kw, :, k % kw])
    return (gx,)


def _check_pool_tiles(x: Tensor, kh: int, kw: int) -> None:
    h, w = x.shape[2:]
    if h % kh or w % kw:
        raise ValueError(f"pooling kernel {kh}x{kw} does not tile input {h}x{w}")


def max_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling with ``stride == kernel_size`` (the common CNN case).

    Input spatial dims must be divisible by the kernel; the model zoo
    arranges its shapes to satisfy this.  The forward keeps only the
    boolean window masks of :func:`_max_pool_select` for the backward.
    """
    kh, kw = _pair(kernel_size)
    if stride is not None and _pair(stride) != (kh, kw):
        raise NotImplementedError("max_pool2d only supports stride == kernel_size")
    _check_pool_tiles(x, kh, kw)
    return apply(MAX_POOL2D, x, kernel=(kh, kw))


def _avg_pool2d(x, *, kernel, out=None):
    kh, kw = kernel
    n, c, h, w = x.shape
    x6 = x.reshape(n, c, h // kh, kh, w // kw, kw)
    return np.mean(x6, axis=(3, 5), out=out), None


def _avg_pool2d_grad(g, ins, y, saved, *, kernel):
    x = ins[0]
    kh, kw = kernel
    n, c, h, w = x.shape
    g_e = g.reshape(n, c, h // kh, 1, w // kw, 1) / (kh * kw)
    gx = np.broadcast_to(g_e, (n, c, h // kh, kh, w // kw, kw)).reshape(n, c, h, w)
    return (gx.astype(x.dtype),)


def avg_pool2d(x: Tensor, kernel_size: IntPair = 2) -> Tensor:
    """Average pooling with ``stride == kernel_size``."""
    kh, kw = _pair(kernel_size)
    _check_pool_tiles(x, kh, kw)
    return apply(AVG_POOL2D, x, kernel=(kh, kw))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean -> (N, C).  Standard classifier head entry point."""
    return x.mean(axis=(2, 3))


def _pad2d(x, *, padding, out=None):
    ph, pw = padding
    n, c, h, w = x.shape
    if out is None:
        out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    else:
        out.fill(0)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out, None


def _pad2d_grad(g, ins, y, saved, *, padding):
    (ph, pw), (h, w) = padding, ins[0].shape[2:]
    return (g[:, :, ph:ph + h, pw:pw + w],)


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the two trailing spatial dimensions."""
    return apply(PAD2D, x, padding=_pair(padding))


def _into(buf: Optional[np.ndarray], *operands: np.ndarray) -> Optional[np.ndarray]:
    """``buf`` when a ufunc over ``operands`` yields its dtype, else ``None``.

    Lets a kernel reuse a dead buffer as ``out=`` without ever changing
    the dtype the expression would have produced on its own.
    """
    if buf is not None and np.result_type(*operands) == buf.dtype:
        return buf
    return None


def _per_channel(a: np.ndarray) -> np.ndarray:
    return a.reshape(1, -1, 1, 1)


def _batch_norm(x, weight=None, bias=None, *, running_mean, running_var,
                training, momentum, eps, out=None):
    """Batch-norm forward kernel; saves ``(x_hat, inv_std)``.

    The centred ``x - mean`` feeds both the variance (numpy's own
    ``var`` algorithm: square, sum, divide) and ``x_hat``, and dead
    full-size buffers are reused as ``out=`` targets, so the forward
    allocates two arrays of ``x``'s size.
    """
    if training and out is not None:
        raise ValueError("a training-mode batch_norm updates its running "
                         "statistics and cannot be compiled; call "
                         "model.eval() first")
    n, _, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w
    mean = x.mean(axis=axes) if training else running_mean
    centred = x - _per_channel(mean)
    scratch = None
    if training:
        scratch = np.square(centred)
        var = np.add.reduce(scratch, axis=axes)
        np.true_divide(var, np.intp(count), out=var, casting="unsafe")
        unbiased = var * (count / max(count - 1, 1))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = np.multiply(centred, _per_channel(inv_std),
                        out=_into(scratch, centred, inv_std))
    result = x_hat
    if weight is not None:
        scaled = np.multiply(x_hat, _per_channel(weight),
                             out=_into(centred, x_hat, weight))
        result = np.add(scaled, _per_channel(bias),
                        out=_into(scaled, scaled, bias))
    return _to(out, result.astype(x.dtype, copy=False)), (x_hat, inv_std)


def _batch_norm_grad(g, ins, y, saved, *, running_mean, running_var,
                     training, momentum, eps):
    """Allocates two arrays of ``x``'s size."""
    x_hat, inv_std = saved
    x = ins[0]
    weight, bias = (ins[1], ins[2]) if len(ins) > 1 else (None, None)
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w
    gamma = weight.data if weight is not None else np.ones(c, dtype=x.dtype)
    g_hat = g * _per_channel(gamma)
    gx = gw = gb = None
    prod = None
    if x.requires_grad:
        if training:
            # gx = inv_std / count * (count * g_hat - sum_g - x_hat * sum_gx)
            sum_g = g_hat.sum(axis=axes)
            prod = np.multiply(g_hat, x_hat)
            sum_gx = prod.sum(axis=axes)
            gx = np.multiply(count, g_hat, out=g_hat)
            np.subtract(gx, _per_channel(sum_g), out=gx)
            corr = np.multiply(x_hat, _per_channel(sum_gx), out=prod)
            gx = np.subtract(gx, corr, out=_into(gx, gx, corr))
            coef = _per_channel(inv_std) / count
            gx = np.multiply(coef, gx, out=_into(gx, coef, gx))
        else:
            gx = np.multiply(g_hat, _per_channel(inv_std),
                             out=_into(g_hat, g_hat, inv_std))
        gx = gx.astype(x.dtype, copy=False)
    if weight is not None and weight.requires_grad:
        gw = np.multiply(g, x_hat, out=_into(prod, g, x_hat))
        gw = gw.sum(axis=axes).astype(weight.dtype, copy=False)
    if bias is not None and bias.requires_grad:
        gb = g.sum(axis=axes).astype(bias.dtype, copy=False)
    return (gx,) if weight is None else (gx, gw, gb)


def batch_norm(x: Tensor, weight: Optional[Tensor], bias: Optional[Tensor],
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Fused batch normalization over (N, H, W) per channel.

    In training mode normalizes with batch statistics and updates
    ``running_mean`` / ``running_var`` **in place**; in eval mode uses the
    running estimates.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm expects (N, C, H, W), got {x.shape}")
    inputs = (x,) if weight is None else (x, weight, bias)
    return apply(BATCH_NORM, *inputs, running_mean=running_mean,
                 running_var=running_var, training=training,
                 momentum=momentum, eps=eps)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W.T + b`` with ``W`` of shape (out, in)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax built from primitive ops."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(logits, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot float32 matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _cross_entropy(z, *, labels, label_smoothing, out=None):
    """Mean softmax cross-entropy; saves ``(probs, target)``."""
    k = z.shape[1]
    z_max = z.max(axis=1, keepdims=True)
    exp_z = np.exp(z - z_max)
    sum_exp = exp_z.sum(axis=1, keepdims=True)
    log_probs = (z - z_max) - np.log(sum_exp)
    target = one_hot(labels, k)
    if label_smoothing > 0.0:
        target = target * (1.0 - label_smoothing) + label_smoothing / k
    loss = np.asarray(-(target * log_probs).sum(axis=1).mean(), dtype=z.dtype)
    return _to(out, loss), (exp_z / sum_exp, target)


def _cross_entropy_grad(g, ins, y, saved, *, labels, label_smoothing):
    probs, target = saved
    gx = (probs - target) * (g / len(probs))
    return (gx.astype(ins[0].dtype),)


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Fused mean softmax cross-entropy over a batch.

    Parameters
    ----------
    logits:
        ``(N, K)`` raw scores.
    labels:
        ``(N,)`` integer class ids (numpy array or list).
    label_smoothing:
        Optional uniform smoothing mass in [0, 1).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    return apply(CROSS_ENTROPY, logits, labels=labels,
                 label_smoothing=label_smoothing)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -(picked.mean())


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    target = ensure_tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def entropy_of_probs(probs: np.ndarray, eps: float = 1e-12, base2: bool = True) -> np.ndarray:
    """Shannon entropy per row of a probability matrix (no autograd).

    Used by the STRIP defense; base-2 by convention of the STRIP paper.
    """
    p = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0)
    h = -(p * np.log(p)).sum(axis=-1)
    if base2:
        h = h / np.log(2.0)
    return h


CONV2D = Op("conv2d", _conv2d, _conv2d_grad, scratch=_conv2d_scratch)
MAX_POOL2D = Op("max_pool2d",
                lambda x, *, kernel, out=None: _max_pool_select(x, *kernel,
                                                                out=out),
                _max_pool2d_grad)
AVG_POOL2D = Op("avg_pool2d", _avg_pool2d, _avg_pool2d_grad)
PAD2D = Op("pad2d", _pad2d, _pad2d_grad)
BATCH_NORM = Op("batch_norm", _batch_norm, _batch_norm_grad)
CROSS_ENTROPY = Op("cross_entropy", _cross_entropy, _cross_entropy_grad)
