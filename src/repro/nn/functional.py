"""Structured neural-network ops with autograd support.

Convolution (stride / padding / groups via im2col), pooling, padding, batch
norm and the fused softmax cross-entropy loss used throughout the
reproduction.  The public functions accept and return
:class:`repro.nn.tensor.Tensor`.

Max-pool works on strided window views of its input (no transposed copy)
and keeps one boolean mask per window element for the backward;
:mod:`repro.nn.graph` replays compiled max-pools through the same array
kernel, :func:`_max_pool_select`.  Max-pool and batch norm produce the
same bits as the plain argmax / ``mean``+``var`` formulations, down to
which of ``-0.0`` and ``+0.0`` a tied window returns.

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
from .tensor import Tensor, ensure_tensor
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
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    o, c_per_group, kh, kw = weight.shape
    if c % groups or o % groups:
        raise ValueError(f"channels ({c}) and filters ({o}) must divide groups ({groups})")
    if c_per_group != c // groups:
        raise ValueError(f"weight expects {c_per_group * groups} input channels, got {c}")

    geom_key = (c, h, w, kh, kw, sh, sw, ph, pw)
    k_idx, i_idx, j_idx, out_h, out_w = _cached_indices(geom_key)
    x_padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # im2col via a strided sliding-window view; the transpose+reshape copy
    # is cheaper than an equivalent fancy-index gather.
    windows = np.lib.stride_tricks.sliding_window_view(
        x_padded, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, -1)
    loc = out_h * out_w
    kdim = c_per_group * kh * kw
    cols_g = cols.reshape(n, groups, kdim, loc)
    w_g = weight.data.reshape(groups, o // groups, kdim)

    # Batched BLAS, blocked over the batch: (1, G, O/G, K) @ (B, G, K, L)
    # -> (B, G, O/G, L) per row-block.  Output rows are disjoint, so the
    # blocks run concurrently on the intra-op pool without any reduction.
    _prof = _profile.ACTIVE
    prof_token = _prof.start("conv.forward") if _prof is not None else None
    blocks = batch_blocks(n)
    if len(blocks) == 1:
        out = np.matmul(w_g[None], cols_g)
    else:
        out = np.empty((n, groups, o // groups, loc),
                       dtype=np.result_type(w_g.dtype, cols_g.dtype))

        def _forward_block(sl: slice, _b: int) -> None:
            np.matmul(w_g[None], cols_g[sl], out=out[sl])

        map_blocks(_forward_block, blocks)
    if _prof is not None:
        _prof.stop(prof_token)
    out = out.reshape(n, o, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, o, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    hp, wp = h + 2 * ph, w + 2 * pw

    def backward(g):
        _prof = _profile.ACTIVE
        prof_token = (_prof.start("conv.backward") if _prof is not None
                      else None)
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

                partials = map_blocks(_gw_block, bwd_blocks)
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
        if bias is None:
            return (gx, gw)
        return (gx, gw, gb)

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


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


def max_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling with ``stride == kernel_size`` (the common CNN case).

    Input spatial dims must be divisible by the kernel; the model zoo
    arranges its shapes to satisfy this.  The forward keeps only the
    boolean window masks of :func:`_max_pool_select`; the backward
    writes ``g`` through them with a bitwise AND, so every unselected
    position gets exactly ``+0.0``.
    """
    kh, kw = _pair(kernel_size)
    if stride is not None and _pair(stride) != (kh, kw):
        raise NotImplementedError("max_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kh or w % kw:
        raise ValueError(f"pooling kernel {kh}x{kw} does not tile input {h}x{w}")
    out, masks = _max_pool_select(x.data, kh, kw)

    def backward(g):
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

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntPair = 2) -> Tensor:
    """Average pooling with ``stride == kernel_size``."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    if h % kh or w % kw:
        raise ValueError(f"pooling kernel {kh}x{kw} does not tile input {h}x{w}")
    oh, ow = h // kh, w // kw
    out = x.data.reshape(n, c, oh, kh, ow, kw).mean(axis=(3, 5))

    def backward(g):
        g_e = g.reshape(n, c, oh, 1, ow, 1) / (kh * kw)
        gx = np.broadcast_to(g_e, (n, c, oh, kh, ow, kw)).reshape(n, c, h, w)
        return (gx.astype(x.dtype),)

    return Tensor._make(out.astype(x.dtype), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean -> (N, C).  Standard classifier head entry point."""
    return x.mean(axis=(2, 3))


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the two trailing spatial dimensions."""
    ph, pw = _pair(padding)
    data = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(g):
        h, w = x.shape[2], x.shape[3]
        return (g[:, :, ph:ph + h, pw:pw + w],)

    return Tensor._make(data, (x,), backward)


def _into(buf: Optional[np.ndarray], *operands: np.ndarray) -> Optional[np.ndarray]:
    """``buf`` when a ufunc over ``operands`` yields its dtype, else ``None``.

    Lets a kernel reuse a dead buffer as ``out=`` without ever changing
    the dtype the expression would have produced on its own.
    """
    if buf is not None and np.result_type(*operands) == buf.dtype:
        return buf
    return None


def batch_norm(x: Tensor, weight: Optional[Tensor], bias: Optional[Tensor],
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Fused batch normalization over (N, H, W) per channel.

    In training mode normalizes with batch statistics and updates
    ``running_mean`` / ``running_var`` **in place**; in eval mode uses the
    running estimates.  The centred ``x - mean`` feeds both the variance
    (numpy's own ``var`` algorithm: square, sum, divide) and ``x_hat``,
    and dead full-size buffers are reused as ``out=`` targets, so the
    forward allocates two arrays of ``x``'s size and the backward two.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm expects (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w

    def per_channel(a: np.ndarray) -> np.ndarray:
        return a.reshape(1, c, 1, 1)

    mean = x.data.mean(axis=axes) if training else running_mean
    centred = x.data - per_channel(mean)
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
    x_hat = np.multiply(centred, per_channel(inv_std),
                        out=_into(scratch, centred, inv_std))
    if weight is not None:
        scaled = np.multiply(x_hat, per_channel(weight.data),
                             out=_into(centred, x_hat, weight.data))
        out = np.add(scaled, per_channel(bias.data),
                     out=_into(scaled, scaled, bias.data))
    else:
        out = x_hat

    parents = (x,) if weight is None else (x, weight, bias)

    def backward(g):
        gamma = weight.data if weight is not None else np.ones(c, dtype=x.dtype)
        g_hat = g * per_channel(gamma)
        gx = gw = gb = None
        prod = None
        if x.requires_grad:
            if training:
                # gx = inv_std / count * (count * g_hat - sum_g - x_hat * sum_gx)
                sum_g = g_hat.sum(axis=axes)
                prod = np.multiply(g_hat, x_hat)
                sum_gx = prod.sum(axis=axes)
                gx = np.multiply(count, g_hat, out=g_hat)
                np.subtract(gx, per_channel(sum_g), out=gx)
                corr = np.multiply(x_hat, per_channel(sum_gx), out=prod)
                gx = np.subtract(gx, corr, out=_into(gx, gx, corr))
                coef = per_channel(inv_std) / count
                gx = np.multiply(coef, gx, out=_into(gx, coef, gx))
            else:
                gx = np.multiply(g_hat, per_channel(inv_std),
                                 out=_into(g_hat, g_hat, inv_std))
            gx = gx.astype(x.dtype, copy=False)
        if weight is not None and weight.requires_grad:
            gw = np.multiply(g, x_hat, out=_into(prod, g, x_hat))
            gw = gw.sum(axis=axes).astype(weight.dtype, copy=False)
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=axes).astype(bias.dtype, copy=False)
        if weight is None:
            return (gx,)
        return (gx, gw, gb)

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


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
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")

    z = logits.data
    z_max = z.max(axis=1, keepdims=True)
    exp_z = np.exp(z - z_max)
    sum_exp = exp_z.sum(axis=1, keepdims=True)
    log_probs = (z - z_max) - np.log(sum_exp)
    probs = exp_z / sum_exp

    target = one_hot(labels, k)
    if label_smoothing > 0.0:
        target = target * (1.0 - label_smoothing) + label_smoothing / k

    loss_value = -(target * log_probs).sum(axis=1).mean()

    def backward(g):
        gx = (probs - target) * (g / n)
        return (gx.astype(logits.dtype),)

    return Tensor._make(np.asarray(loss_value, dtype=logits.dtype), (logits,), backward)


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
