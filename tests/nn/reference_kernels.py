"""Reference kernels: the plain formulations the production ones replaced.

These are the argmax / take_along_axis max-pool and the mean + var batch
norm that :mod:`repro.nn.functional` used before its copy-free kernels,
the sparse-GEMM col2im its conv input gradient used before the strided
adds, and the one-expression sigmoid :mod:`repro.nn.tensor` used before
its kernel wrote into named buffers.  They are kept verbatim as oracles: the production kernels
must match them byte for byte (outputs, gradients and running
statistics).

The conv weight gradient is written out independently instead: a
fancy-index im2col, explicit GEMMs per row-block (per sample and group
for grouped convs), and the block partials summed in block-index order.
Every recorded training digest depends on that order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.nn.functional import IntPair, _pair
from repro.nn.tensor import Tensor


def max_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    kh, kw = _pair(kernel_size)
    if stride is not None and _pair(stride) != (kh, kw):
        raise NotImplementedError("max_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kh or w % kw:
        raise ValueError(f"pooling kernel {kh}x{kw} does not tile input {h}x{w}")
    oh, ow = h // kh, w // kw

    # Group each pooling window into the trailing axis, then argmax once.
    windows = (x.data.reshape(n, c, oh, kh, ow, kw)
               .transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, oh, ow, kh * kw))
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(g):
        gwin = np.zeros_like(windows)
        np.put_along_axis(gwin, argmax[..., None], g[..., None], axis=-1)
        gx = (gwin.reshape(n, c, oh, ow, kh, kw)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out.astype(x.dtype, copy=False), (x,), backward)


def batch_norm(x: Tensor, weight: Optional[Tensor], bias: Optional[Tensor],
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    if x.ndim != 4:
        raise ValueError(f"batch_norm expects (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        unbiased = var * (count / max(count - 1, 1))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    if weight is not None:
        out = x_hat * weight.data.reshape(1, c, 1, 1) + bias.data.reshape(1, c, 1, 1)
    else:
        out = x_hat

    parents = (x,) if weight is None else (x, weight, bias)

    def backward(g):
        gamma = weight.data if weight is not None else np.ones(c, dtype=x.dtype)
        g_hat = g * gamma.reshape(1, c, 1, 1)
        gx = gw = gb = None
        if x.requires_grad:
            if training:
                sum_g = g_hat.sum(axis=axes)
                sum_gx = (g_hat * x_hat).sum(axis=axes)
                gx = (inv_std.reshape(1, c, 1, 1) / count) * (
                    count * g_hat
                    - sum_g.reshape(1, c, 1, 1)
                    - x_hat * sum_gx.reshape(1, c, 1, 1))
            else:
                gx = g_hat * inv_std.reshape(1, c, 1, 1)
            gx = gx.astype(x.dtype, copy=False)
        if weight is not None and weight.requires_grad:
            gw = (g * x_hat).sum(axis=axes).astype(weight.dtype, copy=False)
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=axes).astype(bias.dtype, copy=False)
        if weight is None:
            return (gx,)
        return (gx, gw, gb)

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


def row_blocks(n: int) -> List[slice]:
    """The conv backward's row-blocks: one below 16 samples, else 8
    near-equal contiguous blocks in ``np.array_split`` order."""
    if n < 16:
        return [slice(0, n)]
    return [slice(int(b[0]), int(b[-1]) + 1)
            for b in np.array_split(np.arange(n), 8)]


def _im2col_indices(channels: int, height: int, width: int,
                    kh: int, kw: int, stride_h: int, stride_w: int,
                    pad_h: int, pad_w: int):
    """Index arrays mapping a padded image to its im2col matrix.

    Returns ``(k, i, j, out_h, out_w)`` such that
    ``x_padded[:, k, i, j]`` has shape ``(N, C*kh*kw, out_h*out_w)``.
    """
    out_h = (height + 2 * pad_h - kh) // stride_h + 1
    out_w = (width + 2 * pad_w - kw) // stride_w + 1
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _scatter_matrix(k_idx, i_idx, j_idx, padded_hw: Tuple[int, int],
                    channels: int) -> sparse.csr_matrix:
    """Sparse matrix mapping im2col columns back to padded-image pixels."""
    hp, wp = padded_hw
    flat = (k_idx * hp * wp + i_idx * wp + j_idx).ravel()
    n_cols = flat.size
    return sparse.csr_matrix(
        (np.ones(n_cols, dtype=np.float32),
         (flat, np.arange(n_cols, dtype=np.int64))),
        shape=(channels * hp * wp, n_cols))


def conv2d_forward(x: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray], stride: Tuple[int, int],
                   padding: Tuple[int, int], groups: int) -> np.ndarray:
    """The conv forward one sample at a time: an index-gather im2col,
    one ``(G, O/G, K) @ (G, K, L)`` GEMM, then the bias."""
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    k_idx, i_idx, j_idx, out_h, out_w = _im2col_indices(
        c, h, w, kh, kw, sh, sw, ph, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    loc, kdim = out_h * out_w, c // groups * kh * kw
    w_g = weight.reshape(groups, o // groups, kdim)
    out = np.empty((n, o, out_h, out_w), dtype=np.result_type(weight, x))
    for i in range(n):
        cols = np.ascontiguousarray(xp[i][k_idx, i_idx, j_idx])
        out[i] = np.matmul(w_g, cols.reshape(groups, kdim, loc)).reshape(
            o, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out.astype(x.dtype, copy=False)


def conv2d_input_grad(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                      stride: Tuple[int, int], padding: Tuple[int, int],
                      groups: int) -> np.ndarray:
    """The conv input gradient: per row-block GEMM, then a sparse col2im."""
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    k_idx, i_idx, j_idx, out_h, out_w = _im2col_indices(
        c, h, w, kh, kw, sh, sw, ph, pw)
    hp, wp = h + 2 * ph, w + 2 * pw
    loc, kdim = out_h * out_w, c // groups * kh * kw
    w_g = weight.reshape(groups, o // groups, kdim)
    g_r = g.reshape(n, groups, o // groups, loc)
    scatter = _scatter_matrix(k_idx, i_idx, j_idx, (hp, wp), c)
    gx_padded = np.empty((n, c, hp, wp), dtype=np.result_type(w_g, g))

    for sl in row_blocks(n):
        nb = sl.stop - sl.start
        gcols = np.matmul(w_g.transpose(0, 2, 1)[None], g_r[sl])
        gcols = gcols.reshape(nb, c * kh * kw * loc)
        gx_padded[sl] = (scatter @ gcols.T).T.reshape(nb, c, hp, wp)
    return gx_padded[:, :, ph:ph + h, pw:pw + w].astype(x.dtype, copy=False)


def conv2d_weight_grad(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int], padding: Tuple[int, int],
                       groups: int) -> np.ndarray:
    """The conv weight gradient: per-block GEMMs summed in block order.

    Dense convs run one ``(O, B*L) @ (B*L, K)`` GEMM per block, the
    block's samples side by side.  Grouped convs run one
    ``(O/G, L) @ (L, K)`` GEMM per sample and group and add the samples
    in order onto ``+0.0``.  The block partials are then summed in
    block-index order.
    """
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    k_idx, i_idx, j_idx, out_h, out_w = _im2col_indices(
        c, h, w, kh, kw, sh, sw, ph, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.ascontiguousarray(xp[:, k_idx, i_idx, j_idx])  # (N, C*kh*kw, L)
    loc, kdim, og = out_h * out_w, c // groups * kh * kw, o // groups
    g_flat = g.reshape(n, o, loc)
    partials = []
    for sl in row_blocks(n):
        samples = range(sl.start, sl.stop)
        if groups == 1:
            # Same operand layouts as the production reshapes (a view
            # when L == 1): BLAS picks its kernel, and so its bits, by
            # layout.
            g2 = g_flat[sl].transpose(1, 0, 2).reshape(o, -1)
            c2 = cols[sl].transpose(1, 0, 2).reshape(kdim, -1)
            partials.append(g2 @ c2.T)
            continue
        partial = np.zeros((groups, og, kdim), np.result_type(g, cols))
        for i in samples:
            partial = partial + np.stack([
                g_flat[i, gi * og:(gi + 1) * og]
                @ cols[i, gi * kdim:(gi + 1) * kdim].T
                for gi in range(groups)])
        partials.append(partial)
    gw = partials[0]
    for partial in partials[1:]:
        gw = gw + partial
    return gw.reshape(weight.shape).astype(weight.dtype, copy=False)


def sigmoid(a: np.ndarray) -> np.ndarray:
    y = np.where(a >= 0,
                 1.0 / (1.0 + np.exp(-np.clip(a, -60, 60))),
                 np.exp(np.clip(a, -60, 60)) / (1.0 + np.exp(np.clip(a, -60, 60))))
    return y.astype(a.dtype, copy=False)
