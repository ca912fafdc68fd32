"""Reference max-pool and batch-norm kernels: the plain formulations.

These are the argmax / take_along_axis max-pool and the mean + var batch
norm that :mod:`repro.nn.functional` used before its copy-free kernels.
They are kept verbatim as oracles: the production kernels must match
them byte for byte (outputs, gradients and running statistics).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
