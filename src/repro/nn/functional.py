"""Structured neural-network ops with autograd support.

Convolution (stride / padding / groups via im2col), pooling, padding,
batch norm and the fused softmax cross-entropy loss used throughout the
reproduction.  Each is one entry of the op table in
:mod:`repro.nn.tensor`: a forward kernel that can write into ``out=``
(and into named scratch buffers: conv's padded input, one row-block
of im2col columns and its bias, max-pool's windows and masks) plus a
backward rule, and declares what of its inputs and result that rule
reads (:class:`repro.nn.tensor.Op`): conv keeps only its weight, batch
norm only its gamma, max-pool, padding, pooling and the loss only
shapes.  The public functions here validate their arguments and dispatch
through
:func:`repro.nn.tensor.apply`, so the interpreted forward, the
training tape and the compiled graph's replay all run the same kernel.
They accept and return :class:`repro.nn.tensor.Tensor`.

The conv input gradient runs one GEMM per row-block back to im2col
columns, then scatters them onto the padded image (col2im) with one
strided ``+=`` per kernel tap, taps in ``(ki, kj)`` order, so every
pixel sums its contributions in a fixed order starting from ``+0.0``.
``tests/nn/test_kernel_oracle.py`` holds it to the bits of a sparse
scatter-GEMM col2im, whose CSR rows add the same values in that order.

Max-pool copies its input once into window-major order, so its scans
run over contiguous memory, and keeps one boolean mask per window
element for the backward.
Max-pool and batch norm produce the same bits as the plain argmax /
``mean``+``var`` formulations, down to which of ``-0.0`` and ``+0.0`` a
tied window returns.

The conv walks the batch in shape-only row-blocks (:func:`_batch_blocks`)
and never holds a whole batch's im2col columns.  The forward copies each
block's columns into one block-sized buffer and runs one GEMM per
sample; it saves the padded input, about ``1 / (kh*kw)`` the size of
the columns.  The backward rebuilds each block's columns from it and
sums the weight-gradient partials in block-index order.
``tests/nn/test_kernel_oracle.py`` holds the forward to per-sample GEMMs
and that order to a reference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..obs import profile as _profile
from .tensor import Op, Tensor, _to, apply, ensure_tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _conv_out_hw(x, weight, stride,
                 padding) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a conv; raises when the output would be empty."""
    (sh, sw), (ph, pw) = stride, padding
    h, w = x.shape[2:]
    kh, kw = weight.shape[2:]
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride ({sh},{sw}), pad ({ph},{pw})")
    return out_h, out_w


#: Batches below this size run the conv backward as one block.
MIN_BLOCK_BATCH = 16

#: Row-block count of the conv backward for larger batches.
NUM_BLOCKS = 8


def _batch_blocks(n: int) -> List[slice]:
    """Contiguous row-block slices of a conv backward over ``n`` samples.

    Shape-only: one block below :data:`MIN_BLOCK_BATCH`, otherwise
    :data:`NUM_BLOCKS` near-equal blocks (remainder spread over the
    leading blocks, matching ``np.array_split``).  The blocks stay for
    two measured reasons.  Cache locality: a whole-batch col2im was
    slower per training epoch.  Reduction order: the weight gradient is
    the sum of per-block GEMMs in block-index order, and every recorded
    training digest depends on that order (one whole-batch GEMM was
    slower too, and moved the digests).
    """
    if n < MIN_BLOCK_BATCH:
        return [slice(0, n)]
    base, extra = divmod(n, NUM_BLOCKS)
    out = []
    start = 0
    for b in range(NUM_BLOCKS):
        stop = start + base + (1 if b < extra else 0)
        out.append(slice(start, stop))
        start = stop
    return out


def _conv_windows(xp: np.ndarray, kh: int, kw: int, stride) -> np.ndarray:
    """Strided ``(N, C, kh, kw, out_h, out_w)`` im2col view of ``xp``.

    No copy: a row-block of it is copied into a contiguous columns
    buffer; the transposing copy is cheaper than an equivalent
    fancy-index gather.
    """
    sh, sw = stride
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return windows.transpose(0, 1, 4, 5, 2, 3)


def _cols_shape(x, weight, stride, padding) -> Tuple[int, ...]:
    """Shape of the columns of the largest (leading) row-block."""
    out_h, out_w = _conv_out_hw(x, weight, stride, padding)
    return ((_batch_blocks(x.shape[0])[0].stop, x.shape[1])
            + weight.shape[2:] + (out_h, out_w))


def _conv2d(x, weight, bias=None, *, stride, padding, groups,
            out=None, padded=None, cols=None, bias_plane=None):
    """Conv forward kernel: pad, then per row-block (:func:`_batch_blocks`)
    im2col, GEMM and bias.

    ``cols`` holds one row-block's columns, ``(B, C, kh, kw, out_h,
    out_w)``, so no whole-batch column array exists.  Each sample is its
    own GEMM ``(G, O/G, K) @ (G, K, L)``, so its bits do not depend on
    the batch around it.  The bias is first copied out to one block's
    shape in ``bias_plane``: an add of two same-shaped arrays runs
    without the iteration buffers numpy allocates for a broadcast
    operand.  Saves the padded input (``x`` itself when unpadded) for
    the backward, which rebuilds the columns from it.
    """
    out_h, out_w = _conv_out_hw(x, weight, stride, padding)
    (ph, pw), (n, c) = padding, x.shape[:2]
    o, _, kh, kw = weight.shape
    xp = _pad2d(x, padding=padding, out=padded)[0] if ph or pw else x
    windows = _conv_windows(xp, kh, kw, stride)
    if cols is None:
        cols = np.empty(_cols_shape(x, weight, stride, padding), x.dtype)
    loc, kdim = out_h * out_w, c // groups * kh * kw
    w_g = weight.reshape(groups, o // groups, kdim)
    if out is None:
        out = np.empty((n, o, out_h, out_w), dtype=np.result_type(w_g, cols))
    out_g = out.reshape(n, groups, o // groups, loc)
    if bias is not None:
        if bias_plane is None:
            bias_plane = np.empty((len(cols), o, out_h, out_w), bias.dtype)
        np.copyto(bias_plane, bias.reshape(1, o, 1, 1))
    _prof = _profile.ACTIVE
    prof_token = _prof.start("conv.forward") if _prof is not None else None
    for sl in _batch_blocks(n):
        block = cols[:sl.stop - sl.start]
        np.copyto(block, windows[sl])
        np.matmul(w_g[None], block.reshape(len(block), groups, kdim, loc),
                  out=out_g[sl])
        if bias is not None:
            np.add(out[sl], bias_plane[:len(block)], out=out[sl])
    if _prof is not None:
        _prof.stop(prof_token)
    return out.astype(x.dtype, copy=False), xp


def _conv2d_scratch(x, weight, bias=None, *, stride, padding, groups):
    (ph, pw), (n, c, h, w) = padding, x.shape
    cols = _cols_shape(x, weight, stride, padding)
    specs = {"cols": (cols, x.dtype)}
    if ph or pw:
        specs["padded"] = ((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    if bias is not None:
        specs["bias_plane"] = ((cols[0], weight.shape[0]) + cols[-2:],
                               bias.dtype)
    return specs


def _conv2d_grad(g, ins, y, xp, *, stride, padding, groups):
    x, weight = ins[0], ins[1]
    bias = ins[2] if len(ins) > 2 else None
    out_h, out_w = _conv_out_hw(x, weight, stride, padding)
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    hp, wp = h + 2 * ph, w + 2 * pw
    loc, kdim = out_h * out_w, c // groups * kh * kw
    w_g = weight.data.reshape(groups, o // groups, kdim)

    _prof = _profile.ACTIVE
    prof_token = _prof.start("conv.backward") if _prof is not None else None
    g_r = g.reshape(n, groups, o // groups, loc)
    bwd_blocks = _batch_blocks(n)
    gx = gw = gb = None
    if weight.requires_grad:
        # Each block's columns are rebuilt from the saved padded input
        # into one block-sized buffer, in the layout the GEMM operand had
        # when the forward kept a whole-batch column array: BLAS picks
        # its kernel, and so its bits, by operand layout.
        windows = _conv_windows(xp, kh, kw, stride)
        cols = np.empty(_cols_shape(x, weight, stride, padding), xp.dtype)
        for sl in bwd_blocks:
            nb = sl.stop - sl.start
            block = cols[:nb]
            np.copyto(block, windows[sl])
            if groups > 1:
                part = np.matmul(g_r[sl], block.reshape(
                    nb, groups, kdim, loc).transpose(0, 1, 3, 2)).sum(axis=0)
            else:
                # GEMM (O, B*L) @ (B*L, K) over the block's samples.
                g2 = (g[sl].reshape(nb, o, loc)
                      .transpose(1, 0, 2).reshape(o, nb * loc))
                c2 = (block.reshape(nb, kdim, loc).transpose(1, 0, 2)
                      .reshape(kdim, nb * loc))
                part = g2 @ c2.T
            # Partials summed in block-index order: a fixed reduction.
            gw = part if gw is None else gw + part
        gw = gw.reshape(weight.shape).astype(weight.dtype, copy=False)
    if x.requires_grad:
        gx = np.empty((n, c, h, w), dtype=np.result_type(w_g, g))
        # The adds' inner loop runs over out_w pixels in NCHW and over a
        # block's N*C values channels-last; accumulate in the longer one.
        channels_last = kh * kw > 1 and out_w <= c
        for sl in bwd_blocks:
            # col2im: add each kernel tap's columns onto its strided window
            # of a zeroed padded gradient, taps in (ki, kj) order.  Both
            # buffers are indexed (row, col, sample, channel).
            gcols = np.matmul(w_g.transpose(0, 2, 1)[None], g_r[sl])
            taps = (gcols.reshape(-1, c, kh, kw, out_h, out_w)
                    .transpose(2, 3, 4, 5, 0, 1))
            nb = len(gcols)
            acc = (np.zeros((hp, wp, nb, c), gx.dtype) if channels_last else
                   np.zeros((nb, c, hp, wp), gx.dtype).transpose(2, 3, 0, 1))
            for ki in range(kh):
                for kj in range(kw):
                    acc[ki:ki + sh * out_h:sh,
                        kj:kj + sw * out_w:sw] += taps[ki, kj]
            gx[sl] = acc[ph:ph + h, pw:pw + w].transpose(2, 3, 0, 1)
        gx = gx.astype(x.dtype, copy=False)
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
                     out: Optional[np.ndarray] = None,
                     masks: Optional[np.ndarray] = None,
                     seen: Optional[np.ndarray] = None,
                     sel: Optional[np.ndarray] = None,
                     windows: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Max over each non-overlapping ``kh x kw`` window.

    Copies the ``kh*kw`` window views of
    ``x.reshape(n, c, oh, kh, ow, kw)`` into one contiguous ``windows``
    buffer, in row-major window order, then scans them.  Every ufunc
    runs over contiguous operands: on a strided view numpy allocates
    iteration buffers per call, and the scans run about twice as slow.
    Returns ``(out, masks)``: ``masks[k]`` is the one-hot selection of
    window element ``k``, using argmax's rule (the first maximum wins; a
    window holding a NaN selects its first NaN).  ``out`` is assembled
    from the selected element's own bits, so a window mixing ``-0.0``
    and ``+0.0`` yields whichever zero comes first.  ``out`` and the
    working buffers ``masks``, ``seen``, ``sel`` and ``windows`` (see
    :func:`_max_pool_scratch`) may be preallocated.
    """
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if windows is None:
        windows = np.empty((kh * kw, n, c, oh, ow), dtype=x.dtype)
    np.copyto(windows.reshape(kh, kw, n, c, oh, ow),
              x.reshape(n, c, oh, kh, ow, kw).transpose(3, 5, 0, 1, 2, 4))
    views = list(windows)
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
    # ``out`` holds the window max until the masks are built.
    np.copyto(out, views[0])
    for v in views[1:]:
        np.maximum(out, v, out=out)
    if masks is None:
        masks = np.empty((len(views), n, c, oh, ow), dtype=bool)
    np.equal(views[0], out, out=masks[0])
    if seen is None:
        seen = np.empty(out.shape, dtype=bool)
    np.copyto(seen, masks[0])
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
    if sel is None:
        sel = np.empty(out.shape, dtype=bits)
    for k, (v, mask) in enumerate(zip(views, masks)):
        _select_bits(mask, sel)
        if k == 0:
            np.bitwise_and(v.view(bits), sel, out=out_bits)
        else:
            np.bitwise_and(v.view(bits), sel, out=sel)
            np.bitwise_or(out_bits, sel, out=out_bits)
    return out, masks


def _select_bits(mask: np.ndarray, sel: np.ndarray) -> None:
    """``sel = 0`` where ``mask`` is False, all one bits where True.

    A copy then an in-place negate: a ufunc that casts the boolean mask
    as it reads it allocates numpy's iteration buffers on every call.
    """
    np.copyto(sel, mask)
    np.negative(sel, out=sel)


def _max_pool_scratch(x, *, kernel):
    """The working buffers of :func:`_max_pool_select`.  Compiled, the
    masks live in the arena; interpreted, the kernel allocates them and
    saves them for the backward."""
    kh, kw = kernel
    n, c, h, w = x.shape
    shape = (n, c, h // kh, w // kw)
    return {"masks": ((kh * kw,) + shape, np.dtype(bool)),
            "seen": (shape, np.dtype(bool)),
            "sel": (shape, np.dtype(f"u{x.dtype.itemsize}")),
            "windows": ((kh * kw,) + shape, x.dtype)}


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
        _select_bits(mask, sel)
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


CONV2D = Op("conv2d", _conv2d, _conv2d_grad, scratch=_conv2d_scratch,
            keep=(1,), keep_result=False)
MAX_POOL2D = Op("max_pool2d",
                lambda x, *, kernel, out=None, **scratch: _max_pool_select(
                    x, *kernel, out=out, **scratch),
                _max_pool2d_grad, scratch=_max_pool_scratch,
                keep=(), keep_result=False)
AVG_POOL2D = Op("avg_pool2d", _avg_pool2d, _avg_pool2d_grad,
                keep=(), keep_result=False)
PAD2D = Op("pad2d", _pad2d, _pad2d_grad, keep=(), keep_result=False)
BATCH_NORM = Op("batch_norm", _batch_norm, _batch_norm_grad,
                keep=(1,), keep_result=False)
CROSS_ENTROPY = Op("cross_entropy", _cross_entropy, _cross_entropy_grad,
                   keep=(), keep_result=False)
