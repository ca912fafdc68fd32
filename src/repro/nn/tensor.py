"""Reverse-mode automatic differentiation on numpy arrays, over one op table.

This module is the foundation of the from-scratch deep-learning substrate
used by the ReVeil reproduction (the paper used PyTorch; this environment
has none, so we build the equivalent).  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it on a tape (the
``_parents`` / ``_backward`` fields).  Calling :meth:`Tensor.backward` on a
scalar output walks the tape in reverse topological order and accumulates
gradients into every tensor created with ``requires_grad=True``.

Every primitive op is defined once, as an :class:`Op` in :data:`OPS`: one
forward kernel that can write into a caller's ``out=`` buffer, and one
backward rule.  :func:`apply` is the single dispatch point.  It runs the
kernel, builds the tape node and, when this thread is tracing for
:mod:`repro.nn.graph`, records the call.  The compiled graph replays the
same kernels into its arena.  The elementwise, shape and reduction ops
live here; convolution, pooling, padding, batch norm and the fused loss
register theirs in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, float]
ArrayLike = Union[np.ndarray, Scalar, Sequence]

_DEFAULT_DTYPE = np.float32

# Global switch mirroring ``torch.no_grad()``.  When False no tape is built.
_grad_enabled = True


class no_grad:
    """Context manager disabling tape construction inside its block.

    Used by evaluation loops and defenses that only need forward passes;
    skipping tape construction roughly halves memory traffic.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the tape."""
    return _grad_enabled


def _as_array(value: ArrayLike, dtype=_DEFAULT_DTYPE) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    return arr


def matmul_rows(a: np.ndarray, b: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``a @ b`` whose output rows do not depend on how many rows ``a`` has.

    BLAS picks its kernel, and with it the accumulation order, by GEMM
    shape, so one 2-D GEMM gives a row different low-order bits at
    different row counts.  A 2-D product therefore runs as stacked
    one-row GEMMs, ``(n, 1, k) @ (1, k, m)``: every row is the same
    ``(1, k) @ (k, m)`` call at any width and any row offset.  Batched
    products already run one fixed-shape GEMM per leading index.
    """
    if a.ndim != 2 or b.ndim != 2:
        return np.matmul(a, b, out=out)
    rows = np.matmul(a[:, None, :], b[None],
                     out=None if out is None else out[:, None, :])
    return rows[:, 0]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shaped by broadcasting) back to ``shape``.

    Numpy broadcasting prepends singleton axes and stretches size-1 axes;
    the corresponding gradient operation is summation over the broadcast
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum the prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum the stretched axes.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# The op table
# ---------------------------------------------------------------------------

#: Every registered op by name.
OPS: Dict[str, "Op"] = {}

#: Per-thread trace hook: :mod:`repro.nn.graph` sets ``TRACE.tracer`` on
#: the compiling thread, and :func:`apply` reports every op it runs there.
TRACE = threading.local()


class Op:
    """One tensor op, defined once for autograd, tracing and compiled replay.

    ``forward(*arrays, out=None, **scratch, **params)`` is the kernel.  It
    returns ``(result, saved)``, where ``saved`` is whatever ``backward``
    needs beyond the inputs and the result.  With ``out`` set the result
    is written there (the compiled graph passes an arena view); with
    ``out=None`` the kernel allocates it.  ``scratch(*arrays, **params)``
    names the working buffers, as ``{name: (shape, dtype)}``, that the
    kernel allocates itself unless they are passed by name.

    ``backward(g, inputs, result, saved, **params)`` returns one gradient
    (or ``None``) per input tensor.

    A ``view`` op returns a view of its input and takes no ``out``.  An
    ``inplace`` op is one aligned elementwise write, so its ``out`` may
    alias a same-shaped input.
    """

    def __init__(self, name: str, forward: Callable, backward: Callable, *,
                 view: bool = False, inplace: bool = False,
                 scratch: Optional[Callable] = None):
        self.name = name
        self.forward = forward
        self.backward = backward
        self.view = view
        self.inplace = inplace
        self.scratch = scratch or (lambda *arrays, **params: {})
        OPS[name] = self


def apply(op: Op, *inputs: "Tensor", **params) -> "Tensor":
    """Run ``op`` on ``inputs``: the single dispatch point of every op.

    Builds the tape node and, while :mod:`repro.nn.graph` traces on this
    thread, reports the call to its tracer.
    """
    data, saved = op.forward(*[t.data for t in inputs], **params)
    out = Tensor._make(data, inputs,
                       lambda g: op.backward(g, inputs, data, saved, **params))
    tracer = getattr(TRACE, "tracer", None)
    if tracer is not None:
        tracer.record(op, inputs, params, out)
    return out


def _to(out: Optional[np.ndarray], value: np.ndarray) -> np.ndarray:
    """``value``, copied into ``out`` when one is given.

    For kernels whose last step cannot take ``out=`` without changing
    the bits it computes.
    """
    if out is None:
        return value
    np.copyto(out, value)
    return out


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray``.  Stored as float32 by
        default (matching the training precision used in the paper).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_retain")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=_DEFAULT_DTYPE):
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._retain = False

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a tape-free deep copy."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def retain_grad(self) -> "Tensor":
        """Keep the gradient of this (non-leaf) tensor after backward.

        Needed by GradCAM, which reads gradients of intermediate feature
        maps.
        """
        self._retain = True
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a tape node if grad mode is on and any parent needs grad."""
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` which requires this
            tensor to be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (models can be deep enough
        # that recursion would hit Python's stack limit).
        topo: list[Tensor] = []
        visited = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            is_leaf = node._backward is None
            if is_leaf or node._retain:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                node._accumulate_parents(g, grads)

    def _accumulate_parents(self, g: np.ndarray, grads: dict) -> None:
        """Invoke the local backward fn, adding parent grads into ``grads``."""
        contributions = self._backward(g)
        if contributions is None:
            return
        for parent, contrib in zip(self._parents, contributions):
            if contrib is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib

    # ------------------------------------------------------------------
    # Elementwise arithmetic (broadcasting)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply(ADD, self, ensure_tensor(other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply(NEG, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply(MUL, self, ensure_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply(DIV, self, ensure_tensor(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return apply(POW, self, exponent=exponent)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product.  Supports 2-D @ 2-D and batched (...,m,k)@(k,n).

        Row-invariant (see :func:`matmul_rows`) in every grad mode.
        """
        return apply(MATMUL, self, ensure_tensor(other))

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply(RESHAPE, self, shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return apply(TRANSPOSE, self, axes=axes)

    def __getitem__(self, index) -> "Tensor":
        return apply(GETITEM, self, index=index)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten dims from ``start_dim`` onward (mirrors torch.flatten)."""
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(SUM, self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([a.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divides by N) — matches batch-norm convention."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        sq = centered * centered
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(MAX, self, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply(EXP, self)

    def log(self) -> "Tensor":
        return apply(LOG, self)

    def sqrt(self) -> "Tensor":
        return apply(SQRT, self)

    def relu(self) -> "Tensor":
        return apply(RELU, self)

    def sigmoid(self) -> "Tensor":
        return apply(SIGMOID, self)

    def tanh(self) -> "Tensor":
        return apply(TANH, self)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        return apply(CLIP, self, low=low, high=high)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Coerce scalars/arrays to (non-grad) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    return apply(STACK, *[ensure_tensor(t) for t in tensors], axis=axis)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis with gradient support."""
    return apply(CONCAT, *[ensure_tensor(t) for t in tensors], axis=axis)


# ---------------------------------------------------------------------------
# Elementwise, shape and reduction ops
# ---------------------------------------------------------------------------

def _ufunc(ufunc) -> Callable:
    """The forward kernel of an op that is one numpy ufunc call."""
    return lambda *arrays, out=None: (ufunc(*arrays, out=out), None)


def _mul_grad(g, ins, y, saved):
    a, b = ins
    ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
    gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
    return (ga, gb)


def _div_grad(g, ins, y, saved):
    a, b = ins
    ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
    gb = (_unbroadcast(-g * a.data / (b.data ** 2), b.shape)
          if b.requires_grad else None)
    return (ga, gb)


def _matmul_grad(g, ins, y, saved):
    a, b = ins
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
    if b.requires_grad:
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
    return (ga, gb)


def _getitem_grad(g, ins, y, saved, *, index):
    full = np.zeros_like(ins[0].data)
    np.add.at(full, index, g)
    return (full,)


def _sum_grad(g, ins, y, saved, *, axis, keepdims):
    a = ins[0]
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    return (np.broadcast_to(g, a.shape).astype(a.dtype),)


def _max_grad(g, ins, y, saved, *, axis, keepdims):
    a = ins[0]
    if axis is not None and not keepdims:
        y = np.expand_dims(y, axis=axis)
        g = np.expand_dims(g, axis=axis)
    mask = (a.data == y)
    # Distribute gradient evenly over ties.
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return ((mask * g / counts).astype(a.dtype),)


def _relu(a, *, out=None, mask=None):
    mask = np.greater(a, 0, out=mask)
    return np.multiply(a, mask, out=out), mask


def _sigmoid(a, *, out=None):
    # Numerically stable logistic.
    y = np.where(a >= 0,
                 1.0 / (1.0 + np.exp(-np.clip(a, -60, 60))),
                 np.exp(np.clip(a, -60, 60)) / (1.0 + np.exp(np.clip(a, -60, 60))))
    return _to(out, y.astype(a.dtype, copy=False)), None


def _clip_grad(g, ins, y, saved, *, low, high):
    a = ins[0].data
    return (g * ((a >= low) & (a <= high)),)


def _concat_grad(g, ins, y, saved, *, axis):
    offsets = np.cumsum([0] + [t.shape[axis] for t in ins])
    slicer = [slice(None)] * g.ndim
    outs = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer[axis] = slice(int(start), int(stop))
        outs.append(g[tuple(slicer)])
    return tuple(outs)


ADD = Op("add", _ufunc(np.add), lambda g, ins, y, saved: (
    _unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)),
    inplace=True)
NEG = Op("neg", _ufunc(np.negative), lambda g, ins, y, saved: (-g,),
         inplace=True)
MUL = Op("mul", _ufunc(np.multiply), _mul_grad, inplace=True)
DIV = Op("div", _ufunc(np.divide), _div_grad, inplace=True)
POW = Op("pow",
         lambda a, *, exponent, out=None: (_to(out, a ** exponent), None),
         lambda g, ins, y, saved, *, exponent: (
             g * exponent * ins[0].data ** (exponent - 1),))
EXP = Op("exp", _ufunc(np.exp), lambda g, ins, y, saved: (g * y,),
         inplace=True)
LOG = Op("log", _ufunc(np.log), lambda g, ins, y, saved: (g / ins[0].data,),
         inplace=True)
SQRT = Op("sqrt", _ufunc(np.sqrt), lambda g, ins, y, saved: (g * 0.5 / y,),
          inplace=True)
TANH = Op("tanh", _ufunc(np.tanh),
          lambda g, ins, y, saved: (g * (1.0 - y ** 2),), inplace=True)
RELU = Op("relu", _relu, lambda g, ins, y, mask: (g * mask,), inplace=True,
          scratch=lambda a: {"mask": (a.shape, np.dtype(bool))})
SIGMOID = Op("sigmoid", _sigmoid,
             lambda g, ins, y, saved: (g * y * (1.0 - y),))
CLIP = Op("clip", lambda a, *, low, high, out=None: (
    np.clip(a, low, high, out=out), None), _clip_grad, inplace=True)
MATMUL = Op("matmul",
            lambda a, b, *, out=None: (matmul_rows(a, b, out=out), None),
            _matmul_grad)
SUM = Op("sum", lambda a, *, axis, keepdims, out=None: (
    np.sum(a, axis=axis, keepdims=keepdims, out=out), None), _sum_grad)
MAX = Op("max", lambda a, *, axis, keepdims, out=None: (
    np.max(a, axis=axis, keepdims=keepdims, out=out), None), _max_grad)
RESHAPE = Op("reshape", lambda a, *, shape: (a.reshape(shape), None),
             lambda g, ins, y, saved, *, shape: (g.reshape(ins[0].shape),),
             view=True)
TRANSPOSE = Op("transpose", lambda a, *, axes: (a.transpose(axes), None),
               lambda g, ins, y, saved, *, axes: (
                   g.transpose(np.argsort(axes)),),
               view=True)
GETITEM = Op("getitem", lambda a, *, index: (a[index], None), _getitem_grad,
             view=True)
STACK = Op("stack", lambda *arrays, axis, out=None: (
    np.stack(arrays, axis=axis, out=out), None),
    lambda g, ins, y, saved, *, axis: tuple(
        np.squeeze(p, axis=axis) for p in np.split(g, len(ins), axis=axis)))
CONCAT = Op("concat", lambda *arrays, axis, out=None: (
    np.concatenate(arrays, axis=axis, out=out), None), _concat_grad)
