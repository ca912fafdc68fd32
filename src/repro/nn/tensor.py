"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the from-scratch deep-learning substrate
used by the ReVeil reproduction (the paper used PyTorch; this environment
has none, so we build the equivalent).  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it on a tape (the
``_parents`` / ``_backward`` fields).  Calling :meth:`Tensor.backward` on a
scalar output walks the tape in reverse topological order and accumulates
gradients into every tensor created with ``requires_grad=True``.

Only the operator set required by the reproduction is implemented, but each
op supports full numpy broadcasting where it makes sense.  Heavier
structured ops (convolution, pooling, fused losses) live in
:mod:`repro.nn.functional`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

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
        other = ensure_tensor(other)
        a, b = self, other
        data = a.data + b.data

        def backward(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return Tensor._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        a, b = self, other
        data = a.data * b.data

        def backward(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
            return (ga, gb)

        return Tensor._make(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        a, b = self, other
        data = a.data / b.data

        def backward(g):
            ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(-g * a.data / (b.data ** 2), b.shape) if b.requires_grad else None
            return (ga, gb)

        return Tensor._make(data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        data = a.data ** exponent

        def backward(g):
            return (g * exponent * a.data ** (exponent - 1),)

        return Tensor._make(data, (a,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product.  Supports 2-D @ 2-D and batched (...,m,k)@(k,n).

        Row-invariant (see :func:`matmul_rows`) in every grad mode.
        """
        other = ensure_tensor(other)
        a, b = self, other
        data = matmul_rows(a.data, b.data)

        def backward(g):
            ga = gb = None
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                ga = _unbroadcast(ga, a.shape)
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                gb = _unbroadcast(gb, b.shape)
            return (ga, gb)

        return Tensor._make(data, (a, b), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.shape
        data = a.data.reshape(shape)

        def backward(g):
            return (g.reshape(old_shape),)

        return Tensor._make(data, (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes_t = tuple(reversed(range(a.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        inverse = np.argsort(axes_t)
        data = a.data.transpose(axes_t)

        def backward(g):
            return (g.transpose(inverse),)

        return Tensor._make(data, (a,), backward)

    def __getitem__(self, index) -> "Tensor":
        a = self
        data = a.data[index]

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            return (full,)

        return Tensor._make(data, (a,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten dims from ``start_dim`` onward (mirrors torch.flatten)."""
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).astype(a.dtype),)
            g_expanded = g
            if not keepdims:
                g_expanded = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g_expanded, a.shape).astype(a.dtype),)

        return Tensor._make(data, (a,), backward)

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
        a = self
        data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            expanded = data
            g_expanded = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(data, axis=axis)
                g_expanded = np.expand_dims(g, axis=axis)
            mask = (a.data == expanded)
            # Distribute gradient evenly over ties.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return ((mask * g_expanded / counts).astype(a.dtype),)

        return Tensor._make(data, (a,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)

        def backward(g):
            return (g * data,)

        return Tensor._make(data, (a,), backward)

    def log(self) -> "Tensor":
        a = self
        data = np.log(a.data)

        def backward(g):
            return (g / a.data,)

        return Tensor._make(data, (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)

        def backward(g):
            return (g * 0.5 / data,)

        return Tensor._make(data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        data = a.data * mask

        def backward(g):
            return (g * mask,)

        return Tensor._make(data, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        # Numerically stable logistic.
        data = np.where(a.data >= 0,
                        1.0 / (1.0 + np.exp(-np.clip(a.data, -60, 60))),
                        np.exp(np.clip(a.data, -60, 60)) / (1.0 + np.exp(np.clip(a.data, -60, 60))))
        data = data.astype(a.dtype)

        def backward(g):
            return (g * data * (1.0 - data),)

        return Tensor._make(data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)

        def backward(g):
            return (g * (1.0 - data ** 2),)

        return Tensor._make(data, (a,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        a = self
        data = np.clip(a.data, low, high)
        mask = (a.data >= low) & (a.data <= high)

        def backward(g):
            return (g * mask,)

        return Tensor._make(data, (a,), backward)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Coerce scalars/arrays to (non-grad) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(data, tuple(tensors), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(tensors)):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return Tensor._make(data, tuple(tensors), backward)
