"""Compiled inference graphs: trace → fuse → arena-plan.

The interpreted path executes a model module-by-module, materializing a
fresh array per op.  For serving that is pure overhead: the fixed
compute-width determinism contract means every forward of a registered
model version runs at one batch shape, so the whole op sequence — shapes,
dtypes, buffer sizes, conv geometries — is known ahead of time.  This
module compiles that knowledge into a flat program:

- **Trace.**  Run the folded model once at its serving width with the
  ``Tensor`` primitive methods and :mod:`repro.nn.functional` kernels
  temporarily wrapped by recording shims.  Every op lands in a flat node
  list; tensors the trace never saw produced (parameters, buffers,
  eval-mode BatchNorm statistics) are captured as constants, and ops
  whose inputs are all constants fold away at trace time (``weight.T``
  in a linear head, the ``(var + eps) ** -0.5`` of an eval BatchNorm1d).
- **Fuse.**  An elementwise node whose input buffer has no later
  readers writes its result *into that buffer* instead of a fresh one —
  conv→bias→ReLU chains and residual adds collapse onto the conv's GEMM
  output with zero extra traffic.  ``fused=False`` disables the reuse
  (every node gets its own buffer) for A/B testing.
- **Arena.**  Remaining intermediate buffers get liveness intervals and
  a greedy first-fit offset assignment into one preallocated byte arena,
  so steady-state serving performs no per-batch intermediate
  allocation.

Bit-identity is the hard gate: each node replays the *exact* numpy
expression the interpreted path runs (``relu`` is greater+multiply so
negative zeros keep their sign, max-pool runs the interpreted path's
own kernel with ``out=`` set to its arena buffer, conv runs its GEMM
kernel :func:`repro.nn.functional._conv_gemm` with the same shape-only
row-blocks, rare ops re-run the original interpreted function into the
arena).  :func:`compile` then *verifies* the program against the
interpreted path on a second, fresh batch — any divergence (including
data-dependent constants left behind by an untraceable op) raises
:class:`TraceError` and the model falls back, with a once-per-model
warning, to the interpreted folded copy.

Public surface: :func:`compile` → :class:`CompiledModel`
(``__call__`` / ``.plan``) and :func:`prepare_for_inference`, the single
front door to a folded or compiled inference executable.
"""

from __future__ import annotations

import threading as _threading
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import profile as _profile
from . import functional as F
from .fold import _state_fingerprint, count_foldable, shared_folded_cache
from .module import Module
from .tensor import Tensor, ensure_tensor, matmul_rows, no_grad

#: Arena offsets are aligned to this many bytes (cache-line friendly).
_ALIGN = 64


class TraceError(RuntimeError):
    """The model could not be traced (or the trace failed verification).

    :func:`compile` never lets this escape — it falls back to the
    interpreted path and warns once — but the error is preserved as
    :attr:`CompiledModel.fallback_reason` for diagnostics.
    """


# ---------------------------------------------------------------------------
# Trace-time structures
# ---------------------------------------------------------------------------

#: A node input: an int (producing node index) or a captured constant array.
_Operand = Union[int, np.ndarray]


class _TraceNode:
    __slots__ = ("op", "inputs", "params", "shape", "dtype", "value")

    def __init__(self, op: str, inputs: List[_Operand], params: dict,
                 value: np.ndarray):
        self.op = op
        self.inputs = inputs
        self.params = params
        self.shape = value.shape
        self.dtype = value.dtype
        self.value = value


class _Tracer:
    """Accumulates the op graph while the wrapped forward runs."""

    def __init__(self):
        self.nodes: List[_TraceNode] = []
        self.index_of: Dict[int, int] = {}
        # Strong refs to every produced tensor: without them CPython may
        # reuse a freed tensor's id() mid-trace and corrupt index_of.
        self.keepalive: List[Tensor] = []

    def begin(self, x: Tensor) -> None:
        self.nodes.append(_TraceNode("input", [], {}, x.data))
        self.index_of[id(x)] = 0
        self.keepalive.append(x)

    def operand(self, value: Any) -> _Operand:
        """Node index for traced tensors; captured array for constants.

        Constants are captured exactly as the interpreted op sees them
        (``ensure_tensor`` coerces python scalars to float32 0-d
        arrays), aliasing — not copying — tensor data: the folded model
        is frozen, so its parameters cannot drift under the plan.
        """
        if isinstance(value, Tensor):
            idx = self.index_of.get(id(value))
            if idx is not None:
                return idx
            return value.data
        return ensure_tensor(value).data

    def record(self, op: str, inputs: List[_Operand], out: Tensor,
               **params) -> None:
        if not any(isinstance(i, int) for i in inputs):
            return      # all-constant op: fold by leaving the output untracked
        self.index_of[id(out)] = len(self.nodes)
        self.nodes.append(_TraceNode(op, inputs, params, out.data))
        self.keepalive.append(out)


_TLS = _threading.local()


def _tracer() -> Optional[_Tracer]:
    return getattr(_TLS, "tracer", None)


# ---------------------------------------------------------------------------
# Recording wrappers
# ---------------------------------------------------------------------------

def _sum_args(args, kwargs):
    axis = kwargs.get("axis", args[0] if len(args) > 0 else None)
    keepdims = kwargs.get("keepdims", args[1] if len(args) > 1 else False)
    return axis, keepdims


def _record_binary(op):
    def rec(tr, orig, self, args, kwargs, out):
        tr.record(op, [tr.operand(self), tr.operand(args[0])], out)
    return rec


def _record_unary(op):
    def rec(tr, orig, self, args, kwargs, out):
        tr.record(op, [tr.operand(self)], out)
    return rec


def _record_opaque_method(op):
    """Replay by re-running the original Tensor method (rare ops)."""
    def rec(tr, orig, self, args, kwargs, out):
        tr.record(op, [tr.operand(self)], out,
                  orig=orig, args=args, kwargs=kwargs)
    return rec


def _rec_reshape(tr, orig, self, args, kwargs, out):
    tr.record("reshape", [tr.operand(self)], out, shape=out.data.shape)


def _rec_transpose(tr, orig, self, args, kwargs, out):
    if not args:
        axes = tuple(reversed(range(self.ndim)))
    elif len(args) == 1 and isinstance(args[0], (tuple, list)):
        axes = tuple(args[0])
    else:
        axes = tuple(args)
    tr.record("transpose", [tr.operand(self)], out, axes=axes)


def _rec_getitem(tr, orig, self, args, kwargs, out):
    tr.record("getitem", [tr.operand(self)], out, index=args[0])


def _rec_sum(tr, orig, self, args, kwargs, out):
    axis, keepdims = _sum_args(args, kwargs)
    tr.record("sum", [tr.operand(self)], out, axis=axis, keepdims=keepdims)


def _rec_clip(tr, orig, self, args, kwargs, out):
    low = kwargs.get("low", args[0] if len(args) > 0 else None)
    high = kwargs.get("high", args[1] if len(args) > 1 else None)
    tr.record("clip", [tr.operand(self)], out, low=low, high=high)


#: Tensor methods wrapped during a trace → recorder.
_TENSOR_RECORDERS = {
    "__add__": _record_binary("add"),
    "__radd__": _record_binary("add"),
    "__mul__": _record_binary("mul"),
    "__rmul__": _record_binary("mul"),
    "__truediv__": _record_binary("div"),
    "matmul": _record_binary("matmul"),
    "__matmul__": _record_binary("matmul"),
    "__neg__": _record_unary("neg"),
    "exp": _record_unary("exp"),
    "log": _record_unary("log"),
    "sqrt": _record_unary("sqrt"),
    "tanh": _record_unary("tanh"),
    "relu": _record_unary("relu"),
    "sigmoid": _record_opaque_method("sigmoid"),
    "__pow__": _record_opaque_method("pow"),
    "max": _record_opaque_method("max"),
    "reshape": _rec_reshape,
    "transpose": _rec_transpose,
    "__getitem__": _rec_getitem,
    "sum": _rec_sum,
    "clip": _rec_clip,
}


def _rec_conv2d(tr, orig, args, kwargs, out):
    x = args[0]
    src = tr.operand(x)
    if not isinstance(src, int):
        return
    weight = args[1]
    bias = kwargs.get("bias", args[2] if len(args) > 2 else None)
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    tr.record("conv2d", [src], out,
              weight=weight.data,
              bias=None if bias is None else bias.data,
              stride=stride, padding=padding, groups=int(groups),
              in_shape=x.shape)


def _rec_max_pool2d(tr, orig, args, kwargs, out):
    src = tr.operand(args[0])
    if not isinstance(src, int):
        return
    kernel = kwargs.get("kernel_size", args[1] if len(args) > 1 else 2)
    tr.record("max_pool2d", [src], out, kernel=kernel,
              in_shape=args[0].shape)


def _rec_avg_pool2d(tr, orig, args, kwargs, out):
    src = tr.operand(args[0])
    if not isinstance(src, int):
        return
    kernel = kwargs.get("kernel_size", args[1] if len(args) > 1 else 2)
    tr.record("avg_pool2d", [src], out, kernel=kernel,
              in_shape=args[0].shape)


def _rec_pad2d(tr, orig, args, kwargs, out):
    src = tr.operand(args[0])
    if not isinstance(src, int):
        return
    padding = kwargs.get("padding", args[1])
    tr.record("pad2d", [src], out, padding=padding, in_shape=args[0].shape)


def _rec_batch_norm(tr, orig, args, kwargs, out):
    src = tr.operand(args[0])
    if not isinstance(src, int):
        return
    training = kwargs.get("training", args[5] if len(args) > 5 else False)
    if training:
        raise TraceError("cannot compile a training-mode batch_norm; "
                         "call model.eval() before compiling")
    tr.record("batch_norm", [src], out, orig=orig,
              args=args[1:], kwargs=kwargs)


_FUNCTIONAL_RECORDERS = {
    "conv2d": _rec_conv2d,
    "max_pool2d": _rec_max_pool2d,
    "avg_pool2d": _rec_avg_pool2d,
    "pad2d": _rec_pad2d,
    "batch_norm": _rec_batch_norm,
}


class _Patcher:
    """Temporarily installs recording wrappers on ``Tensor`` and ``F``.

    Wrappers call the original (so the traced forward computes real
    values) and record only when *this thread* owns the active tracer —
    concurrent interpreted forwards on other threads pass straight
    through.  Always used under :data:`_COMPILE_LOCK`.
    """

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self):
        for name, rec in _TENSOR_RECORDERS.items():
            orig = getattr(Tensor, name)
            self._saved.append((Tensor, name, orig))
            setattr(Tensor, name, self._wrap_method(orig, rec))
        for name, rec in _FUNCTIONAL_RECORDERS.items():
            orig = getattr(F, name)
            self._saved.append((F, name, orig))
            setattr(F, name, self._wrap_function(orig, rec))
        return self

    def __exit__(self, *exc):
        for holder, name, orig in reversed(self._saved):
            setattr(holder, name, orig)
        self._saved.clear()

    @staticmethod
    def _wrap_method(orig, rec):
        def wrapped(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            tr = _tracer()
            if tr is not None and isinstance(out, Tensor):
                rec(tr, orig, self, args, kwargs, out)
            return out
        wrapped.__name__ = getattr(orig, "__name__", "wrapped")
        return wrapped

    @staticmethod
    def _wrap_function(orig, rec):
        def wrapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            tr = _tracer()
            if tr is not None and isinstance(out, Tensor):
                rec(tr, orig, args, kwargs, out)
            return out
        wrapped.__name__ = getattr(orig, "__name__", "wrapped")
        return wrapped


_COMPILE_LOCK = _threading.Lock()


def _trace(model: Module, x: Tensor) -> Tuple[List[_TraceNode], int]:
    """Trace ``model(x)`` into a flat node list; returns (nodes, out_idx)."""
    tracer = _Tracer()
    tracer.begin(x)
    _TLS.tracer = tracer
    try:
        with _Patcher():
            with no_grad():
                out = model(x)
    finally:
        _TLS.tracer = None
    if not isinstance(out, Tensor):
        raise TraceError(f"model returned {type(out).__name__}, not a Tensor")
    out_idx = tracer.index_of.get(id(out))
    if out_idx is None:
        raise TraceError("model output is not a traced function of the "
                         "input (an untraceable op broke the chain)")
    return tracer.nodes, out_idx


def _prune(nodes: List[_TraceNode], out_idx: int) -> Tuple[List[_TraceNode], int]:
    """Drop nodes unreachable from the output (keeps trace order)."""
    reachable = {out_idx}
    stack = [out_idx]
    while stack:
        for operand in nodes[stack.pop()].inputs:
            if isinstance(operand, int) and operand not in reachable:
                reachable.add(operand)
                stack.append(operand)
    reachable.add(0)
    remap: Dict[int, int] = {}
    kept: List[_TraceNode] = []
    for i, node in enumerate(nodes):
        if i not in reachable:
            continue
        remap[i] = len(kept)
        kept.append(node)
    for node in kept:
        node.inputs = [remap[op] if isinstance(op, int) else op
                       for op in node.inputs]
    return kept, remap[out_idx]


# ---------------------------------------------------------------------------
# Planning: storages, fusion, arena
# ---------------------------------------------------------------------------

_VIEW_OPS = {"reshape", "transpose", "getitem"}
_ELEMENTWISE_UFUNCS = {"add": np.add, "mul": np.multiply, "div": np.divide,
                       "neg": np.negative, "exp": np.exp, "log": np.log,
                       "sqrt": np.sqrt, "tanh": np.tanh}
#: Ops whose replay is an aligned elementwise write — safe to run with
#: ``out=`` aliasing a same-shaped input buffer.
_INPLACE_OK = set(_ELEMENTWISE_UFUNCS) | {"clip", "relu"}
_INPUT_STORAGE = -1


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


def _conv_geom(node: _TraceNode) -> tuple:
    n, c, h, w = node.params["in_shape"]
    o, cpg, kh, kw = node.params["weight"].shape
    sh, sw = F._pair(node.params["stride"])
    ph, pw = F._pair(node.params["padding"])
    return (c, h, w, kh, kw, sh, sw, ph, pw)


def _plan_storages(nodes: List[_TraceNode], out_idx: int, fused: bool,
                   ) -> Tuple[List[int], Dict[int, int], int]:
    """Assign a storage root to every node; merge in-place-safe chains.

    Returns ``(storage_of, end_of, fused_count)`` where ``storage_of[i]``
    is the root node index owning node *i*'s bytes (or
    :data:`_INPUT_STORAGE`), and ``end_of[root]`` the last node index
    reading that storage.
    """
    storage_of: List[int] = [0] * len(nodes)
    storage_of[0] = _INPUT_STORAGE

    # Pass A: storages without fusion (views share their base's root),
    # and per-root last-use from the consumer lists.
    for i, node in enumerate(nodes):
        if i == 0:
            continue
        if node.op in _VIEW_OPS:
            storage_of[i] = storage_of[node.inputs[0]]
        else:
            storage_of[i] = i
    tentative_end: Dict[int, int] = {}
    for i, node in enumerate(nodes):
        for operand in node.inputs:
            if isinstance(operand, int):
                root = storage_of[operand]
                if root != _INPUT_STORAGE:
                    tentative_end[root] = i

    # Pass B: merge an elementwise node onto an input buffer that dies at
    # this very node.  Merging re-roots the node's own storage group, so
    # chains (conv → relu → residual-add) collapse transitively.
    end_of = dict(tentative_end)
    fused_count = 0
    if fused:
        for i, node in enumerate(nodes):
            if node.op not in _INPLACE_OK or storage_of[i] != i:
                continue
            for operand in node.inputs:
                if not isinstance(operand, int):
                    continue
                root = storage_of[operand]
                src = nodes[operand]
                if (root == _INPUT_STORAGE
                        or src.shape != node.shape
                        or src.dtype != node.dtype
                        or end_of.get(root) != i):
                    continue
                # Another input aliasing the same bytes through a
                # different layout would read partially-overwritten
                # data; only the identical array is safe.
                conflict = any(
                    isinstance(other, int) and other != operand
                    and storage_of[other] == root
                    for other in node.inputs)
                if conflict:
                    continue
                old_end = end_of.pop(i, i)
                end_of[root] = max(end_of.get(root, i), old_end)
                storage_of = [root if s == i else s for s in storage_of]
                fused_count += 1
                break

    out_root = storage_of[out_idx]
    if out_root != _INPUT_STORAGE:
        end_of[out_root] = len(nodes)
    return storage_of, end_of, fused_count


class _Arena:
    """Greedy first-fit offset assignment over liveness intervals."""

    def __init__(self):
        self._placed: List[Tuple[int, int, int, int]] = []  # off, size, s, e
        self.total = 0

    def place(self, nbytes: int, start: int, end: int) -> int:
        size = _aligned(max(nbytes, 1))
        live = sorted((off, sz) for off, sz, s, e in self._placed
                      if not (e < start or s > end))
        offset = 0
        for off, sz in live:
            if offset + size <= off:
                break
            offset = max(offset, off + sz)
        self._placed.append((offset, size, start, end))
        self.total = max(self.total, offset + size)
        return offset


# ---------------------------------------------------------------------------
# Program construction (replay closures over arena views)
# ---------------------------------------------------------------------------

class GraphProgram:
    """A compiled flat program: ordered replay closures over one arena."""

    def __init__(self, runs: List[Optional[Callable]], out_idx: int,
                 input_shape: Tuple[int, ...], arena: np.ndarray):
        self._runs = runs
        self._out = out_idx
        self.input_shape = input_shape
        self.arena = arena
        self._values: List[Optional[np.ndarray]] = [None] * len(runs)

    def run(self, batch: np.ndarray) -> np.ndarray:
        values = self._values
        values[0] = batch
        runs = self._runs
        for i in range(1, len(runs)):
            values[i] = runs[i](values)
        out = values[self._out].copy()
        for i in range(len(values)):
            values[i] = None
        return out


def _resolve(operand: _Operand, values: list) -> np.ndarray:
    return values[operand] if isinstance(operand, int) else operand


def _build_program(nodes: List[_TraceNode], out_idx: int,
                   storage_of: List[int],
                   end_of: Dict[int, int]) -> GraphProgram:
    arena = _Arena()
    offsets: Dict[int, int] = {}
    # Root buffers in definition order, then per-node scratch (lifetime
    # exactly [i, i]) — the allocator recycles dead bytes automatically.
    for i, node in enumerate(nodes):
        root = storage_of[i]
        if root == i:
            nbytes = int(np.prod(node.shape, dtype=np.int64)
                         * node.dtype.itemsize)
            offsets[i] = arena.place(nbytes, i, end_of.get(i, i))

    scratch_specs: Dict[int, List[Tuple[Tuple[int, ...], np.dtype]]] = {}
    for i, node in enumerate(nodes):
        specs: List[Tuple[Tuple[int, ...], np.dtype]] = []
        if node.op == "relu":
            specs.append((node.shape, np.dtype(bool)))
        elif node.op == "conv2d":
            geom = _conv_geom(node)
            c, h, w, kh, kw, sh, sw, ph, pw = geom
            n = node.params["in_shape"][0]
            if ph or pw:
                specs.append(((n, c, h + 2 * ph, w + 2 * pw),
                              np.dtype(np.float32)))
            key = (geom[0], geom[1], geom[2], kh, kw, sh, sw, ph, pw)
            _, _, _, out_h, out_w = F._cached_indices(key)
            specs.append(((n, c, kh, kw, out_h, out_w), np.dtype(np.float32)))
        if specs:
            scratch_specs[i] = specs
    scratch_offsets: Dict[int, List[int]] = {}
    for i, specs in scratch_specs.items():
        scratch_offsets[i] = [
            arena.place(int(np.prod(shape, dtype=np.int64) * dtype.itemsize),
                        i, i)
            for shape, dtype in specs]

    buf = np.empty(arena.total, dtype=np.uint8)

    def view(offset: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        nbytes = int(np.prod(shape, dtype=np.int64) * np.dtype(dtype).itemsize)
        return buf[offset:offset + nbytes].view(dtype).reshape(shape)

    def out_array(i: int) -> np.ndarray:
        return view(offsets[storage_of[i]], nodes[i].shape, nodes[i].dtype)

    def scratch_arrays(i: int) -> List[np.ndarray]:
        return [view(off, shape, dtype)
                for off, (shape, dtype) in zip(scratch_offsets[i],
                                               scratch_specs[i])]

    runs: List[Optional[Callable]] = [None] * len(nodes)
    for i, node in enumerate(nodes):
        if i == 0:
            continue
        runs[i] = _build_node(node, i, out_array, scratch_arrays)

    return GraphProgram(runs, out_idx, nodes[0].shape, buf)


def _build_node(node: _TraceNode, i: int, out_array,
                scratch_arrays) -> Callable:
    op, inputs, params = node.op, tuple(node.inputs), node.params

    if op in _VIEW_OPS:
        src = inputs[0]
        if op == "reshape":
            shape = params["shape"]
            return lambda values: values[src].reshape(shape)
        if op == "transpose":
            axes = params["axes"]
            return lambda values: values[src].transpose(axes)
        index = params["index"]
        return lambda values: values[src][index]

    out = out_array(i)

    if op in _ELEMENTWISE_UFUNCS:
        ufunc = _ELEMENTWISE_UFUNCS[op]
        if len(inputs) == 1:
            a = inputs[0]

            def run(values):
                ufunc(_resolve(a, values), out=out)
                return out
            return run
        a, b = inputs

        def run(values):
            ufunc(_resolve(a, values), _resolve(b, values), out=out)
            return out
        return run

    if op == "relu":
        a = inputs[0]
        (mask,) = scratch_arrays(i)

        def run(values):
            x = _resolve(a, values)
            np.greater(x, 0, out=mask)
            np.multiply(x, mask, out=out)
            return out
        return run

    if op == "clip":
        a, low, high = inputs[0], params["low"], params["high"]

        def run(values):
            np.clip(_resolve(a, values), low, high, out=out)
            return out
        return run

    if op == "sum":
        a, axis, keepdims = inputs[0], params["axis"], params["keepdims"]

        def run(values):
            np.sum(_resolve(a, values), axis=axis, keepdims=keepdims, out=out)
            return out
        return run

    if op == "matmul":
        a, b = inputs

        def run(values):
            matmul_rows(_resolve(a, values), _resolve(b, values), out=out)
            return out
        return run

    if op in ("sigmoid", "pow", "max"):
        a = inputs[0]
        orig, args, kwargs = params["orig"], params["args"], params["kwargs"]

        def run(values):
            res = orig(Tensor(_resolve(a, values)), *args, **kwargs)
            np.copyto(out, res.data)
            return out
        return run

    if op == "batch_norm":
        a = inputs[0]
        orig, args, kwargs = params["orig"], params["args"], params["kwargs"]

        def run(values):
            res = orig(Tensor(_resolve(a, values)), *args, **kwargs)
            np.copyto(out, res.data)
            return out
        return run

    if op == "pad2d":
        a = inputs[0]
        ph, pw = F._pair(params["padding"])
        _, _, h, w = params["in_shape"]
        interior = out[:, :, ph:ph + h, pw:pw + w]

        def run(values):
            out.fill(0.0)
            np.copyto(interior, _resolve(a, values))
            return out
        return run

    if op == "avg_pool2d":
        a = inputs[0]
        n, c, h, w = params["in_shape"]
        kh, kw = F._pair(params["kernel"])
        oh, ow = h // kh, w // kw

        def run(values):
            x = _resolve(a, values)
            np.mean(x.reshape(n, c, oh, kh, ow, kw), axis=(3, 5), out=out)
            return out
        return run

    if op == "max_pool2d":
        a = inputs[0]
        kh, kw = F._pair(params["kernel"])

        def run(values):
            F._max_pool_select(_resolve(a, values), kh, kw, out=out)
            return out
        return run

    if op == "conv2d":
        return _build_conv(node, i, out, scratch_arrays)

    raise TraceError(f"no replay rule for traced op {op!r}")


def _build_conv(node: _TraceNode, i: int, out: np.ndarray,
                scratch_arrays) -> Callable:
    params = node.params
    a = node.inputs[0]
    n, c, h, w = params["in_shape"]
    weight, bias = params["weight"], params["bias"]
    groups = params["groups"]
    geom = _conv_geom(node)
    _, _, _, kh, kw, sh, sw, ph, pw = geom
    _, _, _, out_h, out_w = F._cached_indices(geom)
    o = weight.shape[0]
    loc = out_h * out_w
    kdim = (c // groups) * kh * kw
    w_g = weight.reshape(groups, o // groups, kdim)
    bias_r = None if bias is None else bias.reshape(1, o, 1, 1)

    scratch = scratch_arrays(i)
    pad_buf = scratch[0] if (ph or pw) else None
    cols6 = scratch[-1]
    cols_g = cols6.reshape(n, groups, kdim, loc)
    gemm = out.reshape(n, groups, o // groups, loc)

    def run(values):
        x = _resolve(a, values)
        if pad_buf is not None:
            pad_buf.fill(0.0)
            np.copyto(pad_buf[:, :, ph:ph + h, pw:pw + w], x)
            xp = pad_buf
        else:
            xp = x
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
        np.copyto(cols6, windows.transpose(0, 1, 4, 5, 2, 3))
        F._conv_gemm(w_g, cols_g, gemm)
        if bias_r is not None:     # out is already (n, o, out_h, out_w)
            np.add(out, bias_r, out=out)
        return out
    return run


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

class CompiledModel:
    """A model compiled for one exact batch shape.

    Calls with the compiled ``(width, *input_shape)`` batch run the flat
    arena program; any other shape — and every call when compilation
    fell back — delegates to the interpreted folded model, so a
    ``CompiledModel`` is always safe to serve through.  Execution holds
    a per-instance lock (the arena is single-flight); the serving layer
    runs one batch at a time per model anyway.
    """

    def __init__(self, model: Module, program: Optional[GraphProgram],
                 plan: Dict[str, Any], width: int,
                 fallback_reason: Optional[str] = None):
        self.model = model
        self.width = width
        self.plan = plan
        self.fallback_reason = fallback_reason
        self._program = program
        self._lock = _threading.Lock()

    @property
    def compiled(self) -> bool:
        return self._program is not None

    def __call__(self, x) -> Tensor:
        tensor_in = isinstance(x, Tensor)
        arr = x.data if tensor_in else np.asarray(x, dtype=np.float32)
        program = self._program
        if program is None or arr.shape != ((self.width,)
                                            + program.input_shape[1:]):
            return self.model(x if tensor_in else Tensor(arr))
        _prof = _profile.ACTIVE
        token = _prof.start("compiled.forward") if _prof is not None else None
        with self._lock:
            out = program.run(np.ascontiguousarray(arr, dtype=np.float32))
        if _prof is not None:
            _prof.stop(token)
        return Tensor(out)

    def __repr__(self) -> str:
        state = "compiled" if self.compiled else "fallback"
        return (f"CompiledModel(width={self.width}, {state}, "
                f"ops={self.plan.get('ops', 0)}, "
                f"fused={self.plan.get('fused', 0)}, "
                f"arena_bytes={self.plan.get('arena_bytes', 0)})")


_FALLBACK_WARNED: set = set()
_WARN_LOCK = _threading.Lock()


def _warn_fallback(model: Module, exc: Exception) -> None:
    key = (type(model).__name__, type(exc).__name__)
    with _WARN_LOCK:
        if key in _FALLBACK_WARNED:
            return
        _FALLBACK_WARNED.add(key)
    warnings.warn(
        f"repro.nn.compile fell back to the interpreted path for "
        f"{type(model).__name__}: {exc}", RuntimeWarning, stacklevel=3)


def _guess_input_shape(model: Module) -> Optional[Tuple[int, ...]]:
    shape = getattr(model, "input_shape", None)
    if shape:
        return tuple(int(s) for s in shape)
    return None


def _folded_for(model: Module) -> Module:
    """The interpreted reference: a folded frozen copy (shared cache)."""
    if getattr(model, "training", False) or count_foldable(model):
        return shared_folded_cache().get(model)
    return model


def compile(model: Module, width: int, *,
            input_shape: Optional[Tuple[int, ...]] = None,
            fused: bool = True, verify: bool = True) -> CompiledModel:
    """Compile ``model`` for batches of exactly ``width`` samples.

    The model is folded first (through the shared folded cache) unless
    it already is; the folded copy is both the trace subject and the
    interpreted fallback.  ``input_shape`` is the per-sample shape —
    taken from ``model.input_shape`` when omitted.  ``verify=True``
    replays a second, fresh batch through the program and byte-compares
    against the interpreted path before accepting the plan.  Any failure
    returns a fallback :class:`CompiledModel` (interpreted path,
    ``compiled=False``) and warns once per model class and failure kind.
    """
    width = int(width)
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    folded = _folded_for(model)
    # ``tuned`` is always empty: conv row-blocks are shape-only, so no
    # block table exists.  The key stays only because the repo
    # benchmark's ``perfbench/measure.py`` still reads ``plan["tuned"]``.
    plan: Dict[str, Any] = {"ops": 0, "fused": 0, "arena_bytes": 0,
                            "tuned": {}, "width": width, "input_shape": None}
    try:
        shape = input_shape or _guess_input_shape(folded)
        if shape is None:
            raise TraceError(
                "input_shape is required (pass input_shape= or set "
                "model.input_shape)")
        shape = tuple(int(s) for s in shape)
        rng = np.random.default_rng(0x5EED ^ (width * 2654435761 % (1 << 31)))
        batch_a = rng.standard_normal((width,) + shape,
                                      dtype=np.float32)
        with _COMPILE_LOCK:
            nodes, out_idx = _trace(folded, Tensor(batch_a))
        nodes, out_idx = _prune(nodes, out_idx)
        storage_of, end_of, fused_count = _plan_storages(nodes, out_idx, fused)
        program = _build_program(nodes, out_idx, storage_of, end_of)
        # Warm run: proves the replay executes, and leaves this batch's
        # values in the arena, so the verify replay below cannot pass by
        # relying on freshly zeroed memory.
        program.run(batch_a)
        if verify:
            vrng = np.random.default_rng(
                0xA11CE ^ (width * 40503 % (1 << 31)))
            batch_b = vrng.standard_normal((width,) + shape, dtype=np.float32)
            with no_grad():
                ref = folded(Tensor(batch_b)).data
            got = program.run(batch_b)
            if (got.shape != ref.shape or got.dtype != ref.dtype
                    or got.tobytes() != ref.tobytes()):
                raise TraceError(
                    "compiled program diverged from the interpreted path "
                    "on a verification batch (likely an untraceable op "
                    "captured as a constant)")
        plan.update(ops=len(nodes) - 1, fused=fused_count,
                    arena_bytes=int(program.arena.nbytes),
                    input_shape=list(shape))
        return CompiledModel(folded, program, plan, width)
    except Exception as exc:    # noqa: BLE001 — fallback must never fail
        _warn_fallback(folded, exc)
        return CompiledModel(folded, None, plan, width,
                             fallback_reason=f"{type(exc).__name__}: {exc}")


def prepare_for_inference(model: Module, width: Optional[int] = None,
                          compile: bool = True,
                          input_shape: Optional[Tuple[int, ...]] = None):
    """The single front door to an inference-ready executable.

    - ``width=None`` (or ``compile=False``): returns the BatchNorm-
      folded, parameter-frozen copy from the shared folded cache.
    - ``width=N`` with ``compile=True``: returns a
      :class:`CompiledModel` for that serving width, cached in the same
      shared cache under ``(fingerprint, width)`` so every consumer of
      the same weights at the same width shares one plan.
    """
    if width is None or not compile:
        return shared_folded_cache().get(model)
    fingerprint = _state_fingerprint(model)
    compile_fn = globals()["compile"]
    return shared_folded_cache().get(
        model, fingerprint, width=int(width),
        build=lambda m: compile_fn(m, int(width), input_shape=input_shape))
