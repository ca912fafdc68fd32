"""Compiled inference graphs: trace → fuse → arena-plan.

The interpreted path executes a model module-by-module, materializing a
fresh array per op.  For serving that is pure overhead: the fixed
compute-width determinism contract means every forward of a registered
model version runs at one batch shape, so the whole op sequence — shapes,
dtypes, buffer sizes, conv geometries — is known ahead of time.  This
module compiles that knowledge into a flat program:

- **Trace.**  Run the folded model once at its serving width with this
  thread's :data:`repro.nn.tensor.TRACE` hook set.  Every op goes through
  the op table's one dispatch point, :func:`repro.nn.tensor.apply`, which
  reports each call as an ``(op, inputs, params)`` node.  Tensors the
  trace never saw produced (parameters, buffers, eval-mode BatchNorm
  statistics) are captured as constants, and ops whose inputs are all
  constants fold away at trace time (``weight.T`` in a linear head, the
  ``(var + eps) ** -0.5`` of an eval BatchNorm1d).
- **Fuse.**  An ``inplace`` op whose input buffer has no later readers
  writes its result *into that buffer* instead of a fresh one —
  conv→bias→ReLU chains and residual adds collapse onto the conv's GEMM
  output with zero extra traffic.
- **Arena.**  Remaining intermediate buffers, and the scratch buffers
  ops declare (conv's padded input and one row-block of im2col
  columns, relu's mask and scale, max-pool's window masks, sigmoid's
  temporaries), get
  liveness intervals and a greedy first-fit offset assignment into one
  preallocated byte arena, so steady-state serving performs no
  per-batch intermediate allocation.  Arenas are shared: every program
  whose arena has the same byte size runs in one buffer, under one
  lock (:func:`_shared_arena`).  A replay leaves nothing in its arena
  that the next replay reads, so the versions of one model at one
  width (a store after each deletion's retrain registers another)
  hold one arena between them, not one each.  The buffer is freed
  when its last program is.

Bit-identity is the hard gate.  Each node replays by calling its op's
own forward kernel, the one the interpreted path runs, with ``out=`` and
its scratch set to arena views.  :func:`compile` then *verifies* the
program against the interpreted path on a second, fresh batch — any
divergence (including data-dependent constants left behind by a
computation outside the op table) raises :class:`TraceError` and the
model falls back, with a once-per-model warning, to the interpreted
folded copy.

Public surface: :func:`compile` → :class:`CompiledModel`
(``__call__`` / ``.plan``) and :func:`prepare_for_inference`, the single
front door to a folded or compiled inference executable.
"""

from __future__ import annotations

import threading as _threading
import warnings
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import profile as _profile
from .fold import _state_fingerprint, count_foldable, shared_folded_cache
from .module import Module
from .tensor import TRACE, Op, Tensor, no_grad

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

    def __init__(self, op: Optional[Op], inputs: List[_Operand],
                 params: dict, value: np.ndarray):
        self.op = op
        self.inputs = inputs
        self.params = params
        self.shape = value.shape
        self.dtype = value.dtype
        self.value = value


class _Tracer:
    """Accumulates the op graph while the traced forward runs."""

    def __init__(self, x: Tensor):
        self.nodes: List[_TraceNode] = [_TraceNode(None, [], {}, x.data)]
        self.index_of: Dict[int, int] = {id(x): 0}
        # Strong refs to every produced tensor: without them CPython may
        # reuse a freed tensor's id() mid-trace and corrupt index_of.
        self.keepalive: List[Tensor] = [x]

    def record(self, op: Op, inputs: Tuple[Tensor, ...], params: dict,
               out: Tensor) -> None:
        """Add one op call; :func:`repro.nn.tensor.apply` calls this.

        Inputs the trace did not produce are captured as constants
        exactly as the op saw them, aliasing — not copying — their data:
        the folded model is frozen, so its parameters cannot drift
        under the plan.
        """
        operands = [self.index_of.get(id(t), t.data) for t in inputs]
        if not any(isinstance(o, int) for o in operands):
            return      # all-constant op: fold by leaving the output untracked
        self.index_of[id(out)] = len(self.nodes)
        self.nodes.append(_TraceNode(op, operands, params, out.data))
        self.keepalive.append(out)


def _trace(model: Module, x: Tensor) -> Tuple[List[_TraceNode], int]:
    """Trace ``model(x)`` into a flat node list; returns (nodes, out_idx)."""
    tracer = _Tracer(x)
    TRACE.tracer = tracer
    try:
        with no_grad():
            out = model(x)
    finally:
        TRACE.tracer = None
    if not isinstance(out, Tensor):
        raise TraceError(f"model returned {type(out).__name__}, not a Tensor")
    out_idx = tracer.index_of.get(id(out))
    if out_idx is None:
        raise TraceError("model output is not a traced function of the "
                         "input (a computation outside the op table broke "
                         "the chain)")
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

_INPUT_STORAGE = -1


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


def _nbytes(shape: Tuple[int, ...], dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _plan_storages(nodes: List[_TraceNode], out_idx: int,
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
        if node.op.view:
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

    # Pass B: merge an inplace node onto an input buffer that dies at
    # this very node.  Merging re-roots the node's own storage group, so
    # chains (conv → relu → residual-add) collapse transitively.
    end_of = dict(tentative_end)
    fused_count = 0
    for i, node in enumerate(nodes):
        if i == 0 or not node.op.inplace or storage_of[i] != i:
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
            # Another input aliasing the same bytes through a different
            # layout would read partially-overwritten data; only the
            # identical array is safe.
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


class _SharedArena:
    """One arena buffer and the lock every replay into it holds."""

    __slots__ = ("buf", "lock", "__weakref__")

    def __init__(self, nbytes: int):
        self.buf = np.empty(nbytes, dtype=np.uint8)
        self.lock = _threading.Lock()


#: Live arenas by byte size.  Weak values: an arena goes when the last
#: program holding it does.
_ARENAS: "weakref.WeakValueDictionary[int, _SharedArena]" = (
    weakref.WeakValueDictionary())
_ARENAS_LOCK = _threading.Lock()


def _shared_arena(nbytes: int) -> _SharedArena:
    """The live arena of ``nbytes`` bytes, made if there is none."""
    with _ARENAS_LOCK:
        arena = _ARENAS.get(nbytes)
        if arena is None:
            arena = _ARENAS[nbytes] = _SharedArena(nbytes)
        return arena


# ---------------------------------------------------------------------------
# Program construction (replay closures over arena views)
# ---------------------------------------------------------------------------

class GraphProgram:
    """A compiled flat program: ordered replay closures over an arena.

    The arena may be shared with other programs of the same arena size,
    so :meth:`run` must be called under :attr:`lock`.
    """

    def __init__(self, runs: List[Optional[Callable]], out_idx: int,
                 input_shape: Tuple[int, ...], shared: _SharedArena):
        self._runs = runs
        self._out = out_idx
        self.input_shape = input_shape
        self._shared = shared
        self.arena = shared.buf
        self.lock = shared.lock
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


def _replay(forward: Callable, inputs: List[_Operand],
            kwargs: dict) -> Callable:
    """One node's replay: its op's forward kernel into its arena views."""
    def run(values):
        args = [values[o] if isinstance(o, int) else o for o in inputs]
        return forward(*args, **kwargs)[0]
    return run


def _build_program(nodes: List[_TraceNode], out_idx: int,
                   storage_of: List[int],
                   end_of: Dict[int, int]) -> GraphProgram:
    arena = _Arena()
    # Root buffers in definition order, then per-node scratch (lifetime
    # exactly [i, i]) — the allocator recycles dead bytes automatically.
    offsets = {i: arena.place(_nbytes(node.shape, node.dtype), i,
                              end_of.get(i, i))
               for i, node in enumerate(nodes) if storage_of[i] == i}
    scratch: Dict[int, List[Tuple[str, int, Tuple[int, ...], Any]]] = {}
    for i, node in enumerate(nodes[1:], 1):
        args = [nodes[o].value if isinstance(o, int) else o
                for o in node.inputs]
        scratch[i] = [(name, arena.place(_nbytes(shape, dtype), i, i),
                       shape, dtype)
                      for name, (shape, dtype)
                      in node.op.scratch(*args, **node.params).items()]

    shared = _shared_arena(arena.total)
    buf = shared.buf

    def view(offset: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return buf[offset:offset + _nbytes(shape, dtype)].view(dtype).reshape(shape)

    runs: List[Optional[Callable]] = [None] * len(nodes)
    for i, node in enumerate(nodes[1:], 1):
        kwargs = dict(node.params)
        if not node.op.view:
            kwargs["out"] = view(offsets[storage_of[i]], node.shape,
                                 node.dtype)
            for name, offset, shape, dtype in scratch[i]:
                kwargs[name] = view(offset, shape, dtype)
        runs[i] = _replay(node.op.forward, node.inputs, kwargs)
    return GraphProgram(runs, out_idx, nodes[0].shape, shared)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

class CompiledModel:
    """A model compiled for one exact batch shape.

    Calls with the compiled ``(width, *input_shape)`` batch run the flat
    arena program; any other shape — and every call when compilation
    fell back — delegates to the interpreted folded model, so a
    ``CompiledModel`` is always safe to serve through.  Execution holds
    its arena's lock: the arena is single-flight, and it is shared with
    every other program whose arena has the same byte size (two
    versions of one architecture at one width, say), so those programs
    run one at a time.  ``plan["arena_bytes"]`` is the size of that
    shared buffer, not memory this model holds alone.
    """

    def __init__(self, model: Module, program: Optional[GraphProgram],
                 plan: Dict[str, Any], width: int,
                 fallback_reason: Optional[str] = None):
        self.model = model
        self.width = width
        self.plan = plan
        self.fallback_reason = fallback_reason
        self._program = program

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
        with program.lock:
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
            input_shape: Optional[Tuple[int, ...]] = None) -> CompiledModel:
    """Compile ``model`` for batches of exactly ``width`` samples.

    The model is folded first (through the shared folded cache) unless
    it already is; the folded copy is both the trace subject and the
    interpreted fallback.  ``input_shape`` is the per-sample shape —
    taken from ``model.input_shape`` when omitted.  Every plan is
    verified: a second, fresh batch is replayed through the program and
    byte-compared against the interpreted path before the plan is
    accepted.  Any failure
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
        nodes, out_idx = _prune(*_trace(folded, Tensor(batch_a)))
        storage_of, end_of, fused_count = _plan_storages(nodes, out_idx)
        program = _build_program(nodes, out_idx, storage_of, end_of)
        vrng = np.random.default_rng(0xA11CE ^ (width * 40503 % (1 << 31)))
        batch_b = vrng.standard_normal((width,) + shape, dtype=np.float32)
        with no_grad():
            ref = folded(Tensor(batch_b)).data
        # Both replays hold the shared arena's lock: another program may
        # be serving from the same buffer.  The warm run proves the
        # replay executes and leaves batch A's values in the arena, so
        # the verify run cannot pass by relying on freshly zeroed memory.
        with program.lock:
            program.run(batch_a)
            got = program.run(batch_b)
        if (got.shape != ref.shape or got.dtype != ref.dtype
                or got.tobytes() != ref.tobytes()):
            raise TraceError(
                "compiled program diverged from the interpreted path on a "
                "verification batch (likely a computation outside the op "
                "table captured as a constant)")
        plan.update(ops=len(nodes) - 1, fused=fused_count,
                    arena_bytes=int(program.arena.nbytes),
                    input_shape=list(shape))
        return CompiledModel(folded, program, plan, width)
    except Exception as exc:    # noqa: BLE001 — fallback must never fail
        _warn_fallback(folded, exc)
        return CompiledModel(folded, None, plan, width,
                             fallback_reason=f"{type(exc).__name__}: {exc}")


def prepare_for_inference(model: Module, width: Optional[int] = None,
                          input_shape: Optional[Tuple[int, ...]] = None):
    """The single front door to an inference-ready executable.

    - ``width=None``: returns the BatchNorm-folded, parameter-frozen copy
      from the shared folded cache.
    - ``width=N``: returns a :class:`CompiledModel` for that serving
      width, cached in the same shared cache under
      ``(fingerprint, width)`` so every consumer of the same weights at
      the same width shares one plan.
    """
    if width is None:
        return shared_folded_cache().get(model)
    fingerprint = _state_fingerprint(model)
    return shared_folded_cache().get(
        model, fingerprint, width=int(width),
        build=lambda m: compile(m, int(width), input_shape=input_shape))
