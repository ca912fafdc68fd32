"""Eval-time BatchNorm folding — the inference fast path.

In eval mode a :class:`~repro.nn.layers.BatchNorm2d` is a per-channel
affine map with constants taken from the running statistics:

    y = (x - mu) / sqrt(var + eps) * gamma + beta
      = x * s + (beta - mu * s),          s = gamma / sqrt(var + eps)

which folds exactly into the preceding convolution (or linear layer):
scale its output-channel weights by ``s`` and absorb the shift into the
bias.  :func:`fold_batchnorm` applies that transform to a whole model,
replacing every folded norm with :class:`~repro.nn.layers.Identity` —
``predict_logits``-heavy sweeps (STRIP, Neural Cleanse, Beatrix) then
skip the normalization pass entirely.

Folding uses running statistics, so it is only valid in eval mode;
folding a training-mode model raises.  Folded logits match the unfolded
model to float32 rounding (``atol=1e-5`` enforced for every registered
model by ``tests/nn/test_fold.py``).
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional, Tuple

import numpy as np

from .layers import BatchNorm1d, BatchNorm2d, Conv2d, Identity, Linear
from .module import Module, Parameter, Sequential
from .tensor import no_grad


def _bn_scale_shift(bn) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(scale, shift)`` of an eval-mode batch norm."""
    inv_std = 1.0 / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
    if bn.weight is not None:
        gamma = bn.weight.data.astype(np.float64)
        beta = bn.bias.data.astype(np.float64)
    else:
        gamma = np.ones_like(inv_std)
        beta = np.zeros_like(inv_std)
    scale = gamma * inv_std
    shift = beta - bn.running_mean.astype(np.float64) * scale
    return scale, shift


def _fold_into(layer: Module, bn) -> None:
    """Fold ``bn``'s scale/shift into ``layer``'s weight and bias."""
    scale, shift = _bn_scale_shift(bn)
    weight = layer.weight.data.astype(np.float64)
    # Output channels lead the weight shape for both Conv2d (O, C/g, kh,
    # kw) and Linear (out, in).
    reshape = (-1,) + (1,) * (weight.ndim - 1)
    folded_w = weight * scale.reshape(reshape)
    if layer.bias is not None:
        folded_b = layer.bias.data.astype(np.float64) * scale + shift
        layer.bias.data = folded_b.astype(layer.bias.dtype, copy=False)
    else:
        layer.bias = Parameter(shift.astype(layer.weight.dtype, copy=False),
                               requires_grad=False)
    layer.weight.data = folded_w.astype(layer.weight.dtype, copy=False)


def _foldable_pair(prev: Optional[Module], current: Module) -> bool:
    if isinstance(current, BatchNorm2d):
        return (isinstance(prev, Conv2d)
                and prev.out_channels == current.num_features)
    if isinstance(current, BatchNorm1d):
        return (isinstance(prev, Linear)
                and prev.out_features == current.num_features)
    return False


def fold_batchnorm(model: Module, inplace: bool = False) -> Module:
    """Fold every conv→BN / linear→BN pair; return the folded model.

    Walks all submodules; inside every ``Sequential`` a batch norm
    directly following a compatible conv or linear layer is folded into
    it and replaced by ``Identity``.  Only ``Sequential`` qualifies —
    its ``forward`` *guarantees* element order is execution order,
    whereas a ``ModuleList`` is just storage (parallel branches stored
    adjacently must not be folded into each other).  Norms in other
    positions are left untouched (still correct, just not accelerated).

    By default the input model is left intact and a folded deep copy is
    returned; ``inplace=True`` transforms (and returns) the model
    itself.  Raises :class:`RuntimeError` if the model is in training
    mode — folding bakes in the *running* statistics, which training
    mode does not use.
    """
    if model.training:
        raise RuntimeError(
            "fold_batchnorm requires eval mode: call model.eval() first "
            "(training mode normalizes with batch statistics, which "
            "cannot be folded)")
    if not inplace:
        model = copy.deepcopy(model)
    for module in model.modules():
        if not isinstance(module, Sequential):
            continue
        ordered = module._ordered
        for prev_name, name in zip(ordered, ordered[1:]):
            prev = getattr(module, prev_name)
            current = getattr(module, name)
            if _foldable_pair(prev, current):
                _fold_into(prev, current)
                setattr(module, name, Identity())
    return model


def count_foldable(model: Module) -> int:
    """Number of conv→BN / linear→BN pairs :func:`fold_batchnorm` would fold."""
    total = 0
    for module in model.modules():
        if not isinstance(module, Sequential):
            continue
        ordered = module._ordered
        for prev_name, name in zip(ordered, ordered[1:]):
            if _foldable_pair(getattr(module, prev_name), getattr(module, name)):
                total += 1
    return total


def _inference_copy(model: Module) -> Module:
    """Eval-mode, BN-folded, parameter-frozen deep copy.

    Never raises on a training-mode input: the *copy* is switched to
    eval first (the original model's mode is untouched).  All parameters
    of the copy get ``requires_grad=False``, so gradient-based sweeps
    (Neural Cleanse's trigger optimization) skip every weight-gradient
    GEMM while input gradients still flow.  The public route to it is
    :func:`repro.nn.prepare_for_inference`, which shares copies via the
    process cache.
    """
    frozen = copy.deepcopy(model)
    frozen.eval()
    frozen = fold_batchnorm(frozen, inplace=True)
    for param in frozen.parameters():
        param.requires_grad = False
    return frozen


def _state_fingerprint(model: Module) -> str:
    """Digest of every parameter/buffer value (cheap vs one sweep pass)."""
    digest = hashlib.sha1()
    for name, param in model.named_parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    for name, buf in model.named_buffers():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(buf).tobytes())
    return digest.hexdigest()


def state_fingerprint(model: Module) -> str:
    """Public alias of the parameter/buffer value digest.

    Two models with equal fingerprints have bit-identical parameters and
    buffers, so their folded inference copies — and every forward pass
    through them — are bit-identical too.  The serving layer leans on
    this to prove that worker-side replicas serve the same bits as the
    parent's folded copy.
    """
    return _state_fingerprint(model)


def folded_replica(factory, state, expected_fingerprint: Optional[str] = None,
                   ) -> Module:
    """Materialize a folded inference replica from a shipped state dict.

    The multi-process serving backend ships ``(factory, state_dict,
    fingerprint)`` to each worker exactly once per model version; the
    worker rebuilds the model locally (``factory()`` +
    ``load_state_dict``) and folds it.  Passing the registration-time
    ``expected_fingerprint`` makes the construction *verified*: if the
    rebuilt weights hash differently — architecture drift between
    parent and worker, a lossy serialization path — the replica is
    rejected before it can serve a single divergent bit.
    """
    model = factory()
    model.load_state_dict(state, strict=True)
    if expected_fingerprint is not None:
        actual = _state_fingerprint(model)
        if actual != expected_fingerprint:
            raise RuntimeError(
                f"rebuilt replica fingerprint {actual[:12]} does not match "
                f"the shipped fingerprint {expected_fingerprint[:12]} — the "
                f"worker-side factory does not reproduce the registered "
                f"model, so serving through it would break bit-identity")
    return _inference_copy(model)


class FoldedModelCache:
    """(fingerprint, width)-keyed LRU cache of inference executables.

    One process-wide instance (:func:`shared_folded_cache`) backs every
    consumer of folded models — the defense sweeps' per-detector
    :class:`LazyFoldedInference` handles and the serving layer's
    :class:`repro.serve.ModelStore` — so a model swept by STRIP, Neural
    Cleanse and Beatrix *and* registered for serving is folded exactly
    once.  Keys pair the value fingerprint of the source model's
    parameters/buffers with the serving width: plain folded copies live
    under ``width=None``, while width-compiled plans (see
    :mod:`repro.nn.graph`) are width-specific artifacts and must never
    collide across widths — the same weights compiled at width 1 and
    width 32 are two distinct entries.  Two identical models share one
    copy per width, and a model whose weights changed gets a fresh one
    (the stale entry ages out of the LRU).  Thread-safe; cached objects
    are frozen, so sharing one across readers is sound.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, model: Module, fingerprint: Optional[str] = None,
            width: Optional[int] = None,
            build: Optional[Callable[[Module], object]] = None):
        """Inference executable for ``model``, built once per
        (weight fingerprint, width) — up to a lost race between
        concurrent first callers.

        ``build`` constructs the cached object from the model (defaults
        to the folded-copy builder); :func:`repro.nn.graph.
        prepare_for_inference` passes a compiler here so compiled plans
        share the same cache, keyed by their width.

        The build runs *outside* the lock: one consumer folding a large
        model must not head-of-line-block every other consumer's cache
        hit.  Two threads racing on the same brand-new key may both
        build; the loser's copy is discarded and the winner's is
        returned to both, so identity stays stable.
        """
        if fingerprint is None:
            fingerprint = _state_fingerprint(model)
        key = (fingerprint, width)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        built = (build or _inference_copy)(model)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:            # lost the build race
                self._entries.move_to_end(key)
                self.hits += 1
                return existing
            self._entries[key] = built
            self.misses += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return built

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_shared_cache: Optional[FoldedModelCache] = None
_shared_cache_lock = threading.Lock()


def shared_folded_cache() -> FoldedModelCache:
    """The process-wide :class:`FoldedModelCache` singleton."""
    global _shared_cache
    with _shared_cache_lock:
        if _shared_cache is None:
            _shared_cache = FoldedModelCache()
        return _shared_cache


class LazyFoldedInference:
    """Lazily-built, staleness-aware folded inference copy of a model.

    The shared helper behind the defense sweeps' ``fold_inference``
    knob: :meth:`get` returns :func:`_inference_copy` of the bound
    model, rebuilt automatically whenever the model's parameters or
    buffers change (detected by value fingerprint, so a detector held
    across fine-tuning or a ``load_state_dict`` never sweeps stale
    weights).  With ``enabled=False`` it returns the model itself.

    ``cache`` routes copy construction through a
    :class:`FoldedModelCache` so several handles bound to the same model
    (e.g. STRIP + Neural Cleanse + Beatrix on one suspect) share a
    single folded copy instead of each building their own.
    """

    def __init__(self, model: Module, enabled: bool = True,
                 cache: Optional[FoldedModelCache] = None):
        self.model = model
        self.enabled = enabled
        self.cache = cache
        self._copy: Optional[Module] = None
        self._fingerprint: Optional[str] = None

    def get(self) -> Module:
        if not self.enabled:
            return self.model
        fingerprint = _state_fingerprint(self.model)
        if self._copy is None or fingerprint != self._fingerprint:
            if self.cache is not None:
                self._copy = self.cache.get(self.model, fingerprint)
            else:
                self._copy = _inference_copy(self.model)
            self._fingerprint = fingerprint
        return self._copy

    def invalidate(self) -> None:
        """Drop the cached copy (next :meth:`get` rebuilds)."""
        self._copy = None
        self._fingerprint = None


@contextmanager
def inference_mode(model: Module):
    """Context yielding a folded inference copy under ``no_grad``.

    Usage::

        with inference_mode(model) as fast:
            logits = fast(nn.Tensor(images)).data

    The defense sweeps (STRIP / Neural Cleanse / Beatrix) route their
    thousands of forward passes through this fast path.
    """
    frozen = _inference_copy(model)
    with no_grad():
        yield frozen
