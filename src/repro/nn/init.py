"""Weight initialization schemes.

Kaiming (He) initialization for ReLU networks and Xavier (Glorot) for
linear/sigmoid heads, plus a seedable module-level RNG so experiments are
reproducible run to run (the paper averages five seeds; our harness
re-seeds per run).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_rng = np.random.default_rng(0)


def manual_seed(seed: int) -> None:
    """Re-seed the initializer RNG (and nothing else)."""
    global _rng
    _rng = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    """The RNG used by all initializers (for tests that need determinism)."""
    return _rng


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear (O, I) and conv (O, I, kh, kw)."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(shape: Tuple[int, ...], gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-normal init: std = gain / sqrt(fan_in).  Default gain is ReLU's."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return _rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(shape: Tuple[int, ...], gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-uniform init: bound = gain * sqrt(3 / fan_in)."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return _rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_uniform(shape: Tuple[int, ...], gain: float = 1.0) -> np.ndarray:
    """Glorot-uniform init: bound = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
