"""Deterministic jittered exponential backoff (the one shared copy).

The HTTP client's connection-reset retry
(:class:`repro.serve.client.ServingClient`) backs off through this
function.  The jitter factor is hashed from ``(token, attempt)``
instead of drawn from a global RNG, so

- a retry schedule never perturbs any seeded randomness the workload
  owns,
- two runs of the same workload back off identically, and
- distinct tokens (client paths) still de-correlate, which is the
  whole point of jitter.
"""

from __future__ import annotations

import hashlib


def jitter_unit(token: str, attempt: int) -> float:
    """The deterministic jitter draw for ``(token, attempt)`` in [0, 1)."""
    digest = hashlib.sha1(f"{token}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def backoff_delay(attempt: int, *, base_delay_s: float,
                  max_delay_s: float = 1.0, jitter: float = 0.25,
                  token: str = "") -> float:
    """Delay before retry number ``attempt`` (1-based), in seconds.

    Exponential from ``base_delay_s``, capped at ``max_delay_s``, then
    scaled by a deterministic factor in ``[1 - jitter, 1 + jitter)``
    hashed from ``(token, attempt)``.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    delay = min(max_delay_s, base_delay_s * (2.0 ** (attempt - 1)))
    if jitter == 0.0:
        return delay
    unit = jitter_unit(token, attempt)
    return delay * (1.0 - jitter + 2.0 * jitter * unit)
