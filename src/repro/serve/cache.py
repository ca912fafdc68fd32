"""Exact response caching for repeated serving traffic.

The fixed-compute-width determinism contract makes response caching
*provably exact*: for a given model version, a request's logits are a
pure function of its input bytes — bit-identical whether it is served
solo, coalesced, or replayed from a cache.  So a
bounded LRU keyed by ``(model key, input digest)`` can short-circuit
repeated traffic (health probes, hot images, retry storms) without the
usual "cached responses are approximately right" caveat: a hit returns
**exactly** the bytes a fresh forward would produce, enforced by
``tests/serve/test_cache.py`` and the ``serving_cached_vs_fresh_max_delta``
quick-gate cell.

Keys include the *resolved* ``(name, version)`` pair, so a hot-swap
naturally partitions the cache — post-swap traffic misses into the new
version while pinned-version requests keep hitting their old
entries.  Screening metadata rides along with the cached response (it
is a monitoring side-channel, replayed rather than recomputed; the
per-version flag-rate counters only advance on fresh forwards).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np

#: A cache key: (model key, input digest).
CacheKey = Tuple[Hashable, str]


def input_digest(images: np.ndarray) -> str:
    """Digest of a request's *normalized* input array.

    Callers must pass the same normalization the batcher applies
    (contiguous float32, ``(k, C, H, W)``), so two requests digest
    equal iff the batcher would forward equal rows.  Shape and dtype
    are folded into the digest: a ``(1, 12, 12)`` gray image can never
    collide with ``(3, 12, 12)`` content that happens to share bytes.
    """
    digest = hashlib.sha1()
    digest.update(str(images.dtype).encode())
    digest.update(str(images.shape).encode())
    digest.update(np.ascontiguousarray(images).tobytes())
    return digest.hexdigest()


class ResponseCache:
    """Bounded, thread-safe LRU of served responses.

    Values are opaque to the cache (the server stores
    :class:`~repro.serve.server.PredictResult` clones); eviction is
    strict LRU on reads and writes.  ``capacity`` is an entry count —
    serving responses are small (logits for a handful of rows), so a
    few hundred entries cost megabytes, not gigabytes.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1 (use no cache instead "
                             "of a zero-capacity one)")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: CacheKey) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
            }
