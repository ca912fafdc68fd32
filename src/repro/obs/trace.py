"""Request tracing: 64-bit trace ids and a bounded flight recorder.

A trace id is minted at the front end — the HTTP handler — as 16
lowercase hex characters (64 bits), accepted from the client via the
``X-Trace-Id`` header and echoed back on the response.  It rides the
batcher's request objects downstream, so every span a request leaves
behind, at any layer, carries the same id.

Spans are closed intervals recorded into the process-local
:data:`RECORDER`, a bounded ring buffer (the *flight recorder*): cheap
enough to leave on in production, always holding the last few thousand
spans when something goes wrong.  ``GET /v1/debug/traces`` dumps it; the
smoke lanes write the dump into the CI failure artifact when an
assertion trips.

Invariants the smoke lanes assert:

- **balanced** — every started span is ended (the context manager
  guarantees it even on the exception path), so
  ``spans_started == spans_ended`` at quiesce;
- **no overflow under default load** — the ring never wrapped, so the
  dump is the complete span history, not a suffix.

Fork-aware: a child process (a SISA pool worker) starts with
an empty recorder and its own mint sequence — spans never leak across
the process boundary, and two processes cannot mint the same id run.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import string
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Header carrying the trace id over HTTP (request and response).
TRACE_HEADER = "X-Trace-Id"

#: Default ring capacity: big enough that the tier-2 smoke lanes never
#: wrap, small enough (~a few MB of span dicts) to forget about.
DEFAULT_CAPACITY = 16384

_HEX_DIGITS = frozenset(string.hexdigits)

_mint_lock = threading.Lock()
_mint_counter = itertools.count()
_mint_salt: Optional[bytes] = None


def _reset_mint_locked() -> None:
    global _mint_counter, _mint_salt
    _mint_counter = itertools.count()
    _mint_salt = None


def mint_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex characters."""
    global _mint_salt
    with _mint_lock:
        if _mint_salt is None:
            _mint_salt = os.urandom(8) + os.getpid().to_bytes(8, "big")
        sequence = next(_mint_counter)
    digest = hashlib.sha1(_mint_salt + sequence.to_bytes(8, "big")).digest()
    return digest[:8].hex()


def valid_trace_id(value) -> bool:
    """True for 1-16 ASCII hex characters (either case), nothing else.

    ``int(value, 16)`` is not this test: it also takes ``0x``, signs,
    underscores, surrounding whitespace and non-ASCII digits.
    """
    return (isinstance(value, str) and 1 <= len(value) <= 16
            and all(char in _HEX_DIGITS for char in value))


def coerce_trace_id(value) -> str:
    """Normalize a caller-supplied trace id; mint one when absent/bad."""
    if valid_trace_id(value):
        return value.lower().rjust(16, "0")
    return mint_trace_id()


class FlightRecorder:
    """Bounded ring buffer of completed span records (thread-safe)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: "deque[dict]" = deque(maxlen=capacity)
        self._started = 0
        self._ended = 0
        self._dropped = 0

    def begin(self) -> None:
        with self._lock:
            self._started += 1

    def record(self, span: dict) -> None:
        with self._lock:
            self._ended += 1
            if len(self._spans) >= self.capacity:
                self._dropped += 1
            self._spans.append(span)

    def dump(self, trace: Optional[str] = None) -> List[dict]:
        """Recorded spans in arrival order (optionally one trace's)."""
        with self._lock:
            spans = list(self._spans)
        if trace is not None:
            spans = [span for span in spans if span.get("trace") == trace]
        return spans

    def stats(self) -> dict:
        with self._lock:
            return {"spans_started": self._started,
                    "spans_ended": self._ended,
                    "spans_dropped": self._dropped,
                    "spans_held": len(self._spans),
                    "capacity": self.capacity}

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._started = 0
            self._ended = 0
            self._dropped = 0


#: The process-local flight recorder every layer records into.
RECORDER = FlightRecorder()

_enabled = True


def set_tracing(enabled: bool) -> bool:
    """Toggle span recording process-wide; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    return _enabled


def record_span(name: str, trace: Optional[str], duration_s: float,
                start_s: Optional[float] = None,
                tags: Optional[Dict] = None) -> None:
    """Record an externally timed span (e.g. a worker-measured kernel)."""
    if not _enabled:
        return
    RECORDER.begin()
    span = {"name": name, "trace": trace,
            "start_s": (time.perf_counter() - duration_s
                        if start_s is None else start_s),
            "dur_s": duration_s}
    if tags:
        span["tags"] = dict(tags)
    RECORDER.record(span)


@contextmanager
def span(name: str, trace: Optional[str] = None,
         **tags) -> Iterator[Optional[dict]]:
    """Time a block and record it as one span.

    Yields the mutable tag dict so the body can attach outcome tags
    (status codes, byte counts) before the span is sealed; yields
    ``None`` when tracing is disabled.  The record lands in ``finally``,
    so spans stay balanced even when the body raises.
    """
    if not _enabled:
        yield None
        return
    RECORDER.begin()
    start = time.perf_counter()
    try:
        yield tags
    finally:
        record = {"name": name, "trace": trace, "start_s": start,
                  "dur_s": time.perf_counter() - start}
        if tags:
            record["tags"] = {key: value for key, value in tags.items()
                              if value is not None}
            if not record["tags"]:
                del record["tags"]
        RECORDER.record(record)


def _reset_after_fork() -> None:
    # Children inherit the parent's ring and mint state but must not
    # report the parent's spans as their own (or re-mint its ids).
    global _mint_lock
    _mint_lock = threading.Lock()
    _reset_mint_locked()
    RECORDER._lock = threading.Lock()
    RECORDER.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
