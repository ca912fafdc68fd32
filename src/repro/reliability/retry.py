"""Retry policies and per-worker supervision.

The serving determinism contract (row-invariant GEMMs at every batch
width, bit-stable kernels at every thread count) makes a
batch replay bit-identical by construction, so retrying an idempotent
batch after a worker crash or stall is always safe.  This module
supplies the knobs:

- :class:`RetryPolicy` — bounded attempts with deterministic jittered
  exponential backoff and an optional per-call deadline.  The jitter is
  hashed from ``(token, attempt)`` instead of drawn from a global RNG,
  so a retry schedule never perturbs any seeded randomness the workload
  owns and two runs of the same chaos plan back off identically.
- :class:`WorkerSupervisor` — a per-worker respawn budget + circuit
  breaker (closed → open → half-open).  Persistent failure ejects the
  worker (its load is redistributed to the surviving pool); after a
  cooldown a probe respawn may re-admit it once it passes warm-up.
- :class:`ReliabilityConfig` — the bundle the serving backend takes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..obs.backoff import backoff_delay


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic jittered exponential backoff.

    ``max_attempts`` counts the first try: 3 means one call plus up to
    two retries.  ``deadline_s`` (when set) bounds each worker call;
    a call that exceeds it is treated as a stall — the session is
    poisoned and the worker respawned, because a timed-out pipe
    round-trip can no longer be trusted to stay in sync.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0
    jitter: float = 0.25
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, token: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based).

        Deterministic: the jitter factor is derived from a hash of
        ``(token, attempt)``, so a given (worker, attempt) pair always
        waits the same amount while distinct workers still de-correlate
        (:func:`repro.obs.backoff.backoff_delay` — the one shared copy
        every retry loop in the tree backs off through).
        """
        return backoff_delay(attempt, base_delay_s=self.base_delay_s,
                             max_delay_s=self.max_delay_s,
                             jitter=self.jitter, token=token)


class WorkerSupervisor:
    """Failure accounting + circuit breaker for one worker slot.

    States mirror the classic breaker:

    - *closed* — healthy; successes reset the consecutive-failure run.
    - *open* (``ejected``) — too many consecutive failures or the
      respawn budget is spent; the slot takes no traffic until the
      cooldown elapses.
    - *half-open* (``probing``) — one probe respawn is in flight; if it
      passes warm-up the breaker closes, otherwise it re-opens with a
      fresh cooldown.

    Not thread-safe on its own — the owning backend serializes state
    transitions under its pool lock.
    """

    def __init__(self, failure_threshold: int = 3, respawn_budget: int = 3,
                 cooldown_s: float = 1.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0")
        self.failure_threshold = failure_threshold
        self.respawn_budget = respawn_budget
        self.cooldown_s = cooldown_s
        self.consecutive_failures = 0
        self.total_failures = 0
        self.respawns = 0
        self.ejections = 0
        self.state = "closed"
        self._reopen_at = 0.0

    # -- accounting -----------------------------------------------------
    def record_success(self) -> None:
        # A served batch proves the worker healthy: the failure run ends
        # and the respawn budget refills.  The budget bounds respawns
        # per *incident*, not per process lifetime — a long-lived server
        # should not eject a worker for crashes months apart.
        self.consecutive_failures = 0
        self.respawns = 0
        self.state = "closed"

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.total_failures += 1

    def record_respawn(self) -> None:
        self.respawns += 1

    # -- breaker transitions --------------------------------------------
    @property
    def ejected(self) -> bool:
        return self.state in ("open", "half-open")

    def should_eject(self) -> bool:
        return (self.consecutive_failures >= self.failure_threshold
                or self.respawns > self.respawn_budget)

    def eject(self, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        self.state = "open"
        self.ejections += 1
        self._reopen_at = now + self.cooldown_s

    def probe_due(self, now: Optional[float] = None) -> bool:
        now = time.monotonic() if now is None else now
        return self.state == "open" and now >= self._reopen_at

    def begin_probe(self) -> None:
        self.state = "half-open"

    def probe_failed(self, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        self.state = "open"
        self._reopen_at = now + self.cooldown_s

    def close_breaker(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.respawns = 0       # re-admitted with a fresh budget

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "respawns": self.respawns,
            "ejections": self.ejections,
        }


@dataclass(frozen=True)
class ReliabilityConfig:
    """Supervision knobs for the multi-process serving backend.

    ``degrade_to_inline`` gates the last tier: with every worker
    ejected, batches run inline in the parent (slower, never down)
    until a probe respawn passes warm-up and re-promotes the pool.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 3
    respawn_budget: int = 3
    breaker_cooldown_s: float = 1.0
    degrade_to_inline: bool = True

    def supervisor(self) -> WorkerSupervisor:
        return WorkerSupervisor(failure_threshold=self.failure_threshold,
                                respawn_budget=self.respawn_budget,
                                cooldown_s=self.breaker_cooldown_s)
