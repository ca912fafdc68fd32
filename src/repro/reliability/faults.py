"""Deterministic fault injection for the parallel plane.

A *site* is a named point in the code where a fault can be made to
happen.  One site exists: ``"shm.create"``, every shared-memory
allocation (:func:`repro.parallel.shm._create_segment`), which raises
``OSError(ENOSPC)`` on an ``oserror`` fault as if ``/dev/shm`` were
full.  A :class:`FaultPlan` schedules faults by ``(site, call index)``;
the :class:`FaultInjector` counts every visit to every site and reports
which visits are due a fault.  The call site interprets the fault
*kind* itself, so this module stays dependency-free and the injector is
pure bookkeeping — trivially deterministic and picklable.

Zero overhead when disabled
---------------------------
Production code guards every site with::

    if _faults.ACTIVE is not None:
        fault = _faults.ACTIVE.check("site.name")

With no injector installed that is one module-attribute load and a
``None`` test — no allocation, no locking, no branch into this module.

Determinism
-----------
Plans are explicit ``(site, call, kind)`` triples; :meth:`FaultPlan.
seeded` derives a reproducible schedule from an integer seed.  Site
counters are per-injector and increment exactly once per visit, so a
given plan fires the same faults at the same call indices on every run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Fault kinds the injection sites understand: ``oserror`` makes a
#: shared-memory allocation fail as if ``/dev/shm`` were exhausted
#: (``OSError(ENOSPC)``).
FAULT_KINDS = ("oserror",)

#: ``Fault.call`` value meaning "every visit to this site".
ANY_CALL = 0


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: visit number ``call`` of ``site`` does ``kind``.

    ``call`` is 1-based (the first visit to a site is call 1);
    :data:`ANY_CALL` (0) fires on every visit.
    """

    site: str
    call: int
    kind: str

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {FAULT_KINDS}")
        if self.call < 0:
            raise ValueError(f"call must be >= 0 (0 = every call), "
                             f"got {self.call}")


class FaultPlan:
    """An immutable schedule of :class:`Fault`\\ s, indexed by site."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self._by_site: Dict[str, Dict[int, Fault]] = {}
        self._always: Dict[str, Fault] = {}
        for fault in faults:
            if fault.call == ANY_CALL:
                if fault.site in self._always:
                    raise ValueError(
                        f"duplicate every-call fault for site {fault.site!r}")
                self._always[fault.site] = fault
                continue
            per_site = self._by_site.setdefault(fault.site, {})
            if fault.call in per_site:
                raise ValueError(f"duplicate fault for "
                                 f"({fault.site!r}, call {fault.call})")
            per_site[fault.call] = fault

    def lookup(self, site: str, call: int) -> Optional[Fault]:
        always = self._always.get(site)
        if always is not None:
            return always
        return self._by_site.get(site, {}).get(call)

    def faults(self) -> List[Fault]:
        out = list(self._always.values())
        for per_site in self._by_site.values():
            out.extend(per_site.values())
        return sorted(out, key=lambda f: (f.site, f.call))

    def __len__(self) -> int:
        return len(self._always) + sum(len(m) for m in self._by_site.values())

    @classmethod
    def seeded(cls, seed: int, sites: Sequence[str],
               kinds: Sequence[str] = FAULT_KINDS,
               faults_per_site: int = 1, max_call: int = 8) -> "FaultPlan":
        """Derive a reproducible random schedule from ``seed``.

        A simple deterministic LCG (not ``random``/``numpy``) keeps the
        schedule independent of any global RNG state the workload
        seeds for itself.
        """
        if max_call < 1:
            raise ValueError("max_call must be >= 1")
        state = (int(seed) * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        faults: List[Fault] = []
        for site in sites:
            calls_taken = set()
            for _ in range(faults_per_site):
                state = (state * 6364136223846793005
                         + 1442695040888963407) % (1 << 64)
                call = 1 + (state >> 33) % max_call
                while call in calls_taken:
                    call = 1 + call % max_call
                calls_taken.add(call)
                state = (state * 6364136223846793005
                         + 1442695040888963407) % (1 << 64)
                kind = kinds[(state >> 33) % len(kinds)]
                faults.append(Fault(site, call, kind))
        return cls(faults)


class FaultInjector:
    """Counts site visits and reports which visits are due a fault.

    Thread-safe: any thread may pass through a site.  ``fired`` keeps the exact
    sequence of injected faults (with the call index each landed on)
    so smokes and tests can assert the schedule really ran.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self.fired: List[Tuple[str, int, str]] = []

    def check(self, site: str) -> Optional[Fault]:
        """Record one visit to ``site``; return the fault due now, if any."""
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            fault = self.plan.lookup(site, count)
            if fault is not None:
                self.fired.append((site, count, fault.kind))
        return fault

    def stats(self) -> dict:
        """JSON-ready snapshot for ``/metrics`` and smoke logs."""
        with self._lock:
            return {
                "planned": len(self.plan),
                "fired": len(self.fired),
                "events": [{"site": site, "call": call, "kind": kind}
                           for site, call, kind in self.fired],
                "site_counts": dict(sorted(self._counts.items())),
            }


#: The installed injector.  ``None`` (the default) disables every site.
ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    return ACTIVE


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` process-wide (replaces any previous one)."""
    global ACTIVE
    ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector; every site goes back to zero cost."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Install a fresh injector for ``plan`` for the duration of a block."""
    injector = install(FaultInjector(plan))
    try:
        yield injector
    finally:
        uninstall()
