"""``repro.reliability`` — deterministic fault injection.

:mod:`~repro.reliability.faults` supplies a seeded, deterministic
:class:`FaultInjector`.  Fault plans are keyed by *site*; the one site
is ``shm.create`` (the next shared-memory allocation raises as if
``/dev/shm`` were full), threaded through :mod:`repro.parallel.shm`
behind a zero-overhead-when-disabled hook: with no injector installed
the site is a single ``None`` check.  Tests use it to drive
:meth:`repro.parallel.SharedDataset.publish` through its
partial-publish cleanup.
"""

from .faults import (ANY_CALL, FAULT_KINDS, Fault, FaultInjector, FaultPlan,
                     active_injector, injected, install, uninstall)

__all__ = [
    "Fault", "FaultPlan", "FaultInjector", "FAULT_KINDS", "ANY_CALL",
    "install", "uninstall", "injected", "active_injector",
]
