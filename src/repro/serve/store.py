"""Versioned model store backing the serving layer and the eval harness.

A :class:`ModelStore` registers trained models under ``name/version``
and hands out exactly one BatchNorm-folded, parameter-frozen inference
copy per registered version, built lazily through the process-wide
:func:`repro.nn.fold.shared_folded_cache`.  Because the cache keys on
weight fingerprints, the serving scheduler, the eval harness and the
defense sweeps (STRIP / Neural Cleanse / Beatrix) bound to the same
trained model all share a single folded copy — the weights are folded
once, no matter how many consumers sweep them.

Versioning models the ReVeil deployment timeline: the provider serves
the camouflaged model, the adversary's unlearning request restores the
backdoor, and the restored model is *hot-swapped* in by registering (or
activating) a new version while traffic keeps flowing.  Requests that
named an explicit version keep it; requests for the active version
resolve at submission time, so a swap is atomic at request granularity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..nn import graph as _graph
from ..nn.fold import _state_fingerprint, shared_folded_cache
from ..nn.module import Module

#: (name, version) — the unit the scheduler coalesces batches under.
ModelKey = Tuple[str, str]


@dataclass
class ModelEntry:
    """One registered model version.

    Registered models are **immutable artifacts**: the weight
    fingerprint is computed once at registration, so the serving hot
    path never re-hashes parameters per batch.  Mutating a registered
    model's weights afterwards is a deployment-model error — register
    the new weights as a new version and hot-swap instead.
    """

    name: str
    version: str
    model: Module
    metadata: Dict[str, str] = field(default_factory=dict)
    #: Optional picklable zero-arg factory rebuilding the architecture
    #: (e.g. :class:`repro.parallel.ModelSpec`).  When present, worker
    #: processes materialize their replicas from ``factory() +
    #: state_dict`` instead of unpickling the whole module.
    spec: Optional[Callable[[], Module]] = None
    #: Per-input shape (e.g. ``(3, 32, 32)``), when the registrar knows
    #: it.  Lets the serving layer run warm-up forwards at the fixed
    #: compute width right after replicas ship, so the first real batch
    #: pays no lazy-initialization cost.
    input_shape: Optional[Tuple[int, ...]] = None
    fingerprint: str = field(init=False, repr=False)
    _folded: Optional[Module] = field(init=False, repr=False, default=None)
    _compiled: Optional["_graph.CompiledModel"] = field(
        init=False, repr=False, default=None)

    def __post_init__(self):
        self.fingerprint = _state_fingerprint(self.model)

    @property
    def key(self) -> ModelKey:
        return (self.name, self.version)

    def folded(self) -> Module:
        """The shared folded inference copy, pinned to the registration
        fingerprint.  The strong reference keeps the hot path lock-free
        after the first call (and immune to cache LRU eviction).

        The single lazy build re-checks the fingerprint: folding
        weights that changed since registration under the registration
        fingerprint would poison the shared cache for every other
        consumer, so mutation is rejected loudly instead.
        """
        if self._folded is None:
            current = _state_fingerprint(self.model)
            if current != self.fingerprint:
                raise RuntimeError(
                    f"model {self.name}/{self.version} was mutated after "
                    f"registration; registered models are immutable — "
                    f"register the new weights as a new version instead")
            self._folded = shared_folded_cache().get(self.model, current)
        return self._folded

    def ensure_compiled(self, width: int) -> "_graph.CompiledModel":
        """Compile this version at ``width`` (built at most once).

        Goes through the process-wide folded cache keyed by
        ``(fingerprint, width)``, so every consumer of this version at
        this width — server, eval harness, forget plane — shares one
        compiled program and one arena.  Trace failures never propagate:
        the returned :class:`~repro.nn.graph.CompiledModel` falls back to
        the folded interpreter and says so via ``.compiled``.
        """
        width = int(width)
        if self._compiled is not None and self._compiled.width == width:
            return self._compiled
        self._compiled = shared_folded_cache().get(
            self.model, self.fingerprint, width=width,
            build=lambda model: _graph.compile(
                model, width, input_shape=self.input_shape))
        return self._compiled

    @property
    def compiled(self) -> bool:
        """True once a compiled (non-fallback) program is attached."""
        return self._compiled is not None and self._compiled.compiled

    def plan(self) -> Optional[dict]:
        """The compiled plan dict, or ``None`` before/without one."""
        if self._compiled is not None and self._compiled.compiled:
            return self._compiled.plan
        return None

    def plan_summary(self) -> Optional[dict]:
        """Compact JSON plan view for listings (``/v1/models``)."""
        plan = self.plan()
        if plan is None:
            return None
        return {"ops": plan["ops"], "fused": plan["fused"],
                "arena_bytes": plan["arena_bytes"]}

    def executable(self) -> Module:
        """What the hot path should call: the compiled program when one
        exists (falling back internally on width mismatch), otherwise
        the plain folded copy."""
        if self._compiled is not None:
            return self._compiled
        return self.folded()

    def replica_payload(self) -> dict:
        """What ships to a worker process to rebuild this version there.

        With a registered ``spec``, the payload is the factory plus a
        ``state_dict`` snapshot and the registration fingerprint — the
        worker rebuilds and *verifies* the replica
        (:func:`repro.nn.fold.folded_replica`).  Without one, the
        pickled module itself travels (same bits, fatter payload).
        Either way the shipment happens once per version.  A compiled
        plan, when present, rides along so workers compile the same
        width and input shape.
        """
        if self.spec is not None:
            payload = {"kind": "state", "factory": self.spec,
                       "state": self.model.state_dict(),
                       "fingerprint": self.fingerprint}
        else:
            payload = {"kind": "model", "model": self.model,
                       "fingerprint": self.fingerprint}
        plan = self.plan()
        if plan is not None:
            payload["plan"] = plan
        return payload


class ModelStore:
    """Thread-safe registry of named, versioned models.

    - :meth:`register` adds a version (auto-named ``v1, v2, ...`` when
      none is given) and by default makes it the active one;
    - :meth:`resolve` pins a request to a concrete ``(name, version)``
      key — ``version=None`` means "whatever is active right now";
    - :meth:`activate` hot-swaps the active version;
    - :meth:`folded` returns the per-version folded inference copy.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, ModelEntry]] = {}
        self._active: Dict[str, str] = {}
        self._listeners: List[Callable[[str, ModelEntry], None]] = []

    # -- registration --------------------------------------------------
    def subscribe(self, listener: Callable[[str, ModelEntry], None]) -> None:
        """Call ``listener(event, entry)`` after every ``"register"`` /
        ``"activate"``.  Listeners run outside the store lock, in the
        registering thread; the serving layer uses this to prefetch and
        warm worker replicas the moment a version exists, instead of on
        its first request.  Listener exceptions propagate to the caller
        (a failed prefetch should fail the registration loudly)."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[str, ModelEntry], None]) -> None:
        """Remove a listener (no-op if absent) — servers detach on close
        so a long-lived store never accumulates dead subscribers."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, event: str, entry: ModelEntry) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(event, entry)

    def register(self, name: str, model: Module, version: Optional[str] = None,
                 metadata: Optional[Dict[str, str]] = None,
                 activate: bool = True,
                 spec: Optional[Callable[[], Module]] = None,
                 input_shape: Optional[Tuple[int, ...]] = None) -> str:
        """Register ``model`` as ``name/version``; returns the version.

        ``spec`` (optional) is a picklable zero-arg architecture factory
        letting multi-process serving ship this version to workers as a
        state dict instead of a pickled module.  ``input_shape``
        (optional) is the per-input array shape; providing it lets the
        serving layer warm this version up (replica ship + fixed-width
        forward) before the first request arrives.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        with self._lock:
            versions = self._entries.setdefault(name, {})
            if version is None:
                version = f"v{len(versions) + 1}"
            if version in versions:
                raise ValueError(f"{name}/{version} is already registered")
            entry = ModelEntry(name, version, model, dict(metadata or {}),
                               spec=spec,
                               input_shape=(tuple(input_shape)
                                            if input_shape else None))
            versions[version] = entry
            if activate or name not in self._active:
                self._active[name] = version
        self._notify("register", entry)
        return version

    def activate(self, name: str, version: str) -> None:
        """Make ``version`` the one unversioned requests resolve to."""
        with self._lock:
            entry = self._entry_locked(name, version)
            self._active[name] = version
        self._notify("activate", entry)

    # -- lookup --------------------------------------------------------
    def _entry_locked(self, name: str, version: Optional[str]) -> ModelEntry:
        if name not in self._entries:
            raise KeyError(f"unknown model {name!r}; "
                           f"registered: {sorted(self._entries)}")
        versions = self._entries[name]
        if version is None:
            version = self._active[name]
        if version not in versions:
            raise KeyError(f"unknown version {name}/{version}; "
                           f"registered: {sorted(versions)}")
        return versions[version]

    def entry(self, name: str, version: Optional[str] = None) -> ModelEntry:
        with self._lock:
            return self._entry_locked(name, version)

    def resolve(self, name: str, version: Optional[str] = None) -> ModelKey:
        """Pin ``(name, version-or-active)`` for batch coalescing."""
        return self.entry(name, version).key

    def model(self, name: str, version: Optional[str] = None) -> Module:
        return self.entry(name, version).model

    def folded(self, name: str, version: Optional[str] = None) -> Module:
        """Folded inference copy for ``name/version`` (built at most once)."""
        return self.entry(name, version).folded()

    # -- introspection -------------------------------------------------
    def all_entries(self) -> List[ModelEntry]:
        """Every registered entry, name/version order (prefetch sweep)."""
        with self._lock:
            return [versions[version]
                    for _, versions in sorted(self._entries.items())
                    for version in sorted(versions)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def versions(self, name: str) -> List[str]:
        with self._lock:
            self._entry_locked(name, None)
            return sorted(self._entries[name])

    def active_version(self, name: str) -> str:
        with self._lock:
            self._entry_locked(name, None)
            return self._active[name]

    def describe(self) -> Dict[str, dict]:
        """JSON-ready listing used by the ``/models`` endpoint.

        Version dicts are the registration metadata plus two additive
        keys: ``"compiled"`` (bool) and ``"plan"`` (compact plan summary
        or ``None``) — the legacy ``/models`` alias stays compatible
        modulo exactly these keys.
        """
        with self._lock:
            return {
                name: {
                    "active": self._active[name],
                    "versions": {
                        version: dict(entry.metadata,
                                      compiled=entry.compiled,
                                      plan=entry.plan_summary())
                        for version, entry in sorted(versions.items())
                    },
                }
                for name, versions in sorted(self._entries.items())
            }
