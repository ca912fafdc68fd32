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
    #: Per-input shape (e.g. ``(3, 32, 32)``), when the registrar knows
    #: it.  Lets the serving layer run a warm-up forward before
    #: traffic, so the first real batch pays no lazy-initialization
    #: cost.
    input_shape: Optional[Tuple[int, ...]] = None
    fingerprint: str = field(init=False, repr=False)
    _folded: Optional[Module] = field(init=False, repr=False, default=None)

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

    def plan(self) -> Optional[dict]:
        """Always ``None``: versions serve through their folded copy and
        none is compiled.  Kept because the repo benchmark reads it."""
        return None


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
        registering thread; the serving layer uses this to warm each
        version the moment it exists, instead of on its first
        request.  Listener exceptions propagate to the caller
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

        ``input_shape`` (optional) is the per-input array shape;
        providing it lets the serving layer run a warm-up forward before
        the first request arrives.
        ``spec`` is accepted and ignored; the repo benchmark still
        passes it.
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
        """JSON-ready listing used by the ``/models`` endpoint: per
        name, the active version and each version's registration
        metadata."""
        with self._lock:
            return {
                name: {
                    "active": self._active[name],
                    "versions": {
                        version: dict(entry.metadata)
                        for version, entry in sorted(versions.items())
                    },
                }
                for name, versions in sorted(self._entries.items())
            }
