"""Zero-copy dataset handoff via ``multiprocessing.shared_memory``.

The parent publishes an :class:`~repro.data.dataset.ArrayDataset` into
three named shared-memory segments (images / labels / sample_ids) and
ships only a tiny picklable :class:`SharedDatasetHandle` to workers.
Workers attach by name, view the arrays read-only, copy out the rows
they need, and close their mapping.  Ownership is strictly one-sided:

- the **parent** creates the segments and is the only party that may
  ``unlink`` them (always via context manager / ``finally``);
- **workers** only ever ``close`` their attachment.

This keeps the big training arrays out of the task pickle stream
entirely — a task spec costs bytes, not gigabytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np

from ..data.dataset import ArrayDataset


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Allocate a fresh shared-memory segment (single creation choke point).

    Every owner-side allocation funnels through here, so a test can
    patch this one function to make any allocation fail as if
    ``/dev/shm`` were exhausted and drive the partial-publish cleanup in
    :meth:`SharedDataset.publish`.
    """
    return shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)))


@dataclass(frozen=True)
class _ArraySpec:
    """Where one array lives: segment name + layout to rebuild a view."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _publish_array(array: np.ndarray) -> Tuple[shared_memory.SharedMemory,
                                               _ArraySpec]:
    array = np.ascontiguousarray(array)
    seg = _create_segment(array.nbytes)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
    view[...] = array
    return seg, _ArraySpec(name=seg.name, shape=tuple(array.shape),
                           dtype=str(array.dtype))


def _attach_array(spec: _ArraySpec) -> Tuple[shared_memory.SharedMemory,
                                             np.ndarray]:
    seg = _attach_untracked(spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return seg, view


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Picklable descriptor of a dataset published in shared memory."""

    images: _ArraySpec
    labels: _ArraySpec
    sample_ids: _ArraySpec

    def open(self) -> "AttachedDataset":
        """Attach (worker side); caller must ``close()`` when done."""
        return AttachedDataset(self)


class AttachedDataset:
    """A worker's read-only mapping of a published dataset.

    ``.dataset`` views the shared buffers directly (zero-copy); slice or
    fancy-index it to copy out the rows a task trains on, then
    ``close()`` — the views die with the mapping.
    """

    def __init__(self, handle: SharedDatasetHandle):
        self._segments = []
        arrays = []
        try:
            for spec in (handle.images, handle.labels, handle.sample_ids):
                seg, view = _attach_array(spec)
                self._segments.append(seg)
                arrays.append(view)
        except Exception:
            self.close()
            raise
        self.dataset = ArrayDataset.__new__(ArrayDataset)
        # Bypass __init__: it would re-coerce dtypes (copying) and these
        # views are already validated at publish time.
        self.dataset.images, self.dataset.labels, self.dataset.sample_ids = arrays

    def close(self) -> None:
        """Drop this process's mapping (never unlinks the segments)."""
        for seg in self._segments:
            try:
                seg.close()
            except OSError:
                pass
        self._segments = []

    def __enter__(self) -> ArrayDataset:
        return self.dataset

    def __exit__(self, *exc) -> None:
        self.close()


class SharedDataset:
    """Parent-side lease on a published dataset.

    Use as a context manager (or call :meth:`unlink` in ``finally``):
    the segments are freed exactly once, even when the protected block
    raises.
    """

    def __init__(self, segments, handle: SharedDatasetHandle):
        self._segments = segments
        self.handle = handle

    @classmethod
    def publish(cls, dataset: ArrayDataset) -> "SharedDataset":
        """Copy a dataset into fresh shared-memory segments."""
        segments = []
        specs = []
        try:
            for array in (dataset.images, dataset.labels, dataset.sample_ids):
                seg, spec = _publish_array(array)
                segments.append(seg)
                specs.append(spec)
        except Exception:
            for seg in segments:
                try:
                    seg.close()
                except OSError:
                    pass
                try:
                    seg.unlink()
                except (FileNotFoundError, OSError):
                    pass
            raise
        return cls(segments, SharedDatasetHandle(*specs))

    def unlink(self) -> None:
        """Close the parent mapping and free the segments (idempotent)."""
        for seg in self._segments:
            try:
                seg.close()
            except OSError:
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segments = []

    def __enter__(self) -> SharedDatasetHandle:
        return self.handle

    def __exit__(self, *exc) -> None:
        self.unlink()


@contextmanager
def share_dataset(dataset: ArrayDataset) -> Iterator[SharedDatasetHandle]:
    """Publish ``dataset`` for the duration of a ``with`` block."""
    lease = SharedDataset.publish(dataset)
    try:
        yield lease.handle
    finally:
        lease.unlink()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without resource-tracker registration.

    Python < 3.13 registers every ``SharedMemory(name=...)`` attach with
    a resource tracker, which "cleans up" (unlinks!) the segment when
    the attaching process exits — destroying a parent-owned segment the
    parent may still be using (and, when the tracker is shared across a
    fork, corrupting the parent's own registration).  Ownership here is
    strictly one-sided: attaching peers only ever ``close``, so the
    attach must not be tracked at all.  Python 3.13+ spells that
    ``track=False``; for older interpreters the registration hook is
    stubbed out for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:        # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ---------------------------------------------------------------------------
# Leak accounting — shared-memory segments visible to this machine.
# ---------------------------------------------------------------------------

#: Prefixes the stdlib uses for POSIX shared memory segment names.
_SHM_PREFIXES = ("psm_", "wnsm_")


def shm_segment_names() -> Optional[Set[str]]:
    """Names of live POSIX shm segments, or ``None`` where unobservable.

    Linux exposes segments as files under ``/dev/shm``; other platforms
    return ``None`` and leak checks silently skip.  Only stdlib-created
    names (``psm_``/``wnsm_`` prefixes) are reported so unrelated system
    segments never pollute a leak diff.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return None
    try:
        return {entry.name for entry in root.iterdir()
                if entry.name.startswith(_SHM_PREFIXES)}
    except OSError:
        return None


def leaked_segments(before: Optional[Set[str]]) -> List[str]:
    """Segments alive now that were not alive at snapshot time.

    Usage: ``before = shm_segment_names()`` … run the workload, close
    everything … ``assert not leaked_segments(before)``.  Returns ``[]``
    when the platform cannot observe segments.
    """
    if before is None:
        return []
    now = shm_segment_names()
    if now is None:
        return []
    return sorted(now - before)
