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

import errno
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..data.dataset import ArrayDataset
from ..reliability import faults as _faults


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Allocate a fresh shared-memory segment (single creation choke point).

    Every owner-side allocation funnels through here so the fault site
    ``shm.create`` can make any one of them fail as if ``/dev/shm`` were
    exhausted — the error real fleets hit when state lanes outgrow the
    tmpfs — and so callers exercise their documented fallbacks (pipe
    transport) under test instead of only in outages.
    """
    if _faults.ACTIVE is not None:
        fault = _faults.ACTIVE.check("shm.create")
        if fault is not None and fault.kind == "oserror":
            raise OSError(errno.ENOSPC,
                          "injected: no space left on /dev/shm")
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


# ---------------------------------------------------------------------------
# Reusable array channels — the shared-memory *return* path.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArraySlot:
    """Picklable descriptor of one array parked in a channel's segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


class ArrayChannel:
    """Parent-owned, growable shared-memory lane for array handoff.

    The dataset handles above publish *immutable* arrays once; a serving
    data plane instead needs a reusable lane per worker — request inputs
    go out through one channel and logits come back through another,
    with only tiny :class:`ArraySlot` descriptors (segment name + shape
    + dtype) crossing the pipe.  One channel is single-flight by
    construction: the serving backend leases a worker, writes, calls,
    reads, and only then releases the lease, so a segment is never
    written while the other side still reads it.

    Ownership follows the module contract: the creating process is the
    only one that may :meth:`unlink`; peers attach by name and only
    ever ``close`` their mapping (:class:`ChannelPeer` caches those
    attachments across calls and drops stale ones as the channel
    grows).  Growth allocates a *fresh* segment (new name) and unlinks
    the old — readers still mapping the old name keep a valid view
    until they close it, so resizing can never corrupt an in-flight
    reply.
    """

    def __init__(self, nbytes: int = 0):
        self._segment: Optional[shared_memory.SharedMemory] = None
        if nbytes > 0:
            self._segment = _create_segment(nbytes)

    @property
    def capacity(self) -> int:
        return self._segment.size if self._segment is not None else 0

    @property
    def name(self) -> Optional[str]:
        return self._segment.name if self._segment is not None else None

    def ensure(self, nbytes: int) -> None:
        """Grow (never shrink) capacity to at least ``nbytes``."""
        if nbytes <= self.capacity:
            return
        old = self._segment
        self._segment = _create_segment(nbytes)
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
            try:
                old.unlink()
            except (FileNotFoundError, OSError):
                pass

    def write(self, array: np.ndarray) -> ArraySlot:
        """Park ``array`` at offset 0; returns the slot a peer reads."""
        array = np.ascontiguousarray(array)
        self.ensure(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=self._segment.buf)
        view[...] = array
        return ArraySlot(name=self._segment.name, shape=tuple(array.shape),
                         dtype=str(array.dtype))

    def read(self, slot: ArraySlot) -> np.ndarray:
        """Copy out an array a peer parked in *this* channel's segment."""
        if self._segment is None or slot.name != self._segment.name:
            raise ValueError(
                f"slot names segment {slot.name!r} but this channel owns "
                f"{self.name!r} — was the channel resized mid-flight?")
        view = np.ndarray(slot.shape, dtype=np.dtype(slot.dtype),
                          buffer=self._segment.buf)
        return np.array(view)  # copy: the segment is reused next call

    def unlink(self) -> None:
        """Free the segment (idempotent; owner side only).

        Cleanup boundary: double-close and atexit races surface as
        ``FileNotFoundError``/``EBADF`` here and are swallowed — the
        segment is gone either way.  Hot-path reads and writes never
        mask those errors.
        """
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
        except OSError:
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


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
# State-dict transport — whole model states through shared memory.
# ---------------------------------------------------------------------------

#: Array offsets inside a state segment are rounded up to this boundary
#: so every view handed to numpy is safely aligned for any dtype.
_STATE_ALIGN = 64


class StateVerifyError(RuntimeError):
    """A state payload's content fingerprint failed verification.

    Transport-level corruption (torn write, segment reuse mid-flight,
    an injected ``corrupt_fingerprint`` fault) — as opposed to the
    registration-drift fingerprint mismatch ``folded_replica`` raises.
    The distinction matters for recovery: a transport failure is fixed
    by re-shipping the same state, a drift failure never is.
    """


@dataclass(frozen=True)
class StateEntry:
    """Layout of one named array inside a packed state payload."""

    key: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int


@dataclass(frozen=True)
class StateSlot:
    """Picklable descriptor of one whole state dict parked in a segment.

    Carries everything needed to rebuild the dict bit-for-bit — entry
    names in their original order, per-array shape/dtype/offset, and a
    content fingerprint the reader re-verifies — while the arrays
    themselves never touch the pipe.
    """

    name: str                       # segment holding the payload
    entries: Tuple[StateEntry, ...]
    nbytes: int                     # payload end offset within the segment
    fingerprint: str

    @property
    def num_arrays(self) -> int:
        return len(self.entries)


def _align(offset: int) -> int:
    return (offset + _STATE_ALIGN - 1) // _STATE_ALIGN * _STATE_ALIGN


def state_fingerprint(state: Dict[str, np.ndarray]) -> str:
    """Content digest of a state dict (names + raw bytes, sorted order).

    Matches byte-for-byte equality: two states with equal fingerprints
    rebuild bit-identical models.  Sorted iteration makes the digest
    independent of dict insertion order.
    """
    digest = hashlib.sha1()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


def packed_nbytes(state: Dict[str, np.ndarray]) -> int:
    """Bytes one state dict occupies when packed (aligned)."""
    offset = 0
    for value in state.values():
        offset = _align(offset) + np.asarray(value).nbytes
    return offset


def _pack_state(buf, state: Dict[str, np.ndarray],
                segment_name: str) -> StateSlot:
    """Copy every array of ``state`` into ``buf`` starting at offset 0."""
    entries = []
    offset = 0
    for key, value in state.items():
        # Not ascontiguousarray: that would promote 0-d arrays to 1-d
        # and the unpacked dict must restore the exact original shapes.
        array = np.asarray(value)
        if not array.flags.c_contiguous:
            array = array.copy(order="C")
        offset = _align(offset)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=buf,
                          offset=offset)
        view[...] = array
        entries.append(StateEntry(key=key, shape=tuple(array.shape),
                                  dtype=str(array.dtype), offset=offset))
        offset += array.nbytes
    return StateSlot(name=segment_name, entries=tuple(entries),
                     nbytes=offset, fingerprint=state_fingerprint(state))


def _unpack_state(buf, slot: StateSlot,
                  verify: bool = True) -> Dict[str, np.ndarray]:
    """Copy a packed state dict back out of ``buf`` (order-preserving)."""
    state: Dict[str, np.ndarray] = {}
    for entry in slot.entries:
        view = np.ndarray(entry.shape, dtype=np.dtype(entry.dtype),
                          buffer=buf, offset=entry.offset)
        state[entry.key] = np.array(view)   # copy: segments get reused
    if verify:
        actual = state_fingerprint(state)
        if actual != slot.fingerprint:
            raise StateVerifyError(
                f"state payload in segment {slot.name!r} hashes to "
                f"{actual[:12]}, expected {slot.fingerprint[:12]} — torn "
                f"write or segment reuse mid-flight?")
    return state


class StateChannel(ArrayChannel):
    """Growable shared-memory lane for whole state dicts.

    The state-transport counterpart of :class:`ArrayChannel`: the same
    owner-creates / peer-attaches / grow-by-rename lifecycle, but the
    payload is a full ``state_dict`` (every parameter and buffer of a
    model) packed back-to-back with a verified content fingerprint.
    The serving plane rides it (owner writes, peer reads): the parent
    parks a model version's state once and every worker process copies
    it out to build its replica — the state crosses the pipe as a tiny
    :class:`StateSlot`, never as pickled arrays.

    Single-flight per lane, like the array channels: the caller
    sequences writes and reads so a segment is never overwritten while
    the other side still reads it.
    """

    def write_state(self, state: Dict[str, np.ndarray]) -> StateSlot:
        """Pack one state dict at offset 0, growing the lane to fit."""
        self.ensure(packed_nbytes(state))
        slot = _pack_state(self._segment.buf, state, self._segment.name)
        if _faults.ACTIVE is not None:
            fault = _faults.ACTIVE.check("state.write")
            if fault is not None and fault.kind == "corrupt_fingerprint":
                # Advertise a wrong content hash: the reader's verify
                # must catch it (StateVerifyError), as it would a torn
                # write racing a segment reuse.
                slot = replace(slot, fingerprint="0" * 40)
        return slot

    def read_state(self, slot: StateSlot,
                   verify: bool = True) -> Dict[str, np.ndarray]:
        """Copy out a state dict a peer packed into *this* lane."""
        if self._segment is None or slot.name != self._segment.name:
            raise ValueError(
                f"slot names segment {slot.name!r} but this channel owns "
                f"{self.name!r} — was the channel resized mid-flight?")
        return _unpack_state(self._segment.buf, slot, verify=verify)


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


class ChannelPeer:
    """Worker-side attachment cache for :class:`ArrayChannel` segments.

    Channels grow by renaming, so a long-lived worker sees a small,
    slowly-changing set of segment names.  The cache keeps the most
    recent attachments open (attach once, reuse every call) and closes
    the eldest beyond ``capacity`` — closed-but-unlinked segments stay
    valid for any reader still mapping them, so eviction is safe.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = max(1, capacity)
        self._segments: "dict[str, shared_memory.SharedMemory]" = {}

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        segment = self._segments.get(name)
        if segment is None:
            segment = _attach_untracked(name)
            self._segments[name] = segment
            while len(self._segments) > self.capacity:
                stale_name = next(iter(self._segments))
                stale = self._segments.pop(stale_name)
                try:
                    stale.close()
                except OSError:
                    pass
        return segment

    def read(self, slot: ArraySlot) -> np.ndarray:
        """Copy an array out of the named segment."""
        segment = self._attach(slot.name)
        view = np.ndarray(slot.shape, dtype=np.dtype(slot.dtype),
                          buffer=segment.buf)
        return np.array(view)

    def write(self, name: str, array: np.ndarray) -> ArraySlot:
        """Park ``array`` at offset 0 of the named segment."""
        array = np.ascontiguousarray(array)
        segment = self._attach(name)
        if array.nbytes > segment.size:
            raise ValueError(
                f"array of {array.nbytes} bytes exceeds segment "
                f"{name!r} capacity {segment.size}")
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ArraySlot(name=name, shape=tuple(array.shape),
                         dtype=str(array.dtype))

    def read_state(self, slot: StateSlot,
                   verify: bool = True) -> Dict[str, np.ndarray]:
        """Copy a whole state dict out of the named segment (verified)."""
        segment = self._attach(slot.name)
        return _unpack_state(segment.buf, slot, verify=verify)

    def close(self) -> None:
        """Drop every attachment (never unlinks)."""
        for segment in self._segments.values():
            try:
                segment.close()
            except OSError:
                pass
        self._segments = {}

    def unlink_all(self) -> None:
        """Unlink every cached attachment — orphan recovery only.

        Segment lifecycle belongs to the creating (parent) process; a
        worker orphaned by a SIGKILLed parent is the last process
        standing, so the unlink duty falls to it.  Sibling orphans may
        race over a shared segment — losing that race is ENOENT, which
        is fine.
        """
        for segment in self._segments.values():
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
            try:
                segment.close()
            except OSError:
                pass
        self._segments = {}
