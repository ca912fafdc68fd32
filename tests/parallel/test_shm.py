"""Shared-memory dataset handoff: zero-copy views, strict lifecycle."""

import errno
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.dataset import ArrayDataset
from repro.parallel import shm
from repro.parallel.pool import run_tasks
from repro.parallel.shm import (SharedDataset, SharedDatasetHandle,
                                leaked_segments, share_dataset,
                                shm_segment_names)

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def unit_train():
    train, _, _ = load_dataset("unit", seed=0)
    return train


def _assert_unlinked(handle: SharedDatasetHandle) -> None:
    for spec in (handle.images, handle.labels, handle.sample_ids):
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.name)


@dataclass(frozen=True)
class SumTask:
    """Attach in a worker, reduce, close — the canonical consumer."""

    handle: SharedDatasetHandle
    label: str = ""

    def run(self):
        with self.handle.open() as dataset:
            return (float(dataset.images.sum()), int(dataset.labels.sum()),
                    int(dataset.sample_ids.sum()))


class TestRoundTrip:
    def test_arrays_identical(self, unit_train):
        with share_dataset(unit_train) as handle:
            with handle.open() as view:
                assert np.array_equal(view.images, unit_train.images)
                assert np.array_equal(view.labels, unit_train.labels)
                assert np.array_equal(view.sample_ids, unit_train.sample_ids)

    def test_views_are_read_only(self, unit_train):
        with share_dataset(unit_train) as handle:
            with handle.open() as view:
                with pytest.raises(ValueError):
                    view.images[0, 0, 0, 0] = 1.0

    def test_handle_is_small_and_picklable(self, unit_train):
        with share_dataset(unit_train) as handle:
            payload = pickle.dumps(handle)
            # The arrays must not travel through the pickle stream.
            assert len(payload) < 2048 < unit_train.images.nbytes
            clone = pickle.loads(payload)
            with clone.open() as view:
                assert np.array_equal(view.images, unit_train.images)

    def test_worker_process_reads_shared_segments(self, unit_train):
        with share_dataset(unit_train) as handle:
            results = run_tasks([SumTask(handle) for _ in range(3)],
                                workers=2)
        expected = (float(unit_train.images.sum()),
                    int(unit_train.labels.sum()),
                    int(unit_train.sample_ids.sum()))
        assert results == [expected] * 3
        _assert_unlinked(handle)


class TestLifecycle:
    def test_unlinked_after_context_exit(self, unit_train):
        with share_dataset(unit_train) as handle:
            pass
        _assert_unlinked(handle)

    def test_unlinked_when_body_raises(self, unit_train):
        with pytest.raises(RuntimeError, match="simulated"):
            with share_dataset(unit_train) as handle:
                raise RuntimeError("simulated task failure")
        _assert_unlinked(handle)

    def test_unlink_is_idempotent(self, unit_train):
        lease = SharedDataset.publish(unit_train)
        lease.unlink()
        lease.unlink()
        _assert_unlinked(lease.handle)

    def test_worker_close_does_not_unlink(self, unit_train):
        with share_dataset(unit_train) as handle:
            attachment = handle.open()
            attachment.close()
            # Parent's segments must still be attachable.
            with handle.open() as view:
                assert view.images.shape == unit_train.images.shape
        _assert_unlinked(handle)

    def test_failed_allocation_frees_published_segments(self, monkeypatch):
        # The second allocation (labels) fails after the images segment
        # exists, so publish must unlink that one before re-raising.
        dataset = ArrayDataset(np.zeros((4, 1, 2, 2), np.float32),
                               np.arange(4))
        create = shm._create_segment
        calls = []

        def second_call_fails(nbytes):
            calls.append(nbytes)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "no space left on /dev/shm")
            return create(nbytes)

        monkeypatch.setattr(shm, "_create_segment", second_call_fails)
        before = shm_segment_names()
        with pytest.raises(OSError) as info:
            SharedDataset.publish(dataset)
        assert info.value.errno == errno.ENOSPC
        assert len(calls) == 2
        assert leaked_segments(before) == []
