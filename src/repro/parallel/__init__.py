"""Deterministic process-pool execution for independent trainings.

The repo's hot loops are *many independent trainings*: SISA trains one
model per shard and retrains shards on deletion, ``run_pipeline``
trains the poison model beside them in one batch, ``run_replicated``
repeats a pipeline across seeds, and the benchmark suite sweeps
dataset × attack × cr grids.  This package fans those out across
processes without changing a single computed bit.  ``workers=N`` means
N processes counting the caller: :func:`~repro.parallel.pool.run_tasks`
forks N-1 workers and runs a share of the tasks in the calling process
while they work, picked from the tasks' declared costs.

Determinism contract
--------------------
Every task shipped to a worker is **self-seeding**: it carries the exact
seeds it needs (model-init seed, per-stage training seeds) and re-seeds
the process-local RNGs itself before drawing from them.  No task reads
global RNG state established by the parent, so results are a pure
function of the task spec — independent of worker count, scheduling
order, or which process runs them.  ``workers=1`` runs the identical
task objects inline in the parent, as the caller's share does in a
pooled call; the test suite asserts parallel and serial results are
bit-identical.

Shared-memory lifecycle contract
--------------------------------
Datasets are handed to workers zero-copy via
``multiprocessing.shared_memory`` (:mod:`repro.parallel.shm`).  The
parent *publishes* a dataset (``SharedDataset.publish`` /
``share_dataset``) and is the only party allowed to ``unlink`` the
segments; publishing APIs are context managers so segments are unlinked
even when a task raises.  Workers (and the caller, for its own share)
*attach* by name, copy out the rows they train on, and ``close`` their
mapping before returning — they never unlink.  Handles (:class:`~repro.parallel.shm.SharedDatasetHandle`) are
small picklable descriptors (segment names + shapes + dtypes), so the
arrays themselves are never pickled through the task pipe.

Errors raised inside a pooled task, in a worker or in the caller's
share, are re-raised in the parent as
:class:`~repro.parallel.pool.WorkerError` carrying the original
formatted traceback.
"""

from .pool import (WorkerError, available_cpu_count, default_context,
                   resolve_workers, run_tasks)
from .shm import (SharedDataset, SharedDatasetHandle, leaked_segments,
                  share_dataset, shm_segment_names)
from .tasks import ModelSpec, ShardTrainResult, ShardTrainTask, StageSpec

__all__ = [
    "WorkerError", "available_cpu_count", "default_context",
    "resolve_workers", "run_tasks",
    "shm_segment_names", "leaked_segments",
    "SharedDataset", "SharedDatasetHandle", "share_dataset",
    "ModelSpec", "ShardTrainResult", "ShardTrainTask", "StageSpec",
]
