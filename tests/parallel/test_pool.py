"""Process-pool executor: ordering, fan-out, crash propagation."""

import itertools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

from repro.parallel.pool import (MAX_SHARES, WorkerError, bundled_openblas,
                                 caller_share, ensure_picklable,
                                 resolve_workers, run_tasks)

pytestmark = pytest.mark.parallel


@dataclass(frozen=True)
class AddTask:
    a: int
    b: int
    label: str = ""

    def run(self) -> int:
        return self.a + self.b


@dataclass(frozen=True)
class PidTask:
    label: str = ""

    def run(self) -> int:
        return os.getpid()


@dataclass(frozen=True)
class SlowPidTask:
    """Holds its process long enough that every worker gets a task."""

    seconds: float = 0.2
    label: str = ""

    def run(self) -> int:
        time.sleep(self.seconds)
        return os.getpid()


@dataclass(frozen=True)
class CostTask:
    """Declares a cost; sleeps ``seconds`` and reports its process."""

    cost: int
    seconds: float = 0.0
    label: str = ""

    def run(self) -> tuple:
        time.sleep(self.seconds)
        return self.cost, os.getpid()


def blas_threads() -> int:
    return bundled_openblas().scipy_openblas_get_num_threads64_()


@dataclass(frozen=True)
class BlasThreadsTask:
    label: str = ""

    def run(self) -> int:
        return blas_threads()


needs_openblas = pytest.mark.skipif(
    bundled_openblas() is None,
    reason="numpy has no bundled OpenBLAS thread-count symbol")


@dataclass(frozen=True)
class BoomTask:
    label: str = "boom"

    def run(self) -> None:
        raise ValueError("original failure message 12345")


@dataclass(frozen=True)
class DieTask:
    """Simulates an OOM-kill/segfault: the process vanishes mid-task."""

    label: str = "die"

    def run(self) -> None:
        os._exit(1)


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_is_auto(self):
        # Auto sizes to the *available* CPUs (affinity mask), not the
        # whole machine — restricted CI containers must not oversubscribe.
        from repro.parallel import available_cpu_count
        assert resolve_workers(0) == available_cpu_count()

    def test_auto_respects_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no CPU affinity API")
        assert resolve_workers(0) == len(os.sched_getaffinity(0))

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestRunTasks:
    def test_serial_preserves_order(self):
        tasks = [AddTask(i, 10 * i) for i in range(5)]
        assert run_tasks(tasks, workers=1) == [11 * i for i in range(5)]

    def test_parallel_preserves_order(self):
        tasks = [AddTask(i, 10 * i) for i in range(6)]
        assert run_tasks(tasks, workers=2) == [11 * i for i in range(6)]

    def test_parallel_runs_in_worker_processes(self):
        pids = run_tasks([PidTask() for _ in range(4)], workers=2)
        assert any(pid != os.getpid() for pid in pids)

    @needs_openblas
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_run_one_blas_thread(self, workers):
        """Pooled or inline, a task sees one BLAS thread (the thread
        count changes GEMM bits); the parent's setting comes back."""
        parent = blas_threads()
        assert run_tasks([BlasThreadsTask() for _ in range(2)],
                         workers=workers) == [1, 1]
        assert blas_threads() == parent

    def test_caller_runs_the_tail_share(self):
        """Two processes for two tasks: one worker, and the caller."""
        child, caller = run_tasks([PidTask(), PidTask()], workers=2)
        assert child != os.getpid()
        assert caller == os.getpid()

    def test_workers_counts_the_caller(self):
        """workers=3 over six tasks: two workers take the first four,
        the caller the last two."""
        pids = run_tasks([SlowPidTask() for _ in range(6)], workers=3)
        assert pids[4:] == [os.getpid(), os.getpid()]
        assert len(set(pids[:4])) == 2
        assert os.getpid() not in pids[:4]

    def test_single_task_runs_inline(self):
        assert run_tasks([PidTask()], workers=4) == [os.getpid()]

    def test_serial_crash_raises_original_exception(self):
        with pytest.raises(ValueError, match="original failure message"):
            run_tasks([BoomTask()], workers=1)

    def test_abruptly_killed_worker_raises_instead_of_hanging(self):
        """A worker dying without returning (OOM kill, segfault) must
        surface as WorkerError promptly, never hang the map forever."""
        with pytest.raises(WorkerError, match="died abruptly"):
            run_tasks([DieTask(), AddTask(1, 2)], workers=2)

    def test_caller_share_crash_raises_worker_error(self):
        """A task in the caller's share fails as it would in a worker."""
        with pytest.raises(WorkerError) as excinfo:
            run_tasks([AddTask(1, 2), BoomTask()], workers=2)
        assert excinfo.value.task_label == "boom"
        assert excinfo.value.error_type == "ValueError"
        assert "original failure message 12345" in str(excinfo.value)
        assert "in run" in excinfo.value.worker_traceback

    @pytest.mark.parametrize("tasks", [
        [AddTask(1, 2), AddTask(3, 4), AddTask(5, 6)],
        [BoomTask(), AddTask(3, 4)],
        [AddTask(1, 2), BoomTask()],
        [DieTask(), AddTask(3, 4)],
    ], ids=["ok", "worker-raises", "caller-raises", "worker-dies"])
    def test_no_child_outlives_the_call(self, tasks):
        try:
            run_tasks(tasks, workers=2)
        except WorkerError:
            pass
        assert multiprocessing.active_children() == []

    def test_worker_crash_surfaces_original_traceback(self):
        tasks = [AddTask(1, 2), BoomTask(), AddTask(3, 4)]
        with pytest.raises(WorkerError) as excinfo:
            run_tasks(tasks, workers=2)
        message = str(excinfo.value)
        assert "boom" in message                          # task label
        assert "ValueError" in message                    # original type
        assert "original failure message 12345" in message
        assert "in run" in excinfo.value.worker_traceback  # original frame


class TestCostSplit:
    #: perfbench ``pipeline``'s batch in row-epochs: the poison model,
    #: two SISA shard fits and their two camouflage-deletion retrains.
    PIPELINE = (5630, 4090, 4090, 2820, 2810)

    def test_pipeline_batch_gives_the_caller_half_in_two_tasks(self):
        share = caller_share(self.PIPELINE, 2)
        assert share == (0, 2)
        assert 2 * sum(self.PIPELINE[i] for i in share) == sum(self.PIPELINE)

    def test_share_is_the_most_balanced_of_its_size(self):
        costs = (7, 1, 13, 4, 4, 9, 2)
        for processes in (2, 3):
            share = caller_share(costs, processes)
            assert len(share) == len(costs) // processes
            gap = abs(processes * sum(costs[i] for i in share) - sum(costs))
            assert gap == min(
                abs(processes * sum(costs[i] for i in other) - sum(costs))
                for other in itertools.combinations(range(len(costs)),
                                                    len(share)))

    def test_equal_costs_give_the_tail(self):
        assert caller_share([1] * 6, 3) == (4, 5)
        assert caller_share([5] * 5, 2) == (3, 4)

    def test_past_the_search_limit_the_caller_takes_the_tail(self):
        costs = list(range(1, 17))       # C(16, 8) = 12870 shares
        assert math.comb(16, 8) > MAX_SHARES
        assert caller_share(costs, 2) == tuple(range(8, 16))

    def test_run_tasks_follows_the_costs_not_the_clock(self):
        """The cheap-but-slow tasks still go where their costs send
        them, and results come back in task order."""
        tasks = [CostTask(cost, seconds=0.3 if cost < 3000 else 0.0)
                 for cost in self.PIPELINE]
        results = run_tasks(tasks, workers=2)
        assert [cost for cost, _ in results] == list(self.PIPELINE)
        ran_here = tuple(i for i, (_, pid) in enumerate(results)
                         if pid == os.getpid())
        assert ran_here == caller_share(self.PIPELINE, 2)
        assert len({pid for _, pid in results}) == 2


class TestEnsurePicklable:
    def test_accepts_plain_objects(self):
        ensure_picklable(AddTask(1, 2), "task")

    def test_rejects_lambdas_with_hint(self):
        with pytest.raises(TypeError, match="worker processes"):
            ensure_picklable(lambda: None, "model_factory",
                             hint="Use ModelSpec.")
