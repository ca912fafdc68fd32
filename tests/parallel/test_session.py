"""WorkerSession + ArrayChannel: the long-lived worker substrate."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.parallel import ArrayChannel, ChannelPeer, WorkerError, WorkerSession
from repro.parallel.pool import bundled_openblas
from repro.reliability import Fault, FaultPlan, injected

pytestmark = pytest.mark.parallel


class Echo:
    """Handler used by the session tests (module-level: picklable)."""

    def __init__(self, bias: int = 0):
        self.bias = bias
        self.calls = 0

    def pid(self) -> int:
        return os.getpid()

    def add(self, a, b):
        self.calls += 1
        return a + b + self.bias

    def counter(self) -> int:
        return self.calls

    def boom(self):
        raise ValueError("worker-side kaboom")

    def suicide(self):
        os._exit(17)

    def nap(self, seconds):
        import time
        time.sleep(seconds)
        return "rested"

    def blas_threads(self) -> int:
        return bundled_openblas().scipy_openblas_get_num_threads64_()

    def read_slot(self, slot):
        peer = ChannelPeer()
        try:
            return peer.read(slot)
        finally:
            peer.close()


class TestWorkerSession:
    def test_calls_run_in_another_process(self):
        with WorkerSession(Echo) as session:
            assert session.call("pid") != os.getpid()
            assert session.call("pid") == session.pid

    @pytest.mark.skipif(bundled_openblas() is None,
                        reason="numpy has no bundled OpenBLAS thread-count symbol")
    def test_worker_runs_one_blas_thread(self):
        with WorkerSession(Echo) as session:
            assert session.call("blas_threads") == 1

    def test_state_persists_across_calls(self):
        with WorkerSession(Echo) as session:
            session.call("add", 1, 2)
            session.call("add", 3, 4)
            assert session.call("counter") == 2
            assert session.calls == 3

    def test_factory_arguments(self):
        import functools
        with WorkerSession(functools.partial(Echo, bias=10)) as session:
            assert session.call("add", 1, 2) == 13

    def test_handler_error_relayed_with_traceback(self):
        with WorkerSession(Echo) as session:
            with pytest.raises(WorkerError, match="kaboom") as excinfo:
                session.call("boom")
            assert "ValueError" in str(excinfo.value)
            # The session survives a handler exception.
            assert session.call("add", 1, 1) == 2

    def test_dead_worker_detected_not_hung(self):
        session = WorkerSession(Echo)
        try:
            # Either detection path is fine: liveness polling ("died
            # before replying") or the EOF on the broken pipe.
            with pytest.raises(WorkerError, match="died|pipe closed"):
                session.call("suicide")
        finally:
            session.close()

    def test_close_terminates_wedged_call_within_timeout(self):
        import threading
        import time
        session = WorkerSession(Echo)
        errors = []

        def wedged():
            try:
                session.call("nap", 60)
            except WorkerError as exc:
                errors.append(exc)

        thread = threading.Thread(target=wedged, daemon=True)
        thread.start()
        time.sleep(0.2)                 # let the call reach the worker
        start = time.monotonic()
        session.close(timeout=0.5)
        assert time.monotonic() - start < 5.0   # never waits out the nap
        thread.join(timeout=10.0)
        assert errors, "the wedged call should raise, not hang"
        assert not session.alive

    def test_close_is_idempotent_and_kills_process(self):
        session = WorkerSession(Echo)
        pid = session.pid
        session.close()
        session.close()
        assert not session.alive
        with pytest.raises(RuntimeError, match="closed"):
            session.call("pid")
        with pytest.raises(OSError):
            os.kill(pid, 0)

    def test_timeout_poisons_session_until_respawn(self):
        session = WorkerSession(Echo)
        try:
            with pytest.raises(TimeoutError, match="timed out"):
                session.call("nap", 30, timeout=0.1)
            assert session.poisoned
            # The pipe may hold the worker's late reply: reusing the
            # session would desynchronize request/reply, so it refuses.
            with pytest.raises(WorkerError, match="StalledWorker"):
                session.call("pid")
            session.kill()
            fresh = session.respawn()
            try:
                assert not fresh.poisoned
                assert fresh.call("add", 1, 2) == 3
            finally:
                fresh.close()
        finally:
            session.close(timeout=1.0)

    def test_kill_then_close_never_hangs(self):
        session = WorkerSession(Echo)
        session.kill()
        assert not session.alive
        session.close(timeout=1.0)


class TestFaultInjection:
    """Injected faults must be indistinguishable from the real failures."""

    def test_injected_crash_reads_as_dead_worker(self):
        plan = FaultPlan([Fault("session.call:faulty", 2, "crash")])
        with injected(plan) as injector:
            with WorkerSession(Echo, name="faulty") as session:
                assert session.call("add", 1, 1) == 2
                with pytest.raises(WorkerError, match="died|pipe closed|gone"):
                    session.call("add", 2, 2)
                assert not session.alive
            assert injector.stats()["events"] == [
                {"site": "session.call:faulty", "call": 2, "kind": "crash"}]

    def test_injected_crash_mid_call_loses_the_reply(self):
        plan = FaultPlan([Fault("session.call:faulty", 1, "crash_mid")])
        with injected(plan):
            session = WorkerSession(Echo, name="faulty")
            try:
                with pytest.raises(WorkerError,
                                   match="died|pipe closed|gone"):
                    session.call("add", 1, 1)
                assert not session.alive
                fresh = session.respawn()
                try:
                    assert fresh.call("add", 1, 1) == 2
                finally:
                    fresh.close()
            finally:
                session.close(timeout=1.0)

    def test_injected_stall_poisons_like_a_real_timeout(self):
        plan = FaultPlan([Fault("session.call:faulty", 2, "stall")])
        with injected(plan):
            session = WorkerSession(Echo, name="faulty")
            try:
                assert session.call("add", 1, 1) == 2
                with pytest.raises(TimeoutError, match="injected stall"):
                    session.call("add", 2, 2)
                assert session.poisoned
                with pytest.raises(WorkerError, match="StalledWorker"):
                    session.call("counter")
            finally:
                session.close(timeout=1.0)

    def test_injected_send_error(self):
        plan = FaultPlan([Fault("session.call:faulty", 1, "send_error")])
        with injected(plan):
            with WorkerSession(Echo, name="faulty") as session:
                with pytest.raises(WorkerError, match="pipe"):
                    session.call("add", 1, 1)

    def test_unnamed_sessions_do_not_match_foreign_sites(self):
        plan = FaultPlan([Fault("session.call:faulty", 1, "crash")])
        with injected(plan) as injector:
            with WorkerSession(Echo) as session:
                assert session.call("add", 1, 2) == 3
            assert injector.stats()["fired"] == 0


class TestArrayChannel:
    def test_roundtrip_and_growth(self):
        channel = ArrayChannel(16)
        try:
            small = np.arange(4, dtype=np.float32)
            slot = channel.write(small)
            assert np.array_equal(channel.read(slot), small)
            first_name = channel.name
            big = np.arange(64, dtype=np.float64)
            slot = channel.write(big)
            assert channel.name != first_name  # grew into a fresh segment
            assert np.array_equal(channel.read(slot), big)
        finally:
            channel.unlink()

    def test_read_rejects_stale_slot(self):
        channel = ArrayChannel(16)
        try:
            slot = channel.write(np.zeros(2, dtype=np.float32))
            channel.ensure(1 << 16)     # resize: old name is gone
            with pytest.raises(ValueError, match="resized"):
                channel.read(slot)
        finally:
            channel.unlink()

    def test_unlink_idempotent_and_leak_free(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        channel = ArrayChannel(1024)
        channel.write(np.ones(8, dtype=np.float32))
        channel.unlink()
        channel.unlink()
        assert set(glob.glob("/dev/shm/psm_*")) == before

    def test_worker_reads_through_peer(self):
        channel = ArrayChannel(1024)
        try:
            payload = np.arange(12, dtype=np.float32).reshape(3, 4)
            slot = channel.write(payload)
            with WorkerSession(Echo) as session:
                assert np.array_equal(session.call("read_slot", slot), payload)
        finally:
            channel.unlink()

    def test_peer_write_respects_capacity(self):
        channel = ArrayChannel(16)
        peer = ChannelPeer()
        try:
            with pytest.raises(ValueError, match="exceeds segment"):
                peer.write(channel.name, np.zeros(1024, dtype=np.float64))
        finally:
            peer.close()
            channel.unlink()
