"""Long-lived worker sessions: persistent processes serving method calls.

:func:`~repro.parallel.pool.run_tasks` is built for *batch* fan-out —
ship a task, get a result, tear the pool down.  The serving data plane
needs the opposite shape: a handful of **persistent** worker processes
that hold warm state (folded model replicas, attached shared-memory
segments) across many calls.  :class:`WorkerSession` provides that: one
process running a handler object built from a picklable zero-arg
factory, executing ``(method, args)`` requests received over a pipe and
answering each with a picklable outcome envelope.

Contract
--------
- One request is in flight per session at a time (a lock serializes the
  parent side); concurrency comes from holding several sessions.
- Handler exceptions never kill the worker: they come back as a
  formatted traceback and re-raise in the parent as
  :class:`~repro.parallel.pool.WorkerError` — the same crash-locality
  story as the batch pool.
- A worker that dies abruptly (OOM kill, segfault) is detected by the
  next call, which raises :class:`WorkerError` instead of hanging on a
  pipe that will never answer.
- ``close()`` asks the handler loop to exit (running the handler's own
  ``close()`` if it has one), joins, and escalates to ``terminate()``
  only on timeout.  Sessions are daemonic, so a parent that forgets to
  close still exits.

Large arrays should travel through :mod:`repro.parallel.shm` channels,
not through the pipe — the pipe is for control messages and small
payloads (the serving backend ships model state dicts through it once
per version, and logits come back via shared memory).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Any, Callable, Optional

from ..obs import profile as _profile
from ..reliability import faults as _faults
from .pool import WorkerError, _Outcome, default_context, set_blas_threads

#: Sentinel method name asking the worker loop to exit cleanly.
_SHUTDOWN = "__shutdown__"


def _session_main(factory: Callable[[], Any], conn) -> None:
    """Worker entry point: build the handler, answer calls until told not to."""
    # A Ctrl-C in the parent's terminal hits the whole foreground process
    # group, including these workers.  Shutdown is the *parent's* job
    # (it drains in-flight batches first, then sends the shutdown
    # sentinel); a worker that dies mid-KeyboardInterrupt would strand
    # those batches and spray tracebacks over the operator's console.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    set_blas_threads(1)
    handler = None
    build_error: Optional[_Outcome] = None
    try:
        handler = factory()
    except Exception:
        import traceback
        build_error = _Outcome(ok=False, error_type="HandlerBuildError",
                               traceback=traceback.format_exc())
    parent_pid = os.getppid()
    orphaned = False
    while True:
        try:
            if not conn.poll(1.0):
                # Daemonic workers are only reaped when the parent exits
                # *normally*; a SIGKILLed parent runs no atexit, and
                # fork-inherited copies of this pipe's ends (in sibling
                # workers spawned later) keep EOF from ever firing — so
                # watch for the orphan reparenting too.
                if os.getppid() != parent_pid:
                    orphaned = True
                    break
                continue
            method, args = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if method == _SHUTDOWN:
            conn.send(_Outcome(ok=True, value=os.getpid()))
            break
        if build_error is not None:
            conn.send(build_error)
            continue
        try:
            value = getattr(handler, method)(*args)
            outcome = _Outcome(ok=True, value=value)
        except Exception as exc:
            import traceback
            outcome = _Outcome(ok=False, error_type=type(exc).__name__,
                               traceback=traceback.format_exc())
        # Drain the handler's metric delta into the reply envelope: the
        # parent merges it into its worker registry, so worker counters
        # ship back piggybacked instead of via a separate scrape call.
        registry = getattr(handler, "obs_registry", None)
        if registry is not None:
            try:
                delta = registry.drain()
                if delta:
                    outcome.obs = delta
            except Exception:
                pass
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            break
    # On the orphan path the parent can never run its cleanup, so the
    # handler gets a chance at a stronger teardown (e.g. unlinking the
    # shared-memory lanes the dead parent created for this worker).
    closer = getattr(handler, "close_orphaned", None) if orphaned else None
    if not callable(closer):
        closer = getattr(handler, "close", None)
    if callable(closer):
        try:
            closer()
        except Exception:
            pass
    try:
        conn.close()
    except OSError:
        pass


class WorkerSession:
    """One persistent worker process executing handler method calls.

    Parameters
    ----------
    factory:
        Picklable zero-arg callable building the worker-side handler
        (e.g. ``functools.partial(ReplicaWorker, intra_op_threads=1)``).
        Built once, at process start; its state persists across calls.
    context:
        multiprocessing start method (default:
        :func:`~repro.parallel.pool.default_context`).
    name:
        Process name (shows up in ``ps`` and crash reports).
    """

    def __init__(self, factory: Callable[[], Any],
                 context: Optional[str] = None,
                 name: str = "repro-worker-session"):
        ctx = mp.get_context(context or default_context())
        parent_conn, child_conn = ctx.Pipe()
        self.name = name
        self._factory = factory
        self._context = context
        self._proc = ctx.Process(target=_session_main,
                                 args=(factory, child_conn),
                                 name=name, daemon=True)
        self._proc.start()
        child_conn.close()
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._poisoned = False
        self.calls = 0
        #: Optional :class:`repro.obs.metrics.Registry` the parent sets;
        #: worker-side metric deltas riding reply envelopes merge here.
        self.obs_sink = None

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    @property
    def poisoned(self) -> bool:
        """True once a call timed out: the pipe may hold a stale reply.

        A timed-out round-trip desynchronizes the request/reply stream —
        the worker's (late) answer would be read as the reply to the
        *next* call.  A poisoned session refuses further calls; the
        owner must :meth:`kill` + :meth:`respawn` it.
        """
        return self._poisoned

    def call(self, method: str, *args: Any,
             timeout: Optional[float] = None) -> Any:
        """Invoke ``handler.<method>(*args)`` in the worker; block for the
        result.  Raises :class:`WorkerError` on handler exceptions and on
        a dead worker, ``TimeoutError`` past ``timeout`` seconds."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"session {self.name!r} is closed")
            if self._poisoned:
                raise WorkerError(
                    f"{self.name}:{method}", "StalledWorker",
                    f"session {self.name!r} timed out on an earlier call; "
                    f"the pipe may hold a stale reply — respawn the worker")
            fault = None
            if _faults.ACTIVE is not None:
                fault = _faults.ACTIVE.check(f"session.call:{self.name}")
            if fault is not None and fault.kind == "crash":
                # Emulate a worker the OS killed between calls.
                if self._proc.is_alive():
                    self._proc.kill()
                self._proc.join(timeout=5.0)
            try:
                if fault is not None and fault.kind == "send_error":
                    raise BrokenPipeError("injected: request pipe write failed")
                self._conn.send((method, args))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerError(
                    f"{self.name}:{method}", "BrokenWorker",
                    f"worker process (pid {self.pid}) is gone: {exc}") from exc
            if fault is not None and fault.kind == "crash_mid":
                # Emulate a worker dying mid-batch: request delivered,
                # reply never comes.  A tiny forward can win the race
                # and reply before the SIGKILL lands — drop anything in
                # the pipe so the injected outcome stays deterministic.
                if self._proc.is_alive():
                    self._proc.kill()
                self._proc.join(timeout=5.0)
                try:
                    while self._conn.poll(0):
                        self._conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerError(
                    f"{self.name}:{method}", "BrokenWorker",
                    f"worker process (pid {self.pid}) died before replying "
                    f"(injected crash mid-call)")
            if fault is not None and fault.kind == "stall":
                # The request *was* sent, so the worker's eventual reply
                # goes stale in the pipe — exactly what a real deadline
                # overrun leaves behind.
                self._poisoned = True
                raise TimeoutError(
                    f"session {self.name!r} call {method!r} injected stall "
                    f"past deadline")
            _prof = _profile.ACTIVE
            prof_token = (_prof.start("session.call")
                          if _prof is not None else None)
            try:
                outcome = self._recv(method, timeout)
            except TimeoutError:
                self._poisoned = True
                raise
            finally:
                if _prof is not None:
                    _prof.stop(prof_token)
            self.calls += 1
            obs = getattr(outcome, "obs", None)
            if obs and self.obs_sink is not None:
                try:
                    self.obs_sink.merge(obs)
                except ValueError:
                    pass    # bounds drift across versions: drop, don't raise
        if not outcome.ok:
            raise WorkerError(f"{self.name}:{method}", outcome.error_type,
                              outcome.traceback)
        return outcome.value

    def _recv(self, method: str, timeout: Optional[float]) -> _Outcome:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._conn.poll(0.05):
            if not self._proc.is_alive():
                raise WorkerError(
                    f"{self.name}:{method}", "BrokenWorker",
                    f"worker process (pid {self.pid}) died before replying "
                    f"(exitcode {self._proc.exitcode}) — killed by the OS? "
                    f"out of memory?")
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"session {self.name!r} call {method!r} timed out "
                    f"after {timeout:g}s")
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(
                f"{self.name}:{method}", "BrokenWorker",
                f"worker pipe closed mid-reply: {exc}") from exc

    def kill(self, timeout: float = 5.0) -> None:
        """SIGKILL the worker process; the session object stays open.

        Supervision uses this to put a poisoned session (timed-out call
        — the pipe may hold a stale reply) into the same state as a
        crashed worker before :meth:`respawn`.  Safe on a dead worker.
        """
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join(timeout=timeout)

    def respawn(self, timeout: float = 10.0) -> "WorkerSession":
        """A fresh session running the same factory under the same name.

        Recovery path for a worker that died mid-call (OOM kill,
        segfault): close out this session's remains and hand back a
        replacement process.  The replacement starts *empty* — the
        handler is rebuilt from the factory, so any warm state shipped
        to the dead worker (model replicas, channel attachments) must be
        re-shipped by the caller.
        """
        self.close(timeout=timeout)
        fresh = WorkerSession(self._factory, context=self._context,
                              name=self.name)
        fresh.obs_sink = self.obs_sink
        return fresh

    def close(self, timeout: float = 10.0) -> None:
        """Stop the worker (graceful, then ``terminate()``).  Idempotent.

        Bounded: an in-flight :meth:`call` gets ``timeout`` seconds to
        finish naturally; past that the worker process is terminated,
        which makes the stuck call raise :class:`WorkerError` promptly —
        close never waits out a wedged call's own (much longer)
        ``call_timeout``.
        """
        if self._closed:
            return
        # Concurrent closers serialize here (atexit racing a pool
        # shutdown, say).  Without this, a second closer would mistake
        # the first one's hold on ``_lock`` for a wedged in-flight call
        # and terminate a worker that is shutting down gracefully.
        with self._close_lock:
            if self._closed:
                return      # another close() finished while we waited
            wedged = not self._lock.acquire(timeout=timeout)
            if wedged:
                # A wedged in-flight call holds the lock.  Kill the
                # worker: the caller's poll loop sees the dead process,
                # errors out, and releases the lock within one poll
                # interval.
                self._closed = True
                if self._proc.is_alive():
                    self._proc.terminate()
                self._lock.acquire()
            try:
                self._closed = True
                if not wedged and not self._poisoned \
                        and self._proc.is_alive():
                    try:
                        self._conn.send((_SHUTDOWN, ()))
                        deadline = time.monotonic() + timeout
                        while (not self._conn.poll(0.05)
                               and time.monotonic() < deadline
                               and self._proc.is_alive()):
                            pass
                        if self._conn.poll(0):
                            self._conn.recv()
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                elif self._poisoned and self._proc.is_alive():
                    # The pipe is desynchronized; a graceful handshake
                    # would read the stale reply as the shutdown ack.
                    self._proc.terminate()
                self._proc.join(timeout=timeout)
                if self._proc.is_alive():
                    self._proc.terminate()
                    self._proc.join(timeout=timeout)
                try:
                    self._conn.close()
                except OSError:
                    pass
            finally:
                self._lock.release()

    def __enter__(self) -> "WorkerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
