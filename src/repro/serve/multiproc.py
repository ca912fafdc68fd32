"""Multi-process execution backend: per-worker folded replicas.

Single-process serving tops out at one core's forward rate no matter
how well the scheduler coalesces — every fixed-width batch runs on the
same folded copy in the same process.  :class:`MultiprocBackend` breaks
that ceiling: ``N`` persistent worker processes
(:class:`~repro.parallel.session.WorkerSession`) each hold their own
folded inference replica per model version, and the scheduler's batches
are dispatched to whichever worker is free, up to ``N`` batches in
flight at once.

Replica shipping
----------------
A model version crosses the process boundary **once**, at
:meth:`~MultiprocBackend.ensure_loaded` time — and, by default, zero
bytes of it travel through the pipe: the parent parks the entry's
``state_dict`` in the backend-wide
:class:`~repro.parallel.shm.StateChannel` and ships only a tiny
:class:`~repro.parallel.shm.StateSlot` descriptor + factory +
fingerprint; every worker copies the state out of shared memory,
rebuilds and folds the replica locally
(:func:`repro.nn.fold.folded_replica`), refusing to serve if the
rebuilt weights hash differently from the fingerprint.  When shared
memory is unavailable the state dict pickles through the pipe instead
(same bits, fatter payload); entries registered without a factory ship
the pickled module itself.

Prefetch + warm-up
------------------
:meth:`ensure_loaded` is cheap enough to run at *registration* time,
which is exactly what the serving layer does when replica prefetch is
on: state ships to every worker before the first request exists, and
:meth:`warm_up` then runs one fixed-compute-width forward per worker so
the first real batch pays no lazy-initialization spike (kernel plans,
im2col scratch, channel attachments, grown shm lanes).  A worker that
dies while a replica is shipping is detected by the session layer,
respawned, and re-shipped everything it held — the backend stays
usable through the crash.

Shared-memory return path
-------------------------
Per worker, two :class:`~repro.parallel.shm.ArrayChannel` lanes carry
the arrays: the padded input batch goes out through one, the logits
come back through the other — only tiny slot descriptors (segment name
+ shape + dtype) cross the pipe.  Channels grow on demand; a reply that
does not fit yet falls back to the pipe once while the parent resizes
for the next call.  This closes the ROADMAP item about worker results
being pickled through the pool pipe.

Determinism
-----------
The fixed-compute-width contract survives the hop by construction:
every worker's replica is rebuilt from the same state dict (verified by
fingerprint), folding is deterministic, and the conv kernels are
bit-identical at every intra-op thread count — so *which* worker serves
a batch cannot change a single bit, and ``--serve-workers 1/2/4`` all
produce identical logits (enforced by ``tests/serve/test_multiproc.py``).

Workers are drained at interpreter shutdown via ``atexit`` — after the
live batchers, so in-flight batches complete before their compute
disappears.
"""

from __future__ import annotations

import atexit
import functools
import os
import queue
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from ..nn import graph as _graph
from ..nn.fold import _inference_copy_impl, folded_replica
from ..nn.tensor import Tensor
from ..nn.threading import set_intra_op_threads
from ..obs import trace as _trace
from ..obs.metrics import Registry
from ..parallel.pool import WorkerError, resolve_workers
from ..parallel.session import WorkerSession
from ..parallel.shm import (ArrayChannel, ArraySlot, ChannelPeer,
                            StateChannel, StateSlot)
from ..reliability import ReliabilityConfig
from . import batcher as _batcher


def _compiled_replica(replica, plan: dict):
    """Rebuild the parent's compiled program from its shipped plan.

    The plan carries the width, input shape and the parent's autotuned
    conv block table, so the worker compiles without timing a single
    candidate (``autotune=False``) — and the built-in verification
    forward still byte-checks the program against the local interpreted
    replica before it serves.  A trace failure degrades to the folded
    replica (one warning, interpreted serving), never to an error.
    """
    base = (replica.model if isinstance(replica, _graph.CompiledModel)
            else replica)
    shape = plan.get("input_shape")
    return _graph.compile(
        base, int(plan["width"]),
        input_shape=tuple(shape) if shape else None,
        tuned={str(k): int(v) for k, v in (plan.get("tuned") or {}).items()},
        autotune=False)


class ReplicaWorker:
    """Worker-side handler: replicas keyed by (name, version).

    Lives inside a :class:`WorkerSession` process.  ``load`` /
    ``load_model`` materialize folded replicas (compiling them when the
    payload shipped a plan); ``infer`` runs one fixed-width forward and
    parks the logits in the caller's output channel segment (falling
    back to the pipe when the segment is still too small — the parent
    grows it for the next call).
    """

    def __init__(self, intra_op_threads: int = 1):
        set_intra_op_threads(intra_op_threads)
        self._replicas: Dict[Hashable, object] = {}
        self._peer = ChannelPeer()
        # Worker-side metrics: drained into each reply envelope by the
        # session loop and merged into the parent's worker registry.
        self.obs_registry = Registry()
        self._infers = self.obs_registry.counter("infers")
        self._kernel_seconds = self.obs_registry.histogram("kernel_s")

    def ping(self) -> int:
        return os.getpid()

    def _install(self, key, replica, plan) -> int:
        if plan is not None:
            replica = _compiled_replica(replica, plan)
        self._replicas[tuple(key)] = replica
        return os.getpid()

    def load(self, key, factory, state, fingerprint, plan=None) -> int:
        """Materialize a replica from a pipe-shipped state dict (verified)."""
        return self._install(key, folded_replica(
            factory, state, expected_fingerprint=fingerprint), plan)

    def load_state(self, key, factory, slot: StateSlot, fingerprint,
                   plan=None) -> int:
        """Materialize a replica from a state dict parked in shared memory.

        Only the slot descriptor crossed the pipe; the arrays are copied
        out of the backend's state lane here, content-verified against
        the slot fingerprint, and the rebuilt replica is verified again
        against the registration fingerprint — a torn ship cannot serve
        a single divergent bit.
        """
        state = self._peer.read_state(slot)
        return self._install(key, folded_replica(
            factory, state, expected_fingerprint=fingerprint), plan)

    def load_model(self, key, model, plan=None) -> int:
        """Fallback: materialize from a pickled module (no factory)."""
        return self._install(key, _inference_copy_impl(model), plan)

    def compile(self, key, plan) -> int:
        """(Re)compile an already-loaded replica under a shipped plan."""
        replica = self._replicas.get(tuple(key))
        if replica is None:
            raise KeyError(f"no replica for {key!r} in worker {os.getpid()}")
        self._replicas[tuple(key)] = _compiled_replica(replica, plan)
        return os.getpid()

    def loaded_keys(self) -> List[tuple]:
        return sorted(self._replicas)

    def warm(self, key, batch_shape) -> int:
        """One zeros forward at the fixed width, no lanes involved.

        The recovery-time warm-up: the batch is materialized worker-side
        and nothing returns but the pid, so this cannot race another
        thread's in-flight writes to the handle's array lanes — the
        session pipe alone serializes it.
        """
        replica = self._replicas.get(tuple(key))
        if replica is None:
            raise KeyError(f"no replica for {key!r} in worker {os.getpid()}")
        replica(Tensor(np.zeros(tuple(batch_shape), dtype=np.float32)))
        return os.getpid()

    def infer(self, key, slot: ArraySlot, out_name: Optional[str],
              out_capacity: int) -> dict:
        replica = self._replicas.get(tuple(key))
        if replica is None:
            raise KeyError(
                f"no replica for {key!r} in worker {os.getpid()}; "
                f"loaded: {sorted(self._replicas)}")
        batch = self._peer.read(slot)
        kernel_started = time.perf_counter()
        logits = np.ascontiguousarray(replica(Tensor(batch)).data)
        kernel_s = time.perf_counter() - kernel_started
        self._infers.inc()
        self._kernel_seconds.observe(kernel_s)
        if out_name is not None and logits.nbytes <= out_capacity:
            out_slot = self._peer.write(out_name, logits)
            return {"via": "shm", "slot": out_slot, "kernel_s": kernel_s}
        return {"via": "pipe", "logits": logits,
                "needed_bytes": logits.nbytes, "kernel_s": kernel_s}

    def close(self) -> None:
        self._peer.close()
        self._replicas.clear()

    def close_orphaned(self) -> None:
        """Teardown after the parent died without cleanup (SIGKILL).

        The session loop calls this instead of :meth:`close` when it
        detects reparenting: the dead parent can never unlink the lanes
        it created for this worker, so the last process mapping them
        does it on the way out.
        """
        self._peer.unlink_all()
        self._replicas.clear()


class _WorkerHandle:
    """One session plus its two single-flight array lanes.

    ``supervisor`` (attached by the backend) tracks this slot's failure
    history and breaker state; ``ejected`` marks a slot the breaker has
    taken out of rotation — its lanes stay allocated (parent-owned) so
    a re-promoted worker re-attaches them by name.
    """

    def __init__(self, index: int, intra_op_threads: int,
                 context: Optional[str], input_bytes: int, output_bytes: int):
        self.index = index
        # Channels before the session: the first shm creation spawns the
        # resource-tracker process, and forked workers should inherit it
        # rather than each spawning their own.
        self.input = ArrayChannel(input_bytes)
        self.output = ArrayChannel(output_bytes)
        self.session = WorkerSession(
            functools.partial(ReplicaWorker, intra_op_threads),
            context=context, name=f"repro-serve-worker-{index}")
        self.supervisor = None
        self.ejected = False

    def respawn(self, timeout: float = 10.0) -> None:
        """Replace a dead worker process; the parent-owned lanes survive.

        The fresh process starts with no replicas and no channel
        attachments — the backend re-ships every loaded key right after
        (``MultiprocBackend._recover_handle``); the first call simply
        re-attaches the lanes by name.
        """
        self.session = self.session.respawn(timeout=timeout)

    def close(self, timeout: float = 10.0) -> None:
        self.session.close(timeout=timeout)
        self.input.unlink()
        self.output.unlink()


#: Live backends, drained at interpreter shutdown.
_LIVE: "weakref.WeakSet[MultiprocBackend]" = weakref.WeakSet()


def _close_live_backends() -> None:
    # Drain the batchers first: their in-flight batches need the workers
    # below to still be alive to complete.  (atexit runs hooks LIFO, and
    # this module is imported after `batcher`, so this hook fires first —
    # closing batchers here is idempotent with the batcher's own hook.)
    _batcher._close_live_batchers()
    for backend in list(_LIVE):
        backend.close()


atexit.register(_close_live_backends)


class MultiprocBackend:
    """Process-backed execution backend for :class:`~repro.serve.MicroBatcher`.

    Parameters
    ----------
    workers:
        Worker-process count (>= 1; 0 = one per available core).
    intra_op_threads:
        Conv-kernel threads per worker (default 1, so ``workers``
        processes x 1 thread stays at core count; the kernels are
        bit-identical at any value).
    context:
        multiprocessing start method (default: fork where available).
    call_timeout:
        Per-batch worker call budget in seconds; a worker that exceeds
        it is treated as failed (the request futures see the error).
    initial_input_bytes / initial_output_bytes:
        Starting capacity of the per-worker shm lanes (they grow on
        demand; the defaults fit a 32x(3,32,32) float32 batch and its
        logits without a single resize).
    reliability:
        :class:`~repro.reliability.ReliabilityConfig` — retry policy,
        per-worker failure threshold / respawn budget / breaker
        cooldown, and whether an all-workers-dead backend degrades to
        inline serving.  Defaults to the stock config.
    fallback_fn:
        ``fallback_fn(key, batch) -> logits`` run in the parent when
        every worker is ejected (the serving layer passes its own
        inline forward, which is bit-identical to a worker replica by
        the fingerprint contract).  Without one, an all-dead backend
        fails batches instead of degrading.
    """

    def __init__(self, workers: int = 2, intra_op_threads: int = 1,
                 context: Optional[str] = None, call_timeout: float = 120.0,
                 initial_input_bytes: int = 32 * 3 * 32 * 32 * 4,
                 initial_output_bytes: int = 32 * 256 * 4,
                 reliability: Optional[ReliabilityConfig] = None,
                 fallback_fn: Optional[Callable[[Hashable, np.ndarray],
                                                np.ndarray]] = None):
        self.workers = max(1, resolve_workers(workers))
        self.reliability = reliability or ReliabilityConfig()
        self._fallback_fn = fallback_fn
        # Per-call budget: the retry policy's deadline (when set) wins —
        # a stalled worker should trip supervision, not sit out the
        # generous transport timeout.
        deadline = self.reliability.retry.deadline_s
        self.call_timeout = (call_timeout if deadline is None
                             else min(call_timeout, deadline))
        self._handles: List[_WorkerHandle] = [
            _WorkerHandle(index, intra_op_threads, context,
                          initial_input_bytes, initial_output_bytes)
            for index in range(self.workers)
        ]
        for handle in self._handles:
            handle.supervisor = self.reliability.supervisor()
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        for handle in self._handles:
            self._idle.put(handle)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve-dispatch")
        self._ship_lock = threading.Lock()
        # Serializes warm-up sweeps: each drains the whole idle queue,
        # so two concurrent sweeps would deadlock holding one handle
        # each while waiting for the other's.
        self._warm_lock = threading.Lock()
        # Guards pool membership: active count, per-handle ejected flags
        # and supervisor transitions.  Leaf lock — nothing else is
        # acquired while holding it.
        self._pool_lock = threading.Lock()
        self._active_workers = self.workers
        # One probe at a time; non-blocking acquire so request threads
        # never queue up behind a re-promotion attempt.
        self._probe_lock = threading.Lock()
        # Serializes degraded-mode inline forwards (the parent is one
        # compute, and the folded copies are not thread-safe).
        self._degraded_lock = threading.Lock()
        self._shipped: Dict[Hashable, str] = {}     # key -> fingerprint
        self._entries: Dict[Hashable, object] = {}  # key -> store entry
        # One backend-wide state lane: the parent parks a version's
        # state dict once and every worker copies it out — N replicas,
        # one write.  Lazy (zero bytes until the first ship); if shared
        # memory turns out to be unavailable, each ship falls back to
        # the pipe in _prepare_payload.
        self._state_channel: Optional[StateChannel] = StateChannel()
        # Backend counters live in a typed registry (each increment is
        # individually thread-safe, no backend-wide stats lock); the
        # per-worker tallies are counter lists indexed by slot.
        self.registry = Registry()
        self._batches = self.registry.counter("batches")
        self._shm_returns = self.registry.counter("shm_returns")
        self._pipe_returns = self.registry.counter("pipe_returns")
        self._state_shm_ships = self.registry.counter("state_shm_ships")
        self._state_pipe_ships = self.registry.counter("state_pipe_ships")
        self._compile_ships = self.registry.counter("compile_ships")
        self._respawns = self.registry.counter("respawns")
        self._retries = self.registry.counter("retries")
        self._ship_retries = self.registry.counter("ship_retries")
        self._ejections = self.registry.counter("ejections")
        self._repromotions = self.registry.counter("repromotions")
        self._degraded_batches = self.registry.counter("degraded_batches")
        self._infer_counts = [self.registry.counter(f"infers_worker_{index}")
                              for index in range(self.workers)]
        self._warmup_counts = [self.registry.counter(f"warmups_worker_{index}")
                               for index in range(self.workers)]
        # Worker-process metrics (kernel timings, per-replica infer
        # counts) merge here from the deltas riding session replies.
        self.worker_registry = Registry()
        for handle in self._handles:
            handle.session.obs_sink = self.worker_registry
        self._warmed: set = set()                   # (key, batch shape)
        self._closed = False
        _LIVE.add(self)

    @property
    def max_inflight(self) -> int:
        """Concurrent-batch bound, shrunk to the *active* worker count.

        A property (re-read by the scheduler every loop) so an ejection
        immediately throttles dispatch to the surviving pool, and full
        degradation serializes batches through the inline fallback.
        """
        with self._pool_lock:
            return max(1, self._active_workers)

    @property
    def degraded(self) -> bool:
        """True while every worker is ejected (serving falls back inline)."""
        with self._pool_lock:
            return self._active_workers == 0

    # -- replica shipping ----------------------------------------------
    def ensure_loaded(self, key: Hashable, entry) -> None:
        """Ship ``entry``'s replica payload to every worker, once per key.

        ``entry`` is a :class:`~repro.serve.store.ModelEntry` (anything
        with ``fingerprint``, ``replica_payload()``).  Re-shipping the
        same key is a no-op; shipping a key whose fingerprint changed is
        rejected — registered models are immutable, hot-swap a new
        version instead.  A worker that dies while the replica ships is
        respawned, re-shipped its prior replicas, and retried once —
        the backend survives a crash-mid-prefetch.
        """
        shipped = self._shipped.get(key)
        if shipped == entry.fingerprint:
            return
        with self._ship_lock:
            shipped = self._shipped.get(key)
            if shipped == entry.fingerprint:
                return
            if shipped is not None:
                raise RuntimeError(
                    f"model {key!r} was re-registered with different "
                    f"weights after its replicas shipped; register a new "
                    f"version and hot-swap instead")
            payload = self._prepare_payload(entry)
            for handle in self._handles:
                if handle.ejected:
                    continue    # re-shipped at re-promotion time
                try:
                    self._ship_to_handle(handle, key, payload)
                except (WorkerError, TimeoutError) as exc:
                    if (handle.session.alive and not handle.session.poisoned
                            and getattr(exc, "error_type", "")
                            == "StateVerifyError"):
                        # Transport corruption, not drift: the parked
                        # payload went bad in flight.  Re-park the same
                        # state and ship again — the fingerprint proves
                        # the retry is the same bits.
                        self._ship_retries.inc()
                        payload = self._prepare_payload(entry)
                        self._ship_to_handle(handle, key, payload)
                        continue
                    if handle.session.alive and not handle.session.poisoned:
                        raise       # handler-side failure, not a crash
                    self._recover_handle_locked(handle)
                    # Recovery re-parked the dead worker's prior
                    # replicas through the state lane, so the in-flight
                    # slot is stale — re-park before retrying.
                    payload = self._prepare_payload(entry)
                    self._ship_to_handle(handle, key, payload)
            self._shipped[key] = entry.fingerprint
            self._entries[key] = entry

    def _prepare_payload(self, entry) -> dict:
        """Entry payload plus, when possible, its state parked in shm."""
        payload = entry.replica_payload()
        if payload["kind"] == "state" and self._state_channel is not None:
            try:
                payload = dict(payload)
                payload["slot"] = self._state_channel.write_state(
                    payload["state"])
            except OSError:
                payload.pop("slot", None)
        return payload

    def _ship_to_handle(self, handle: _WorkerHandle, key: Hashable,
                        payload: dict) -> None:
        plan = payload.get("plan")
        if payload["kind"] != "state":
            handle.session.call("load_model", key, payload["model"], plan,
                                timeout=self.call_timeout)
            return
        slot = payload.get("slot")
        if slot is not None:
            handle.session.call("load_state", key, payload["factory"],
                                slot, payload["fingerprint"], plan,
                                timeout=self.call_timeout)
            self._state_shm_ships.inc()
        else:
            handle.session.call("load", key, payload["factory"],
                                payload["state"], payload["fingerprint"],
                                plan, timeout=self.call_timeout)
            self._state_pipe_ships.inc()

    def compile_key(self, key: Hashable, plan: dict) -> int:
        """Push a compiled plan to every active worker holding ``key``.

        The explicit-compile path (``/v1/compile`` after replicas
        already shipped plan-less): each worker rebuilds its replica as
        a compiled program from the plan's autotune table.  Recovery
        needs no special casing — by the time this runs the parent
        entry is compiled, so :meth:`_recover_handle_locked`'s re-ship
        payloads carry the plan themselves.  Returns the worker count
        reached.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        shipped = 0
        with self._ship_lock:
            if key not in self._shipped:
                raise KeyError(
                    f"no replica shipped for {key!r}; call ensure_loaded() "
                    f"before compiling it")
            for handle in self._handles:
                if handle.ejected:
                    continue    # re-shipped (plan included) at re-promotion
                try:
                    handle.session.call("compile", key, plan,
                                        timeout=self.call_timeout)
                except (WorkerError, TimeoutError):
                    if handle.session.alive and not handle.session.poisoned:
                        raise   # handler-side failure, not a crash
                    self._recover_handle_locked(handle)
                shipped += 1
                self._compile_ships.inc()
        return shipped

    def _recover_handle_locked(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker and re-ship everything it held.

        Caller holds ``_ship_lock``.  The fresh process re-attaches the
        parent-owned lanes on first use; replicas for every
        already-shipped key are rebuilt from their (still parked or
        re-parked) payloads, and every warm-up the pool already ran is
        replayed worker-side (lane-free ``warm`` calls, so a concurrent
        dispatch on another thread cannot be raced) — the worker
        rejoins the pool fully warm, not just fully loaded.
        """
        handle.respawn()
        self._respawns.inc()
        with self._pool_lock:
            handle.supervisor.record_respawn()
        for shipped_key, shipped_entry in self._entries.items():
            try:
                self._ship_to_handle(handle, shipped_key,
                                     self._prepare_payload(shipped_entry))
            except WorkerError as exc:
                if (handle.session.alive and not handle.session.poisoned
                        and exc.error_type == "StateVerifyError"):
                    # Same transport-corruption retry as ensure_loaded.
                    self._ship_retries.inc()
                    self._ship_to_handle(handle, shipped_key,
                                         self._prepare_payload(shipped_entry))
                else:
                    raise
        for warmed_key, batch_shape in sorted(self._warmed):
            if warmed_key in self._entries:
                handle.session.call("warm", warmed_key, batch_shape,
                                    timeout=self.call_timeout)
                self._warmup_counts[handle.index].inc()

    # -- warm-up -------------------------------------------------------
    def warm_up(self, key: Hashable, input_shape, width: int) -> int:
        """Run one fixed-width zeros forward per worker for ``key``.

        Pays every first-use cost up front — kernel planning, im2col
        scratch allocation, worker channel attachments, return-lane
        growth — so the first *real* batch at this width runs at
        steady-state latency.  Idempotent per (key, batch shape);
        returns the number of worker forwards actually run.
        """
        batch_shape = (int(width),) + tuple(int(dim) for dim in input_shape)
        mark = (key, batch_shape)
        with self._ship_lock:
            if key not in self._shipped:
                raise KeyError(
                    f"no replica shipped for {key!r}; call ensure_loaded() "
                    f"before warming it up")
            if mark in self._warmed:
                return 0
        batch = np.zeros(batch_shape, dtype=np.float32)
        warmed = 0
        # One sweep at a time (_warm_lock): a sweep drains the whole
        # idle queue, so concurrent sweeps would each hold part of the
        # pool while waiting for the rest.  In-flight batches simply
        # delay their handle's turn.  Only *active* handles are swept —
        # ejected ones are out of the queue entirely (they re-warm at
        # re-promotion time), and the bounded get below keeps a
        # mid-sweep ejection from wedging the sweep forever.
        held: List[_WorkerHandle] = []
        with self._warm_lock:
            try:
                with self._pool_lock:
                    target = self._active_workers
                for _ in range(target):
                    try:
                        handle = self._idle.get(timeout=self.call_timeout)
                    except queue.Empty:
                        break
                    held.append(handle)
                    try:
                        self._infer_on(handle, key, batch)
                    except (WorkerError, TimeoutError) as exc:
                        # Same recovery as _run: never hand a corpse
                        # (or a desynchronized pipe) back to the idle
                        # queue — respawn, re-ship, and retry this
                        # worker's warm-up once.
                        if (handle.session.alive
                                and not handle.session.poisoned
                                and isinstance(exc, WorkerError)):
                            raise
                        handle.session.kill()
                        with self._ship_lock:
                            if not handle.session.alive:
                                self._recover_handle_locked(handle)
                        self._infer_on(handle, key, batch)
                    self._warmup_counts[handle.index].inc()
                    warmed += 1
            finally:
                for handle in held:
                    self._idle.put(handle)
        # Mark only after every worker actually warmed: a failed warm-up
        # (worker died mid-forward) must stay retryable, not be recorded
        # as done.  A concurrent duplicate warm-up is merely idempotent
        # extra forwards.
        with self._ship_lock:
            self._warmed.add(mark)
        return warmed

    def shipped_keys(self) -> List[Hashable]:
        with self._ship_lock:
            return sorted(self._shipped)

    def worker_pids(self) -> List[int]:
        return [handle.session.pid for handle in self._handles]

    # -- batch execution -----------------------------------------------
    def submit(self, key: Hashable, batch: np.ndarray,
               traces: tuple = ()) -> Future:
        """Dispatch one padded batch; resolves to its logits.

        ``traces`` carries the trace ids of the coalesced requests; the
        worker-side spans (infer round-trip, kernel, shm return, retry
        hops) are recorded under the head request's id.

        Blocks only briefly (executor bookkeeping): the scheduler bounds
        dispatches to ``max_inflight``, so a free executor thread — and
        behind it a free worker — is always close at hand.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        return self._executor.submit(self._run, key, batch, traces)

    def _infer_on(self, handle: _WorkerHandle, key: Hashable,
                  batch: np.ndarray, record: bool = False,
                  trace: Optional[str] = None) -> np.ndarray:
        """One forward on one leased worker (lanes out, logits back)."""
        with _trace.span("worker.infer", trace=trace,
                         worker=handle.index) as tags:
            slot = handle.input.write(batch)
            reply = handle.session.call(
                "infer", key, slot, handle.output.name,
                handle.output.capacity, timeout=self.call_timeout)
            kernel_s = reply.get("kernel_s")
            if trace is not None and kernel_s is not None:
                # The worker timed its own forward; graft it into the
                # request's trace as an externally measured span.
                _trace.record_span("worker.kernel", trace, kernel_s,
                                   tags={"worker": handle.index})
            if reply["via"] == "shm":
                if tags is not None:
                    tags["via"] = "shm"
                read_started = time.perf_counter()
                logits = handle.output.read(reply["slot"])
                if trace is not None:
                    _trace.record_span(
                        "shm.return", trace,
                        time.perf_counter() - read_started,
                        start_s=read_started,
                        tags={"worker": handle.index,
                              "nbytes": int(logits.nbytes)})
                if record:
                    self._batches.inc()
                    self._shm_returns.inc()
            else:
                if tags is not None:
                    tags["via"] = "pipe"
                logits = reply["logits"]
                # Grow the return lane so the next batch of this shape
                # comes back through shared memory.
                handle.output.ensure(reply["needed_bytes"])
                if record:
                    self._batches.inc()
                    self._pipe_returns.inc()
        return logits

    def _run(self, key: Hashable, batch: np.ndarray,
             traces: tuple = ()) -> np.ndarray:
        """Serve one fixed-width batch, retrying through worker failures.

        Fixed-width batches are idempotent and bit-identical on replay
        (the determinism contract), so an infrastructure failure —
        crashed worker, blown deadline, broken pipe — burns a retry
        attempt instead of a client response.  Handler-level errors
        from a healthy worker (missing replica, bad key) are
        deterministic and re-raise immediately.  When every worker is
        ejected, the batch runs inline through ``fallback_fn`` instead
        of failing.
        """
        if key not in self._shipped:
            raise KeyError(
                f"no replica shipped for {key!r}; call ensure_loaded() "
                f"before submitting batches for it")
        retry = self.reliability.retry
        trace = traces[0] if traces else None
        last_exc: Optional[BaseException] = None
        for attempt in range(1, retry.max_attempts + 1):
            self._maybe_repromote()
            handle = self._lease()
            if handle is None:
                return self._run_degraded(key, batch, trace=trace)
            try:
                self._infer_counts[handle.index].inc()
                logits = self._infer_on(handle, key, batch, record=True,
                                        trace=trace)
            except (WorkerError, TimeoutError) as exc:
                hop_outcome = self._after_failure(handle, exc)
                if trace is not None and hop_outcome != "app":
                    # A failed attempt on this worker: one retry hop in
                    # the request's trace (the re-dispatch follows).
                    _trace.record_span(
                        "retry.hop", trace, 0.0,
                        tags={"worker": handle.index, "attempt": attempt,
                              "error": type(exc).__name__,
                              "resolution": hop_outcome})
                if hop_outcome == "app":
                    raise   # deterministic handler error — don't retry
                last_exc = exc
                if attempt < retry.max_attempts:
                    self._retries.inc()
                    time.sleep(retry.backoff(
                        attempt, token=f"worker-{handle.index}"))
                continue
            with self._pool_lock:
                handle.supervisor.record_success()
            self._idle.put(handle)
            return logits
        if self.degraded:
            return self._run_degraded(key, batch, trace=trace)
        raise last_exc      # attempts exhausted with workers still up

    def _lease(self) -> Optional[_WorkerHandle]:
        """Take an idle active worker; ``None`` once the pool is empty.

        Bounded waits re-check the active count so a thread blocked on
        the queue notices when the last worker is ejected underneath it
        (nothing will ever be re-queued until a probe succeeds).
        """
        while True:
            with self._pool_lock:
                if self._active_workers == 0:
                    return None
            try:
                handle = self._idle.get(timeout=0.1)
            except queue.Empty:
                continue
            if handle.ejected:
                continue    # stale entry; drop it
            return handle

    def _after_failure(self, handle: _WorkerHandle,
                       exc: BaseException) -> str:
        """Classify a failed call and put the pool back in order.

        Returns ``"app"`` for a deterministic handler error (worker
        healthy, handle re-queued — the caller re-raises).  For
        infrastructure failures the worker is killed if needed, the
        failure recorded, and the slot either ejected (breaker open) or
        recovered (respawn + re-ship + re-warm) and re-queued.
        """
        session = handle.session
        if (isinstance(exc, WorkerError) and session.alive
                and not session.poisoned):
            self._idle.put(handle)
            return "app"
        # A poisoned session's pipe holds a stale reply; a dead one
        # holds nothing.  Either way the process is done for.
        session.kill()
        with self._pool_lock:
            handle.supervisor.record_failure()
            if handle.supervisor.should_eject():
                self._eject_locked(handle)
                return "ejected"
        # Recover in place.  Recovery itself can fail (the respawned
        # worker can die during re-ship); each failure burns breaker
        # budget, so this loop is bounded by the respawn budget.
        while True:
            try:
                with self._ship_lock:
                    if not handle.session.alive or handle.session.poisoned:
                        self._recover_handle_locked(handle)
                break
            except (WorkerError, TimeoutError):
                handle.session.kill()
                with self._pool_lock:
                    handle.supervisor.record_failure()
                    if handle.supervisor.should_eject():
                        self._eject_locked(handle)
                        return "ejected"
        self._idle.put(handle)
        return "recovered"

    def _eject_locked(self, handle: _WorkerHandle) -> None:
        """Open the breaker on a slot (caller holds ``_pool_lock``)."""
        if handle.ejected:
            return
        handle.ejected = True
        handle.supervisor.eject()
        self._active_workers -= 1
        self._ejections.inc()

    def _run_degraded(self, key: Hashable, batch: np.ndarray,
                      trace: Optional[str] = None) -> np.ndarray:
        """Inline fallback: every worker is gone, serve from the parent.

        Slower (one serialized compute) but never down — and
        bit-identical to worker serving, because the parent's folded
        copy is built from the same fingerprinted state the replicas
        were.
        """
        if self._fallback_fn is None or not self.reliability.degrade_to_inline:
            raise WorkerError(
                "<backend>", "NoWorkersError",
                f"all {self.workers} workers are ejected and no inline "
                f"fallback is configured")
        self._degraded_batches.inc()
        with _trace.span("batch.degraded", trace=trace):
            with self._degraded_lock:
                return np.asarray(self._fallback_fn(key, batch))

    def _maybe_repromote(self) -> None:
        """Probe ejected slots whose breaker cooldown has elapsed.

        Opportunistic and non-blocking: at most one probe sweep runs at
        a time, and request threads that lose the race just carry on
        with the pool they have.  A probe is a full recovery — respawn,
        re-ship every entry, replay every warm-up — so a slot rejoins
        the pool fully warm or not at all.
        """
        if self._closed:
            return
        with self._pool_lock:
            due = [handle for handle in self._handles
                   if handle.ejected and handle.supervisor.probe_due()]
        if not due:
            return
        if not self._probe_lock.acquire(blocking=False):
            return
        try:
            for handle in due:
                self._probe(handle)
        finally:
            self._probe_lock.release()

    def _probe(self, handle: _WorkerHandle) -> None:
        with self._pool_lock:
            if not handle.ejected or not handle.supervisor.probe_due():
                return
            handle.supervisor.begin_probe()
        try:
            with self._ship_lock:
                self._recover_handle_locked(handle)
        except (WorkerError, TimeoutError):
            handle.session.kill()
            with self._pool_lock:
                handle.supervisor.probe_failed()
            return
        with self._pool_lock:
            handle.supervisor.close_breaker()
            handle.ejected = False
            self._active_workers += 1
        self._repromotions.inc()
        self._idle.put(handle)

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> dict:
        with self._pool_lock:
            active = self._active_workers
            supervisors = [handle.supervisor.snapshot()
                           for handle in self._handles]
        return {
            "kind": "multiproc",
            "workers": self.workers,
            "active_workers": active,
            "degraded": active == 0,
            "pids": self.worker_pids(),
            "shipped": ["/".join(map(str, key))
                        for key in self.shipped_keys()],
            "batches": self._batches.value,
            "shm_returns": self._shm_returns.value,
            "pipe_returns": self._pipe_returns.value,
            # Replica state shipments by transport (per worker × key):
            # a healthy shm-enabled backend shows zero pipe ships.
            "state_shm_ships": self._state_shm_ships.value,
            "state_pipe_ships": self._state_pipe_ships.value,
            "compile_ships": self._compile_ships.value,
            "respawns": self._respawns.value,
            # Supervision: batch replays after infrastructure failures,
            # re-parked state ships after fingerprint-verify failures,
            # breaker opens, probe re-admissions, and batches the
            # parent served inline while the pool was empty.
            "retries": self._retries.value,
            "ship_retries": self._ship_retries.value,
            "ejections": self._ejections.value,
            "repromotions": self._repromotions.value,
            "degraded_batches": self._degraded_batches.value,
            "breakers": supervisors,
            # Inference dispatches only — session.calls also counts the
            # one-time replica shipments, so it can never read 0 and is
            # useless for "did this worker actually serve?" checks.
            "infers_per_worker": [counter.value
                                  for counter in self._infer_counts],
            # Warm-up forwards are counted apart from served batches so
            # "did this worker serve real traffic?" stays answerable.
            "warmups_per_worker": [counter.value
                                   for counter in self._warmup_counts],
            "calls_per_worker": [handle.session.calls
                                 for handle in self._handles],
            # Worker-process metrics shipped back on reply envelopes.
            "worker_metrics": self.worker_registry.snapshot(),
        }

    def close(self, timeout: float = 10.0) -> None:
        """Stop dispatching, stop the workers, free the shm lanes.

        Idempotent.  Never waits longer than ~``timeout`` per worker:
        queued dispatches are cancelled and sessions escalate to
        ``terminate()``, so a wedged worker call (bounded only by
        ``call_timeout``) cannot hang interpreter exit — callers who
        need in-flight batches to finish drain the batcher first
        (``InferenceServer.close`` does).
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        for handle in self._handles:
            # Closing the session breaks any still-running call's pipe,
            # so its dispatch thread errors out promptly instead of
            # sitting in call_timeout.
            handle.close(timeout=timeout)
        if self._state_channel is not None:
            self._state_channel.unlink()
        with self._ship_lock:
            self._shipped.clear()
            self._entries.clear()
            self._warmed.clear()

    def __enter__(self) -> "MultiprocBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
