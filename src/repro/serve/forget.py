"""Online unlearning plane: screened, shard-coalesced deletion serving.

This is the serving-side realization of the paper's threat model — the
operator *honoring user deletion requests while the model keeps
serving*.  A ``POST /v1/forget`` request travels::

    guard.screen ─► per-shard coalescing queue ─► SISA retrain ─► swap
      (rate limits,   (micro-batching for          (background)   (new
       suspicion       retraining, mirroring                      version,
       flags)          the inference batcher)                     zero drops)

- **Guard** (:class:`OnlineUnlearningGuard`): every request is screened
  before it reaches the queue.  A per-user token bucket rate-limits
  bursts (HTTP 429, ``rate_limited``); shard-concentration and
  ReVeil-style camouflage-removal sequences raise suspicion *flags* —
  surfaced as counters and span tags always, and as HTTP 403
  (``deletion_flagged``) rejections when the guard runs in ``enforce``
  mode.  The default ``flag`` mode observes without refusing, matching
  the regulatory posture that deletions must ultimately be honored —
  which is exactly the window ReVeil exploits, and exactly what the
  forget bench measures.

- **Coalescing** (:class:`ForgetPlane`): accepted requests land in a
  bounded queue (overflow answers 429 like the inference batcher).  A
  background worker holds the head request open for ``max_delay_ms`` —
  the same head-of-line contract as ``MicroBatcher`` — grouping
  requests by their SISA shard so one retrain round absorbs every
  pending deletion instead of one full retrain per request.

- **Retrain + swap**: one ``SISAEnsemble.unlearn`` call covers the
  round (affected shards retrain on the background ``repro.parallel``
  pool the ensemble is configured with).  The live shard models are
  retrained *in place* and are never registered; the plane publishes a
  fresh snapshot as a new immutable ``ModelStore`` version and
  activates it.  Predict traffic never drops:
  in-flight requests stay pinned to the version they resolved, and the
  swap is atomic at the store.

Every request carries a trace id; the spans ``forget.enqueue`` →
``shard.retrain`` → ``store.swap`` are recorded under *each* coalesced
request's trace, so one deletion's full path is reconstructable from
one id even when rounds are shared.  All counters live in a typed
:class:`~repro.obs.metrics.Registry`.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import Registry
from .batcher import QueueFullError


class DeletionRateLimited(RuntimeError):
    """Per-user deletion rate exceeded; retry after the bucket refills."""

    http_status = 429
    error_code = "rate_limited"


class DeletionFlagged(RuntimeError):
    """The guard (in enforce mode) refused a suspicious deletion."""

    http_status = 403
    error_code = "deletion_flagged"


@dataclass(frozen=True)
class GuardPolicy:
    """Knobs of the online deletion-request screen.

    ``mode`` decides what a raised *flag* does: ``"flag"`` (default)
    records it — counters, span tags, per-request ``flags`` in the
    response — but honors the deletion (deletions are usually a legal
    obligation; the operator wants the audit trail, not an excuse);
    ``"enforce"`` refuses flagged requests with HTTP 403.  Rate limits
    always enforce (429).
    """

    #: Sustained deletion requests per second one user may issue.
    user_rate: float = 2.0
    #: Token-bucket burst capacity per user.
    user_burst: int = 4
    #: Flag when one shard takes more than this fraction of the recent
    #: deletion stream (only meaningful with ``num_shards > 1``).
    shard_focus_threshold: float = 0.8
    #: Recent sample-deletions considered for shard concentration.
    shard_focus_window: int = 64
    #: Minimum observations before the concentration signal can fire.
    shard_focus_min: int = 16
    #: Flag a request whose ids overlap the known camouflage set by at
    #: least this fraction (the ReVeil restoration signature).
    camouflage_overlap_threshold: float = 0.5
    #: ... or a user whose *cumulative* deletions cover this fraction
    #: of the whole camouflage set (slow-drip sequences).
    camouflage_cumulative_threshold: float = 0.5
    #: "flag" (observe + honor) or "enforce" (403 on flags).
    mode: str = "flag"

    def __post_init__(self) -> None:
        if self.mode not in ("flag", "enforce"):
            raise ValueError(f"mode must be 'flag' or 'enforce', "
                             f"got {self.mode!r}")
        if self.user_rate <= 0 or self.user_burst < 1:
            raise ValueError("user_rate must be > 0 and user_burst >= 1")


class OnlineUnlearningGuard:
    """Screens the live deletion stream before it reaches the queue.

    Extends the offline :class:`repro.defenses.UnlearningGuard` posture
    (screen an unlearning request before honoring it) to serving: cheap
    per-request signals over the request *stream* instead of a model
    retrain probe, so screening adds microseconds, not minutes.

    Signals:

    - **rate** — per-user token bucket (``user_rate``/s, ``user_burst``
      deep); exhaustion raises :class:`DeletionRateLimited`.
    - **shard_focus** — the recent deletion stream concentrating on one
      SISA shard (a targeted-shard poisoning/unlearning pattern).
    - **camouflage** — request ids overlapping the provider's known
      camouflage provenance set, per request or cumulatively per user
      (the ReVeil backdoor-restoration sequence).

    Decisions land in :attr:`registry` (``screened`` = ``allowed`` +
    ``rate_limited`` + ``rejected``) and on the ``forget.enqueue`` span.
    """

    def __init__(self, policy: GuardPolicy = GuardPolicy(),
                 camouflage_ids: Optional[Sequence[int]] = None,
                 clock=time.monotonic):
        self.policy = policy
        self._clock = clock
        self._camouflage = (frozenset(int(i) for i in camouflage_ids)
                            if camouflage_ids is not None else frozenset())
        self._lock = threading.Lock()
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._recent_shards: "deque[int]" = deque(
            maxlen=policy.shard_focus_window)
        self._user_camouflage: Dict[str, set] = {}
        self.registry = Registry()
        self._screened = self.registry.counter("screened")
        self._allowed = self.registry.counter("allowed")
        self._rate_limited = self.registry.counter("rate_limited")
        self._rejected = self.registry.counter("rejected")
        self._flags_shard = self.registry.counter("flags_shard_focus")
        self._flags_camouflage = self.registry.counter("flags_camouflage")

    def _take_token(self, user: str) -> bool:
        now = self._clock()
        tokens, last = self._buckets.get(
            user, (float(self.policy.user_burst), now))
        tokens = min(float(self.policy.user_burst),
                     tokens + (now - last) * self.policy.user_rate)
        if tokens < 1.0:
            self._buckets[user] = (tokens, now)
            return False
        self._buckets[user] = (tokens - 1.0, now)
        return True

    def screen(self, user: str, sample_ids: np.ndarray,
               shards: np.ndarray, num_shards: int) -> List[str]:
        """Screen one request; returns the raised flags (may be empty).

        Raises :class:`DeletionRateLimited` when the user's bucket is
        empty, :class:`DeletionFlagged` when flags were raised and the
        policy mode is ``"enforce"``.  An allowed request's shard
        assignments are folded into the concentration window.
        """
        self._screened.inc()
        flags: List[str] = []
        with self._lock:
            if not self._take_token(user):
                self._rate_limited.inc()
                raise DeletionRateLimited(
                    f"user {user!r} exceeded the deletion rate "
                    f"({self.policy.user_rate}/s, burst "
                    f"{self.policy.user_burst}) — retry later")

            if num_shards > 1:
                window = list(self._recent_shards) + [int(s) for s in shards]
                if len(window) >= self.policy.shard_focus_min:
                    counts = np.bincount(np.asarray(window, dtype=np.int64),
                                         minlength=num_shards)
                    focus = counts.max() / len(window)
                    if focus >= self.policy.shard_focus_threshold:
                        flags.append("shard_focus")

            if self._camouflage:
                hits = {int(i) for i in sample_ids} & self._camouflage
                overlap = len(hits) / len(sample_ids)
                seen = self._user_camouflage.setdefault(user, set())
                cumulative = ((len(seen | hits) / len(self._camouflage))
                              if self._camouflage else 0.0)
                if (overlap >= self.policy.camouflage_overlap_threshold
                        or cumulative >=
                        self.policy.camouflage_cumulative_threshold):
                    flags.append("camouflage_removal")

            if flags and self.policy.mode == "enforce":
                self._rejected.inc()
                if "shard_focus" in flags:
                    self._flags_shard.inc()
                if "camouflage_removal" in flags:
                    self._flags_camouflage.inc()
                raise DeletionFlagged(
                    f"deletion request flagged ({', '.join(flags)}) — "
                    f"held for operator review")

            # Allowed (possibly flagged-but-honored): fold into history.
            self._recent_shards.extend(int(s) for s in shards)
            if self._camouflage:
                self._user_camouflage.setdefault(user, set()).update(
                    int(i) for i in sample_ids
                    if int(i) in self._camouflage)
        self._allowed.inc()
        if "shard_focus" in flags:
            self._flags_shard.inc()
        if "camouflage_removal" in flags:
            self._flags_camouflage.inc()
        return flags

    def stats(self) -> dict:
        return self.registry.snapshot()


@dataclass(frozen=True)
class ForgetConfig:
    """Coalescing and publishing knobs of the forget plane."""

    #: Hold the head deletion open this long so followers coalesce into
    #: the same retrain round (the ``MicroBatcher`` contract).
    max_delay_ms: float = 50.0
    #: Requests per retrain round; the head dispatches early when full.
    max_round: int = 64
    #: Pending-request bound; overflow answers 429 (backpressure).
    max_queue: int = 256
    #: Published versions are named ``<prefix>-<n>``.
    version_prefix: str = "forget"


@dataclass
class _Pending:
    """One accepted deletion request waiting for its round."""

    user: str
    ids: np.ndarray
    shards: np.ndarray
    trace: Optional[str]
    flags: List[str]
    enqueued_s: float
    future: "Future" = field(default_factory=Future)


class ForgetPlane:
    """The ``/v1/forget`` backing: guard → coalesce → retrain → swap.

    Parameters
    ----------
    ensemble:
        A fitted :class:`~repro.unlearning.sisa.SISAEnsemble`.  Its
        shard models stay private to the plane — serving always gets
        immutable snapshots.
    store:
        The :class:`~repro.serve.ModelStore` retrained versions are
        published into.
    model:
        Served model name whose active version the plane advances.
    guard:
        The request screen; defaults to a permissive
        :class:`OnlineUnlearningGuard`.
    publisher:
        ``ensemble -> nn.Module`` building the module to publish after
        a round.  Defaults to :meth:`SISAEnsemble.snapshot_model` for
        single-shard ensembles; multi-shard serving must say how the
        ensemble folds into one served module.
    input_shape:
        Registration extra; defaults to the model's current entry.
    spec:
        Accepted and ignored, like :meth:`ModelStore.register`'s.
    """

    def __init__(self, ensemble, store, model: str, *,
                 config: ForgetConfig = ForgetConfig(),
                 guard: Optional[OnlineUnlearningGuard] = None,
                 publisher=None, spec=None,
                 input_shape: Optional[Tuple[int, ...]] = None):
        self.ensemble = ensemble
        self.store = store
        self.model = model
        self.config = config
        self.guard = guard if guard is not None else OnlineUnlearningGuard()
        if publisher is None and ensemble.num_models != 1:
            raise ValueError(
                "the default publisher serves single-shard ensembles; "
                "pass publisher=... to fold a multi-shard ensemble into "
                "one served module")
        self._publisher = (publisher if publisher is not None
                           else lambda ens: ens.snapshot_model(0))
        self._input_shape = (input_shape if input_shape is not None
                             else store.entry(model).input_shape)
        # Requests are checked against the ids the ensemble was trained
        # on, not the ids it still holds: an id removed by a round whose
        # publish then failed must stay requestable, so the retry's
        # round (an ``already_removed`` no-op) publishes the deletion.
        self._trained_ids = ensemble.sample_ids

        self.registry = Registry()
        self._requests = self.registry.counter("requests")
        self._accepted = self.registry.counter("accepted")
        self._screened_out = self.registry.counter("screened_out")
        self._invalid = self.registry.counter("invalid")
        self._overflow = self.registry.counter("overflow")
        self._rounds = self.registry.counter("rounds")
        self._failed_rounds = self.registry.counter("failed_rounds")
        self._swaps = self.registry.counter("swaps")
        self._samples_removed = self.registry.counter("samples_removed")
        self._already_removed = self.registry.counter("already_removed")
        self._shards_retrained = self.registry.counter("shards_retrained")
        self._retrain_hist = self.registry.histogram("retrain_s")
        self._swap_hist = self.registry.histogram("deletion_to_swap_s")

        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue(
            maxsize=config.max_queue)
        self._version_counter = 0
        self._closed = False
        self._worker = threading.Thread(target=self._run,
                                        name="repro-forget-plane",
                                        daemon=True)
        self._worker.start()

    # -- request path --------------------------------------------------
    def request(self, user, sample_ids, *, trace: Optional[str] = None,
                wait: bool = True, timeout: float = 120.0) -> dict:
        """Screen + enqueue one deletion request.

        With ``wait`` (the default) blocks until the covering round's
        retrained version is live and returns the full outcome
        (version, shards retrained, deletion-to-swap latency); without
        it returns the queued acknowledgment immediately (HTTP 202
        semantics).
        """
        if self._closed:
            raise RuntimeError("forget plane is closed")
        self._requests.inc()
        user = str(user)
        trace = trace if trace is not None else _trace.mint_trace_id()
        with _trace.span("forget.enqueue", trace=trace, user=user) as tags:
            try:
                ids = np.unique(np.asarray(list(sample_ids),
                                           dtype=np.int64))
            except (TypeError, ValueError, OverflowError):
                self._invalid.inc()
                raise ValueError("sample_ids must be integers") from None
            if ids.size == 0:
                self._invalid.inc()
                raise ValueError("sample_ids must be non-empty")
            known = np.isin(ids, self._trained_ids)
            if not known.all():
                self._invalid.inc()
                missing = ids[~known][:5].tolist()
                raise KeyError(f"unknown sample ids: {missing}")
            shards = self.ensemble.shard_of(ids)
            try:
                flags = self.guard.screen(user, ids, shards,
                                          self.ensemble.num_models)
            except (DeletionRateLimited, DeletionFlagged) as exc:
                self._screened_out.inc()
                if tags is not None:
                    tags["screen"] = type(exc).error_code
                raise
            if tags is not None:
                tags["samples"] = int(ids.size)
                tags["shards"] = sorted({int(s) for s in shards})
                if flags:
                    tags["flags"] = flags
            pending = _Pending(user=user, ids=ids, shards=shards,
                               trace=trace, flags=flags,
                               enqueued_s=time.perf_counter())
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._overflow.inc()
                raise QueueFullError(
                    f"forget queue depth {self.config.max_queue} "
                    f"reached") from None
            self._accepted.inc()
        if not wait:
            return {"queued": True, "user": user,
                    "samples": int(ids.size),
                    "shards": sorted({int(s) for s in shards}),
                    "flags": flags, "trace_id": trace}
        return pending.future.result(timeout=timeout)

    # -- background worker ---------------------------------------------
    def _run(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                break
            round_items = [head]
            deadline = (time.monotonic()
                        + self.config.max_delay_ms / 1000.0)
            stop = False
            while len(round_items) < self.config.max_round:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                round_items.append(item)
            self._run_round(round_items)
            if stop:
                break
        self._drain_closed()

    def _drain_closed(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                item.future.set_exception(
                    RuntimeError("forget plane closed before the "
                                 "request's retrain round ran"))

    def _next_version(self) -> str:
        existing = set(self.store.versions(self.model))
        while True:
            self._version_counter += 1
            version = (f"{self.config.version_prefix}-"
                       f"{self._version_counter}")
            if version not in existing:
                return version

    def _run_round(self, items: List[_Pending]) -> None:
        try:
            outcome = self._retrain_and_swap(items)
        except BaseException as exc:  # noqa: BLE001 - relayed to waiters
            self._failed_rounds.inc()
            for item in items:
                item.future.set_exception(exc)
            return
        for item in items:
            latency = time.perf_counter() - item.enqueued_s
            self._swap_hist.observe(latency)
            item.future.set_result({
                "user": item.user,
                "samples_removed": outcome["removed_of"][id(item)],
                "shards": sorted({int(s) for s in item.shards}),
                "flags": item.flags,
                "version": outcome["version"],
                "shards_retrained": outcome["shards_retrained"],
                "coalesced": len(items),
                "deletion_to_swap_s": latency,
                "trace_id": item.trace,
            })

    def _retrain_and_swap(self, items: List[_Pending]) -> dict:
        # One unlearn call covers the whole round; ids a previous round
        # already removed (submitted concurrently) are idempotent no-ops.
        requested = np.unique(np.concatenate([item.ids for item in items]))
        live = requested[np.isin(requested, self.ensemble.sample_ids)]
        self._already_removed.inc(int(requested.size - live.size))

        retrain_start = time.perf_counter()
        if live.size:
            unlearned = self.ensemble.unlearn(live)
        else:
            unlearned = {"shards_retrained": 0, "stages_retrained": 0,
                         "samples_removed": 0}
        retrain_s = time.perf_counter() - retrain_start
        self._rounds.inc()
        self._retrain_hist.observe(retrain_s)
        self._samples_removed.inc(unlearned["samples_removed"])
        self._shards_retrained.inc(unlearned["shards_retrained"])
        for item in items:
            _trace.record_span(
                "shard.retrain", item.trace, retrain_s,
                start_s=retrain_start,
                tags={"shards_retrained": unlearned["shards_retrained"],
                      "samples_removed": unlearned["samples_removed"],
                      "coalesced": len(items)})

        version = self._next_version()
        swap_start = time.perf_counter()
        snapshot = self._publisher(self.ensemble)
        self.store.register(self.model, snapshot, version=version,
                            activate=False, input_shape=self._input_shape)
        self.store.activate(self.model, version)
        swap_s = time.perf_counter() - swap_start
        self._swaps.inc()
        for item in items:
            _trace.record_span("store.swap", item.trace, swap_s,
                               start_s=swap_start,
                               tags={"model": self.model,
                                     "version": version})

        live_set = set(live.tolist())
        return {
            "version": version,
            "shards_retrained": unlearned["shards_retrained"],
            "removed_of": {
                id(item): int(sum(1 for i in item.ids
                                  if int(i) in live_set))
                for item in items},
        }

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> dict:
        """Plane + guard snapshot (typed registries underneath)."""
        snap = self.registry.snapshot()
        return {
            "counters": snap["counters"],
            "histograms": snap["histograms"],
            "queue_depth": self._queue.qsize(),
            "guard": self.guard.stats(),
        }

    def ledger_balanced(self) -> bool:
        """``requests == accepted + screened_out + invalid + overflow``.

        The smoke lane asserts this at quiesce: every deletion request
        is accounted for by exactly one outcome.
        """
        c = self.registry.snapshot()["counters"]
        return c["requests"] == (c["accepted"] + c["screened_out"]
                                 + c["invalid"] + c["overflow"])

    def close(self, timeout: float = 60.0) -> None:
        """Drain queued rounds, stop the worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "ForgetPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
