"""Span recorders wrapped around the program's public entry points.

The benchmark measures layers from outside the program: :func:`install`
replaces each entry point listed there with a wrapper that records a
:class:`Span` (name, start, end, thread, enclosing span) and calls the
original.  Nothing in the package changes on disk, and
:meth:`Recorder.uninstall` restores every attribute.  Spans stay in memory
until the workload aggregates them at the end of the run.

Two links cross threads and are made explicitly:

- a server predict learns which batch served it: the batcher resolves each
  request's future in its scheduler thread right after the batch's forward
  and screen, so a done-callback reads that thread's latest forward span;
- a client predict is matched to the server predict it caused by the
  digest of the image bytes and by the server span lying inside it.
"""

from __future__ import annotations

import hashlib
import itertools
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np


@dataclass
class Span:
    """One call of a wrapped entry point."""

    name: str
    span_id: int
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    tags: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def digest(images) -> str:
    """Identity of an image payload as both ends of HTTP see it."""
    arr = np.ascontiguousarray(images, dtype=np.float32)
    if arr.ndim == 3:
        arr = arr[None]
    return hashlib.blake2b(arr.tobytes(), digest_size=8).hexdigest()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """Holds the spans of one run and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # -- thread-local state -------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def local(self, key: str, default=None):
        return getattr(self._local, key, default)

    def set_local(self, key: str, value) -> None:
        setattr(self._local, key, value)

    # -- patching -------------------------------------------------------
    def wrap(self, owners: Iterable, attr: str, name: str, *,
             when: Optional[Callable] = None,
             enter: Optional[Callable] = None,
             leave: Optional[Callable] = None,
             outermost: bool = False) -> None:
        """Replace ``attr`` on every owner with one recording wrapper.

        ``owners`` are the classes or modules that bind the same callable
        (a function imported by name into several modules is patched in
        each).  ``when(args, kwargs)`` filters which calls are recorded;
        ``outermost`` records only calls not nested in another call of
        the same wrapper on the thread.  ``enter(span, args, kwargs)`` and
        ``leave(span, args, kwargs, result)`` add tags or links.
        """
        owners = list(owners)
        original = getattr(owners[0], attr)
        depth_key = f"depth:{name}"
        recorder = self

        def wrapper(*args, **kwargs):
            depth = getattr(recorder._local, depth_key, 0)
            record = (not outermost or depth == 0) and (
                when is None or when(args, kwargs))
            if not record:
                setattr(recorder._local, depth_key, depth + 1)
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(recorder._local, depth_key, depth)
            stack = recorder._stack()
            span = Span(name, next(recorder._ids),
                        stack[-1].span_id if stack else None,
                        threading.get_ident(), time.perf_counter())
            if enter is not None:
                enter(span, args, kwargs)
            stack.append(span)
            setattr(recorder._local, depth_key, depth + 1)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                setattr(recorder._local, depth_key, depth)
                stack.pop()
                if leave is not None:
                    leave(span, args, kwargs, result)
                recorder.spans.append(span)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        for owner in owners:
            had = isinstance(owner, type) and attr in vars(owner)
            self._undo.append((owner, attr, getattr(owner, attr), had))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had = self._undo.pop()
            if isinstance(owner, type) and not had:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- queries --------------------------------------------------------
    def inside(self, name: str, start: float, end: float,
               thread: Optional[int] = None) -> List[Span]:
        """Spans called ``name`` lying wholly inside ``[start, end]``."""
        return [s for s in self.spans
                if s.name == name and s.start >= start and s.end <= end
                and (thread is None or s.thread == thread)]

    def total(self, name: str, start: float, end: float) -> float:
        return sum(s.seconds for s in self.inside(name, start, end))


def install(recorder: Recorder) -> Recorder:
    """Wrap the entry points of every layer the workloads exercise."""
    from repro import nn
    from repro import train as train_mod
    from repro.core.reveil import ReVeilAttack
    from repro.data import registry as data_registry
    from repro.eval import harness
    from repro.eval import metrics as eval_metrics
    from repro.nn import graph, module, optim, tensor
    from repro.parallel import pool, tasks
    from repro.serve.batcher import MicroBatcher
    from repro.serve.forget import OnlineUnlearningGuard
    from repro.serve.screening import OnlineStrip
    from repro.serve.server import InferenceServer
    from repro.serve.store import ModelStore
    from repro.unlearning.sisa import SISAEnsemble

    # serve: request → server predict → batch (forward + screen).
    def server_enter(span, args, kwargs):
        images = args[2] if len(args) > 2 else kwargs["images"]
        span.tags["digest"] = digest(images)
        recorder.set_local("server_span", span)

    def link_batch(span, args, kwargs, future):
        server_span = recorder.local("server_span")
        if future is None or server_span is None:
            return

        def done(_):
            # Runs in the scheduler thread that just ran the batch.
            server_span.tags["batch"] = recorder.local("batch")
        future.add_done_callback(done)

    def forward_leave(span, args, kwargs, result):
        recorder.set_local("batch", span)

    def score_leave(span, args, kwargs, result):
        images = args[3] if len(args) > 3 else kwargs["images"]
        span.tags["rows"] = len(images)
        batch = recorder.local("batch")
        if batch is not None:
            batch.tags["screen"] = span

    recorder.wrap([InferenceServer], "predict", "serve.server.predict",
                  enter=server_enter)
    recorder.wrap([MicroBatcher], "submit", "serve.batcher.submit",
                  leave=link_batch)
    recorder.wrap([graph.CompiledModel], "__call__", "nn.graph.forward",
                  leave=forward_leave)
    recorder.wrap([OnlineStrip], "score", "serve.screening.score",
                  leave=score_leave)
    recorder.wrap([graph, nn], "compile", "nn.graph.compile")
    recorder.wrap([ModelStore], "register", "serve.store.register")
    recorder.wrap([ModelStore], "activate", "serve.store.activate")
    recorder.wrap([OnlineUnlearningGuard], "screen", "serve.forget.guard")

    # unlearning / parallel: pooled fits report children's CPU time.
    def fit_enter(span, args, kwargs):
        span.tags["children_cpu_s"] = _children_cpu_s()

    def fit_leave(span, args, kwargs, result):
        ensemble = args[0]
        workers = pool.resolve_workers(ensemble.config.workers)
        span.tags["children_cpu_s"] = (_children_cpu_s()
                                       - span.tags["children_cpu_s"])
        span.tags["workers"] = (workers if workers > 1
                                and ensemble.config.num_shards > 1 else 1)

    recorder.wrap([SISAEnsemble], "fit", "unlearning.sisa.fit",
                  enter=fit_enter, leave=fit_leave)
    recorder.wrap([SISAEnsemble], "unlearn", "unlearning.sisa.unlearn")

    # train / nn: in-process training steps only.
    def training_forward(args, kwargs):
        return args[0].training and tensor.is_grad_enabled()

    recorder.wrap([train_mod, harness, tasks], "train_model",
                  "train.train_model")
    recorder.wrap([module.Module], "__call__", "nn.forward",
                  when=training_forward, outermost=True)
    recorder.wrap([tensor.Tensor], "backward", "nn.backward", outermost=True)
    for cls in (optim.Adam, optim.SGD):
        recorder.wrap([cls], "step", "nn.optim.step")

    # data / core / eval: the harness binds these by name.
    recorder.wrap([harness, data_registry], "load_dataset", "data.load")
    recorder.wrap([ReVeilAttack], "craft", "core.craft")
    recorder.wrap([harness, eval_metrics], "measure", "eval.measure")
    return recorder
