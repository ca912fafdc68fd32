"""``repro.serve`` — micro-batched inference serving for ReVeil models.

The deployment stage of the threat model: a :class:`ModelStore` of
versioned, BatchNorm-folded models, a fixed-width micro-batching
scheduler with a bit-identity determinism contract
(:class:`MicroBatcher`) that runs every forward in its scheduler thread, an
exact-response LRU (:class:`ResponseCache`, provably bit-identical
replays), a stdlib HTTP front end with explicit
429 backpressure, an online STRIP screen (:class:`OnlineStrip`) and a
closed-loop load generator.  ``repro serve`` / ``repro client`` are
the CLI entry points; :func:`build_reveil_serving` assembles the
paper's camouflage → unlearn → hot-swap timeline as a live serving
workload, and :func:`build_reveil_forget` adds the online ``/v1/forget``
plane.
"""

from .batcher import BatchOutput, BatchPolicy, MicroBatcher, QueueFullError
from .cache import ResponseCache, input_digest
from .client import (LoadReport, ModelVersionEntry, ServingClient,
                     ServingError, run_load)
from .forget import (DeletionFlagged, DeletionRateLimited, ForgetConfig,
                     ForgetPlane, GuardPolicy, OnlineUnlearningGuard)
from .http import (API_PREFIX, Route, ServingHTTPServer, route_table,
                   start_http_server, stop_http_server)
from .scenario import (ReVeilForgetServing, ReVeilServing,
                       build_reveil_forget, build_reveil_serving,
                       serving_store)
from .screening import OnlineStrip, ScreenConfig
from .server import InferenceServer, PredictResult
from .store import ModelEntry, ModelKey, ModelStore

__all__ = [
    "ModelStore", "ModelEntry", "ModelKey",
    "BatchPolicy", "MicroBatcher", "BatchOutput", "QueueFullError",
    "ResponseCache", "input_digest",
    "InferenceServer", "PredictResult",
    "OnlineStrip", "ScreenConfig",
    "ServingHTTPServer", "start_http_server", "stop_http_server",
    "API_PREFIX", "Route", "route_table",
    "ForgetPlane", "ForgetConfig", "OnlineUnlearningGuard", "GuardPolicy",
    "DeletionRateLimited", "DeletionFlagged",
    "ServingClient", "ServingError", "LoadReport", "ModelVersionEntry",
    "run_load",
    "ReVeilServing", "build_reveil_serving", "serving_store",
    "ReVeilForgetServing", "build_reveil_forget",
]
