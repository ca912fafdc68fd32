"""Serving-layer benchmark: throughput/latency vs policy, workers, cache.

Stands up the real stack — ModelStore, fixed-width micro-batcher,
stdlib HTTP front end — around a bench-scale model and drives it with
the closed-loop load generator across several axes:

- **policies**: coalescing (max_batch_size, max_delay_ms) sweep;
- **threads**: intra-op thread counts at the widest policy;
- **multiproc**: ``--serve-workers`` 1/2/4 — fixed-width batches
  dispatched over per-process folded replicas with the shared-memory
  logits return path (the win only materializes with >= 2 available
  cores; ``cpu_count`` is recorded alongside so the cells are
  interpretable);
- **cache**: the exact-response LRU under repeated traffic, on vs off,
  plus a cached-vs-fresh max-delta that the determinism contract pins
  to exactly 0.0;
- **cluster**: aggregate throughput at 1/2/4 simulated host processes
  behind the rendezvous router (one spanning replica group), plus a
  routed-vs-direct max-delta pinned to exactly 0.0 — distribution must
  not change a single bit;
- **compiled**: the traced/fused/arena graph path (``repro.nn.compile``,
  the serving default) vs interpreted serving, at 1 and 2 workers, plus
  a compiled-vs-interpreted max-delta pinned to exactly 0.0 and a
  steady-p50 pair that ``check_regression.py`` gates — compiled must
  not lose to interpreted.

Records, per cell: throughput (req/s), p50/p95 client-observed latency,
scheduler occupancy / mean batch width, dropped + errored responses,
and (where relevant) backend shm-return counts and cache hit rates.

Writes the ``serving`` section of ``benchmarks/BENCH_perf_scaling.json``
(other sections preserved), including the ``serving.quick_gate`` cells
consumed by ``benchmarks/check_regression.py`` in CI.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

``--quick`` refreshes only the quick-gate cells.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import nn  # noqa: E402
from repro.data.registry import load_dataset  # noqa: E402
from repro.models.registry import build_model  # noqa: E402
from repro.nn.tensor import Tensor  # noqa: E402
from repro.nn.threading import available_cpu_count  # noqa: E402
from repro.obs import profiled, set_tracing  # noqa: E402
from repro.parallel import ModelSpec  # noqa: E402
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,  # noqa: E402
                         ServingClient, ServingCluster, run_load,
                         start_http_server, stop_http_server)

OUT_PATH = Path(__file__).parent / "BENCH_perf_scaling.json"

#: (max_batch_size, max_delay_ms) policies swept by the full run.
POLICIES = ((1, 0.0), (8, 2.0), (32, 4.0))
THREAD_COUNTS = (1, 2)
WORKER_COUNTS = (1, 2, 4)
HOST_COUNTS = (1, 2, 4)


def _build_server(policy: BatchPolicy, dataset: str = "cifar10-bench",
                  model_name: str = "small_cnn", scale: str = "bench",
                  workers: int = 1, response_cache: int = 0,
                  prefetch: bool = True, compile_models: bool = True):
    _, test, profile = load_dataset(dataset, seed=0)
    nn.manual_seed(0)
    model = build_model(model_name, profile.num_classes, scale=scale)
    model.eval()
    store = ModelStore()
    store.register(model_name, model, version="v1",
                   spec=ModelSpec(model_name, profile.num_classes,
                                  scale=scale),
                   input_shape=test.images.shape[1:])
    server = InferenceServer(store, policy=policy, workers=workers,
                             response_cache=response_cache,
                             prefetch_replicas=prefetch,
                             compile_models=compile_models)
    return server, test


def _run_cell(server: InferenceServer, test, requests: int, concurrency: int,
              distinct_images: int = 64) -> dict:
    """Drive one server over HTTP and collect the standard cell fields."""
    httpd = start_http_server(server)
    try:
        client = ServingClient(httpd.url)
        # Warm the folded copy / replicas + connection path out of the
        # timed run.
        client.predict("small_cnn", test.images[0])
        report = run_load(client, "small_cnn",
                          test.images[:distinct_images],
                          requests=requests, concurrency=concurrency)
    finally:
        stop_http_server(httpd)
    stats = server.batcher.stats()
    cell = {
        "requests": requests,
        "concurrency": concurrency,
        "ok": report.ok,
        "rejected": report.rejected,
        "errors": report.errors,
        "throughput_rps": report.throughput_rps,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "occupancy": stats["occupancy"],
        "mean_batch_width": stats["mean_batch_width"],
    }
    if server.backend is not None:
        backend = server.backend.stats()
        cell["workers"] = backend["workers"]
        cell["shm_returns"] = backend["shm_returns"]
        cell["pipe_returns"] = backend["pipe_returns"]
    if server.cache is not None:
        cache = server.cache.stats()
        cell["cache_hits"] = cache["hits"]
        cell["cache_hit_rate"] = cache["hit_rate"]
    return cell


def time_policy(max_batch: int, delay_ms: float, threads: int,
                requests: int = 192, concurrency: int = 16,
                dataset: str = "cifar10-bench") -> dict:
    """One (policy, intra-op threads) cell over HTTP."""
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=delay_ms)
    server, test = _build_server(policy, dataset=dataset)
    try:
        with nn.intra_op_threads(threads):
            cell = _run_cell(server, test, requests, concurrency)
        cell.update(max_batch_size=max_batch, max_delay_ms=delay_ms,
                    intra_op_threads=threads)
        return cell
    finally:
        server.close()


def time_workers(workers: int, max_batch: int = 8, delay_ms: float = 2.0,
                 requests: int = 192, concurrency: int = 32,
                 dataset: str = "cifar10-bench",
                 scale: str = "bench") -> dict:
    """One ``--serve-workers`` cell: inline at 1, multiproc beyond."""
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=delay_ms)
    server, test = _build_server(policy, dataset=dataset, scale=scale,
                                 workers=workers)
    try:
        cell = _run_cell(server, test, requests, concurrency)
        cell.update(serve_workers=workers, max_batch_size=max_batch,
                    max_delay_ms=delay_ms)
        return cell
    finally:
        server.close()


def time_cluster(hosts: int, max_batch: int = 8, delay_ms: float = 2.0,
                 requests: int = 96, concurrency: int = 16,
                 dataset: str = "cifar10-bench", scale: str = "bench") -> dict:
    """One router cell: ``hosts`` simulated host processes behind the
    rendezvous router, one spanning replica group (``group_size=hosts``)
    so in-group round-robin spreads the load across every host.

    Bench scale keeps a forward heavy enough (~milliseconds) that the
    aggregate throughput is host-bound, not router-bound — the axis the
    scaling gate in ``check_regression.py`` reads.
    """
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=delay_ms)
    _, test, profile = load_dataset(dataset, seed=0)
    nn.manual_seed(0)
    model = build_model("small_cnn", profile.num_classes, scale=scale)
    model.eval()
    cluster = ServingCluster(hosts=hosts, group_size=hosts,
                             workers_per_host=1, policy=policy)
    try:
        cluster.register("small_cnn", model, version="v1",
                         spec=ModelSpec("small_cnn", profile.num_classes,
                                        scale=scale),
                         input_shape=test.images.shape[1:])
        httpd = cluster.serve()
        try:
            client = ServingClient(httpd.url)
            # Warm every host's replica + the connection path out of the
            # timed run (one predict per host: round-robin reaches all).
            for _ in range(hosts):
                client.predict("small_cnn", test.images[0])
            report = run_load(client, "small_cnn", test.images[:64],
                              requests=requests, concurrency=concurrency)
        finally:
            stop_http_server(httpd)
        counters = cluster.metrics()["router"]
        return {
            "hosts": hosts,
            "requests": requests,
            "concurrency": concurrency,
            "ok": report.ok,
            "rejected": report.rejected,
            "errors": report.errors,
            "throughput_rps": report.throughput_rps,
            "p50_ms": report.p50_ms,
            "p95_ms": report.p95_ms,
            "routed_per_host": counters["routed_per_host"],
            "degraded_routes": counters["degraded_routes"],
            "inline_batches": counters["inline_batches"],
        }
    finally:
        cluster.close()


def cluster_vs_single_delta(dataset: str = "unit") -> float:
    """Max |delta| between router-served and direct fixed-width logits
    (want exactly 0.0 — distribution must not change a single bit)."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    _, test, profile = load_dataset(dataset, seed=0)
    nn.manual_seed(0)
    model = build_model("small_cnn", profile.num_classes, scale="tiny")
    model.eval()
    with ServingCluster(hosts=2, group_size=2, workers_per_host=1,
                        policy=policy) as cluster:
        cluster.register("small_cnn", model, version="v1",
                         spec=ModelSpec("small_cnn", profile.num_classes,
                                        scale="tiny"),
                         input_shape=test.images.shape[1:])
        folded = cluster.store.folded("small_cnn", "v1")
        deltas = []
        for i in range(8):
            image = np.asarray(test.images[i], dtype=np.float32)
            routed = cluster.predict("small_cnn", image).logits[0]
            batch = np.zeros((policy.max_batch_size,) + image.shape,
                             np.float32)
            batch[0] = image
            direct = folded(Tensor(batch)).data[0].astype(np.float32)
            deltas.append(np.abs(np.asarray(routed, np.float32)
                                 - direct).max())
        return float(max(deltas))


def time_cache(response_cache: int, distinct_images: int = 8,
               requests: int = 192, concurrency: int = 16,
               dataset: str = "cifar10-bench") -> dict:
    """Repeated-traffic cell: ``distinct_images`` round-robined, so a
    cache of that capacity converges to an all-hit steady state."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset=dataset,
                                 response_cache=response_cache)
    try:
        cell = _run_cell(server, test, requests, concurrency,
                         distinct_images=distinct_images)
        cell.update(response_cache=response_cache,
                    distinct_images=distinct_images)
        return cell
    finally:
        server.close()


def time_compiled(compile_models: bool, workers: int = 1,
                  max_batch: int = 32, delay_ms: float = 4.0,
                  requests: int = 128, concurrency: int = 16,
                  dataset: str = "cifar10-bench") -> dict:
    """One compiled-vs-interpreted cell: the same HTTP load served
    through the traced/fused/arena graph or module-by-module."""
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=delay_ms)
    server, test = _build_server(policy, dataset=dataset, workers=workers,
                                 compile_models=compile_models)
    try:
        cell = _run_cell(server, test, requests, concurrency)
        cell.update(compiled=compile_models, serve_workers=workers,
                    max_batch_size=max_batch, max_delay_ms=delay_ms)
        entry = server.store.entry("small_cnn", "v1")
        cell["plan"] = entry.plan_summary()
        return cell
    finally:
        server.close()


def compiled_steady_cells(repeats: int = 3, steady: int = 24,
                          max_batch: int = 32,
                          dataset: str = "cifar10-bench") -> dict:
    """Compiled vs interpreted steady-state p50, measured-vs-measured.

    In-process predicts at the full serving width (every batch padded to
    ``max_batch``), fresh server per repeat, best-of-``repeats`` per
    mode — the same noise-robust floor estimator the observability
    overhead cells use.  ``check_regression.py`` gates the pair:
    compiled serving must not lose to interpreted
    (``REVEIL_COMPILE_SPEEDUP`` sets the allowed factor).
    """
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=0.0)
    p50 = {"compiled": float("inf"), "interpreted": float("inf")}
    for _ in range(repeats):
        for mode in ("interpreted", "compiled"):
            server, test = _build_server(
                policy, dataset=dataset,
                compile_models=(mode == "compiled"))
            try:
                server.predict("small_cnn", test.images[0])   # warm
                laps = []
                for index in range(steady):
                    image = test.images[(index + 1) % len(test.images)]
                    start = time.perf_counter()
                    server.predict("small_cnn", image)
                    laps.append(time.perf_counter() - start)
                p50[mode] = min(p50[mode], float(np.median(laps)))
            finally:
                server.close()
    return {
        "serving_compiled_steady_p50_seconds": p50["compiled"],
        "serving_interpreted_steady_p50_seconds": p50["interpreted"],
        "serving_compile_speedup": (p50["interpreted"]
                                    / max(p50["compiled"], 1e-9)),
    }


def compiled_vs_interpreted_delta(dataset: str = "unit") -> float:
    """Max |delta| between compiled-served and interpreted fixed-width
    logits (want exactly 0.0 — the compiled graph must be invisible)."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset=dataset,
                                 model_name="small_cnn", scale="tiny",
                                 compile_models=True)
    try:
        entry = server.store.entry("small_cnn", "v1")
        assert entry.compiled, (
            f"bench server failed to compile: {entry.plan()}")
        folded = server.store.folded("small_cnn", "v1")    # interpreted
        deltas = []
        for i in range(8):
            image = np.asarray(test.images[i], dtype=np.float32)
            served = server.predict("small_cnn", image).logits[0]
            batch = np.zeros((policy.max_batch_size,) + image.shape,
                             np.float32)
            batch[0] = image
            direct = folded(Tensor(batch)).data[0].astype(np.float32)
            deltas.append(np.abs(np.asarray(served, np.float32)
                                 - direct).max())
        return float(max(deltas))
    finally:
        server.close()


def first_batch_latency(workers: int, prefetch: bool, repeats: int = 3,
                        dataset: str = "unit", steady: int = 16) -> dict:
    """First-request vs steady-state latency, fresh server per repeat.

    The first request is the one that pays every deferred cost when
    prefetch is off — replica ship to the workers, folded-copy build,
    kernel planning, shm lane growth.  With prefetch + warm-up all of
    that ran at construction time, so the first request should land
    within a small factor of the steady-state p50 (gated in
    ``check_regression.py``).  In-process predicts, so the cell
    measures the serving stack, not HTTP accept jitter; the worst
    first-request over ``repeats`` fresh servers stands in for p99.
    """
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=0.0)
    firsts, steadies = [], []
    for _ in range(repeats):
        server, test = _build_server(policy, dataset=dataset,
                                     model_name="small_cnn", scale="tiny",
                                     workers=workers, prefetch=prefetch)
        try:
            start = time.perf_counter()
            server.predict("small_cnn", test.images[0])
            firsts.append(time.perf_counter() - start)
            laps = []
            for index in range(steady):
                image = test.images[(index + 1) % len(test.images)]
                start = time.perf_counter()
                server.predict("small_cnn", image)
                laps.append(time.perf_counter() - start)
            steadies.append(float(np.median(laps)))
        finally:
            server.close()
    return {
        "workers": workers,
        "prefetch": prefetch,
        "repeats": repeats,
        "first_batch_p99_seconds": float(max(firsts)),
        "first_batch_samples_seconds": [float(value) for value in firsts],
        "steady_p50_seconds": float(np.median(steadies)),
    }


def solo_vs_coalesced_delta(dataset: str = "unit") -> float:
    """Max |delta| between solo-served and burst-served logits (want 0.0)."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=20.0)
    server, test = _build_server(policy, dataset=dataset,
                                 model_name="small_cnn", scale="tiny")
    try:
        images = test.images[:8]
        solo = [server.predict("small_cnn", images[i]).logits[0]
                for i in range(len(images))]
        futures = [server.batcher.submit(("small_cnn", "v1"), images[i])
                   for i in range(len(images))]
        coalesced = [f.result(timeout=30).logits[0] for f in futures]
        return float(max(np.abs(np.asarray(s) - np.asarray(c)).max()
                         for s, c in zip(solo, coalesced)))
    finally:
        server.close()


def cached_vs_fresh_delta(dataset: str = "unit") -> float:
    """Max |delta| between a fresh forward and its cache replay (want 0.0)."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset=dataset,
                                 model_name="small_cnn", scale="tiny",
                                 response_cache=16)
    try:
        deltas = []
        for i in range(8):
            fresh = server.predict("small_cnn", test.images[i]).logits
            replay = server.predict("small_cnn", test.images[i])
            assert replay.cached, "second predict should hit the cache"
            deltas.append(np.abs(fresh - replay.logits).max())
        return float(max(deltas))
    finally:
        server.close()


def obs_overhead_cells(requests: int = 96, concurrency: int = 8,
                       repeats: int = 3) -> dict:
    """Tracing + metrics at defaults vs tracing off, same load.

    Measured-vs-measured on this machine, so the cells answer the only
    question that matters: what does leaving the observability plane on
    cost?  ``check_regression.py`` gates the ratio via
    ``REVEIL_OBS_OVERHEAD_FACTOR`` (default 1.05 — the obs plane may
    cost at most ~5% of steady p50).

    A single p50 pair on a shared/1-CPU runner swings ±40% from
    scheduler noise, so each mode takes the best of ``repeats`` runs —
    the standard noise-robust estimator for a floor-cost comparison
    (systematic overhead survives a min; time-slice hiccups don't).
    Modes alternate so slow machine phases hit both equally.
    """
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    p50 = {"off": float("inf"), "on": float("inf")}
    for _ in range(repeats):
        for mode in ("off", "on"):
            server, test = _build_server(policy, dataset="unit",
                                         model_name="small_cnn",
                                         scale="tiny")
            previous = set_tracing(mode == "on")
            try:
                cell = _run_cell(server, test, requests, concurrency,
                                 distinct_images=16)
            finally:
                set_tracing(previous)
                server.close()
            p50[mode] = min(p50[mode], cell["p50_ms"] / 1e3)
    return {
        "serving_obs_on_p50_seconds": p50["on"],
        "serving_obs_off_p50_seconds": p50["off"],
        "serving_obs_overhead_factor": p50["on"] / max(p50["off"], 1e-9),
    }


def phase_breakdown(requests: int = 64, concurrency: int = 8) -> dict:
    """Per-phase wall/CPU breakdown of one inline serving run.

    Enables the zero-cost profiling hooks (:func:`repro.obs.profiled`)
    for the duration of a short load: the snapshot splits the serving
    path into its instrumented phases — ``serve.dispatch`` (pad +
    submit), ``conv.forward`` (the kernel block layer; visible inline,
    where the forward runs in-process) and, with worker processes,
    ``session.call`` / ``netstate.ship``.
    """
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset="unit",
                                 model_name="small_cnn", scale="tiny")
    try:
        with profiled() as profiler:
            _run_cell(server, test, requests, concurrency,
                      distinct_images=16)
        return profiler.snapshot()
    finally:
        server.close()


def run_quick_gate() -> dict:
    """Smoke-scale serving cells for the CI perf gate.

    The multiproc pair (``serving_single_p50_seconds`` vs
    ``serving_multiproc_p50_seconds``) runs the *same* load at 1 and 2
    serve-workers on bench scale, where a forward is heavy enough
    (~milliseconds) that two overlapping batches beat two serialized
    ones whenever >= 2 cores exist — the gate compares measured vs
    measured, never measured vs a foreign machine's baseline.
    """
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset="unit",
                                 model_name="small_cnn", scale="tiny")
    try:
        report_cell = _run_cell(server, test, requests=48, concurrency=4,
                                distinct_images=16)
    finally:
        server.close()

    single = time_workers(1, requests=64, concurrency=16)
    multi = time_workers(2, requests=64, concurrency=16)
    cache_cell = time_cache(16, distinct_images=4, requests=64,
                            concurrency=4)
    warm = first_batch_latency(workers=2, prefetch=True)
    cold = first_batch_latency(workers=2, prefetch=False)
    one_host = time_cluster(1, requests=96, concurrency=16)
    two_hosts = time_cluster(2, requests=96, concurrency=16)
    return {
        "serving_p50_seconds": report_cell["p50_ms"] / 1e3,
        "serving_throughput_rps": report_cell["throughput_rps"],
        "serving_dropped": report_cell["rejected"] + report_cell["errors"],
        "serving_solo_vs_coalesced_max_delta": solo_vs_coalesced_delta(),
        "serving_single_p50_seconds": single["p50_ms"] / 1e3,
        "serving_multiproc_p50_seconds": multi["p50_ms"] / 1e3,
        "serving_multiproc_throughput_rps": multi["throughput_rps"],
        "serving_multiproc_dropped": multi["rejected"] + multi["errors"],
        "serving_multiproc_shm_returns": multi["shm_returns"],
        "serving_multiproc_pipe_returns": multi["pipe_returns"],
        "serving_cache_hit_p50_seconds": cache_cell["p50_ms"] / 1e3,
        "serving_cache_hit_rate": cache_cell["cache_hit_rate"],
        "serving_cached_vs_fresh_max_delta": cached_vs_fresh_delta(),
        # First-batch pair: prefetch+warm-up vs lazy cold start, 2-worker
        # backend.  The warm p99 is gated against steady p50 in
        # check_regression.py; the cold cell records the spike prefetch
        # exists to kill.
        "serving_first_batch_seconds": warm["first_batch_p99_seconds"],
        "serving_steady_p50_seconds": warm["steady_p50_seconds"],
        "serving_cold_first_batch_seconds": cold["first_batch_p99_seconds"],
        # Cluster pair: the same bench-scale load routed to 1 vs 2 host
        # processes (one spanning group, round-robin).  The scale ratio
        # is measured-vs-measured on this machine; the delta cell pins
        # routed bits to the direct fixed-width forward.
        "serving_cluster_1host_rps": one_host["throughput_rps"],
        "serving_cluster_2host_rps": two_hosts["throughput_rps"],
        "serving_cluster_scale_2v1": (two_hosts["throughput_rps"]
                                      / max(one_host["throughput_rps"],
                                            1e-9)),
        "serving_cluster_p50_seconds": two_hosts["p50_ms"] / 1e3,
        "serving_cluster_dropped": (one_host["rejected"] + one_host["errors"]
                                    + two_hosts["rejected"]
                                    + two_hosts["errors"]),
        "serving_cluster_vs_single_max_delta": cluster_vs_single_delta(),
        # Compiled pair: the same in-process steady load served through
        # the traced/fused/arena graph vs module-by-module, plus the
        # bit-identity delta the compiled path must keep at exactly 0.0.
        "serving_compiled_vs_interpreted_max_delta":
            compiled_vs_interpreted_delta(),
        **compiled_steady_cells(),
        # Observability overhead pair: tracing + metrics at defaults vs
        # tracing off, same machine, same load.
        **obs_overhead_cells(),
    }


def _merge_write(path: Path, serving_updates: dict) -> None:
    """Merge into the JSON's ``serving`` section, preserving everything a
    run didn't produce (both other top-level sections and, on ``--quick``,
    the full-run serving cells)."""
    report = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError:
            report = {}
    section = report.get("serving")
    if not isinstance(section, dict):
        section = {}
    section.update(serving_updates)
    report["serving"] = section
    path.write_text(json.dumps(report, indent=2, sort_keys=True))


def run_full() -> dict:
    section = {"dataset": "cifar10-bench", "policies": {}, "threads": {},
               "multiproc": {}, "cache": {}}
    print(f"serving policy sweep on cifar10-bench "
          f"(policies {POLICIES}, 192 requests, concurrency 16)")
    for max_batch, delay_ms in POLICIES:
        cell = time_policy(max_batch, delay_ms, threads=1)
        section["policies"][f"b{max_batch}"] = cell
        print(f"  batch<={max_batch} delay={delay_ms:g}ms: "
              f"{cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms, p95 {cell['p95_ms']:.1f}ms, "
              f"occupancy {cell['occupancy']:.2f}, "
              f"width {cell['mean_batch_width']:.1f}")
    print(f"intra-op thread sweep at batch<=32 (threads {THREAD_COUNTS})")
    for threads in THREAD_COUNTS:
        cell = time_policy(32, 4.0, threads=threads)
        section["threads"][str(threads)] = cell
        print(f"  threads={threads}: {cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms")
    print(f"serve-workers sweep at batch<=8 (workers {WORKER_COUNTS}, "
          f"concurrency 32, {available_cpu_count()} cores available)")
    for workers in WORKER_COUNTS:
        cell = time_workers(workers)
        section["multiproc"][f"w{workers}"] = cell
        shm = (f", {cell['shm_returns']} shm returns"
               if "shm_returns" in cell else "")
        print(f"  workers={workers}: {cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms{shm}")
    print("response-cache sweep (8 distinct images round-robined)")
    for capacity in (0, 256):
        cell = time_cache(capacity)
        section["cache"]["on" if capacity else "off"] = cell
        hit = (f", hit rate {cell['cache_hit_rate']:.3f}"
               if capacity else "")
        print(f"  cache={capacity}: {cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms{hit}")
    print(f"cluster host sweep at batch<=8 (hosts {HOST_COUNTS}, one "
          f"spanning group, 1 worker/host)")
    section["cluster"] = {}
    for hosts in HOST_COUNTS:
        cell = time_cluster(hosts)
        section["cluster"][f"h{hosts}"] = cell
        print(f"  hosts={hosts}: {cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms, "
              f"per-host {cell['routed_per_host']}")
    print("compiled sweep at batch<=32 (compile on/off x workers 1/2)")
    section["compiled"] = {}
    for workers in (1, 2):
        for compiled in (True, False):
            cell = time_compiled(compiled, workers=workers)
            label = f"w{workers}-{'on' if compiled else 'off'}"
            section["compiled"][label] = cell
            plan = cell.get("plan") or {}
            note = (f", {plan.get('ops', 0)} ops / "
                    f"{plan.get('fused', 0)} fused" if compiled else "")
            print(f"  workers={workers} "
                  f"{'compiled' if compiled else 'interpreted'}: "
                  f"{cell['throughput_rps']:.1f} req/s, "
                  f"p50 {cell['p50_ms']:.1f}ms{note}")
    print("first-batch latency: prefetch+warm-up vs lazy cold start")
    section["first_batch"] = {}
    for workers in (1, 2):
        for prefetch in (True, False):
            cell = first_batch_latency(workers=workers, prefetch=prefetch)
            label = f"w{workers}-{'warm' if prefetch else 'cold'}"
            section["first_batch"][label] = cell
            print(f"  workers={workers} "
                  f"{'prefetch' if prefetch else 'lazy'}: first "
                  f"{cell['first_batch_p99_seconds'] * 1e3:.1f}ms, steady "
                  f"p50 {cell['steady_p50_seconds'] * 1e3:.1f}ms")
    print("per-phase breakdown (profiling hooks on, inline backend)")
    phases = phase_breakdown()
    section["phases"] = phases
    for name, bucket in phases.items():
        print(f"  {name}: {bucket['calls']} calls, "
              f"wall {bucket['wall_s'] * 1e3:.1f}ms, "
              f"cpu {bucket['cpu_s'] * 1e3:.1f}ms")
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="refresh only the serving quick-gate cells")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    section = {"cpu_count": available_cpu_count()}
    if not args.quick:
        section.update(run_full())

    print("serving quick-gate cells (unit profile + bench-scale "
          "multiproc pair)")
    start = time.perf_counter()
    section["quick_gate"] = run_quick_gate()
    for name, value in section["quick_gate"].items():
        print(f"  {name}: {value:.4g}")
    print(f"  ({time.perf_counter() - start:.1f}s)")

    if section["quick_gate"]["serving_dropped"] != 0:
        print("ERROR: quick-gate load dropped responses", file=sys.stderr)
        return 1
    if section["quick_gate"]["serving_solo_vs_coalesced_max_delta"] != 0.0:
        print("ERROR: solo vs coalesced logits diverged — determinism "
              "contract broken", file=sys.stderr)
        return 1
    if section["quick_gate"]["serving_cached_vs_fresh_max_delta"] != 0.0:
        print("ERROR: cached vs fresh logits diverged — response cache "
              "exactness broken", file=sys.stderr)
        return 1
    if section["quick_gate"]["serving_cluster_dropped"] != 0:
        print("ERROR: cluster quick-gate load dropped responses",
              file=sys.stderr)
        return 1
    if section["quick_gate"]["serving_cluster_vs_single_max_delta"] != 0.0:
        print("ERROR: routed vs direct logits diverged — cluster "
              "determinism contract broken", file=sys.stderr)
        return 1
    if section["quick_gate"][
            "serving_compiled_vs_interpreted_max_delta"] != 0.0:
        print("ERROR: compiled vs interpreted logits diverged — the "
              "compiled graph must be bit-invisible", file=sys.stderr)
        return 1

    _merge_write(args.out, section)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
