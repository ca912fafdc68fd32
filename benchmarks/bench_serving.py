"""Serving-layer benchmark: throughput/latency vs policy, cache, compile.

Stands up the real stack — ModelStore, natural-width micro-batcher,
stdlib keep-alive HTTP front end — around a bench-scale model and
drives it with the closed-loop load generator across several axes:

- **policies**: coalescing (max_batch_size, max_delay_ms) sweep;
- **cache**: the exact-response LRU under repeated traffic, on vs off,
  plus a cached-vs-fresh max-delta that the determinism contract pins
  to exactly 0.0;
- **compiled**: in process, the forward the server runs (the folded
  interpreter at natural width) against a ``repro.nn.compile`` program
  at width 32, the fixed width serving used to pad every batch to, for
  1 row and for 1 request + 8 STRIP rows; plus a served-vs-compiled
  max-delta pinned to exactly 0.0 and a steady-p50 pair that
  ``check_regression.py`` gates — the served forward must not lose to
  the compiled one.

Records, per HTTP cell: throughput (req/s), p50/p95 client-observed
latency, mean batch width, dropped + errored responses, and (where
relevant) cache hit rates.

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
from repro.obs import profiled, set_tracing  # noqa: E402
from repro.parallel import available_cpu_count  # noqa: E402
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,  # noqa: E402
                         ServingClient, run_load, start_http_server,
                         stop_http_server)

OUT_PATH = Path(__file__).parent / "BENCH_perf_scaling.json"

#: (max_batch_size, max_delay_ms) policies swept by the full run.
POLICIES = ((1, 0.0), (8, 2.0), (32, 4.0))
#: The width ``repro serve`` batches used to be padded to (its default
#: ``--max-batch-size``), and the forward rows of one request served
#: alone: unscreened, and with ``repro serve``'s 8 STRIP overlays.
COMPILE_WIDTH = 32
SERVED_ROWS = (1, 9)


def _build_server(policy: BatchPolicy, dataset: str = "cifar10-bench",
                  model_name: str = "small_cnn", scale: str = "bench",
                  response_cache: int = 0, prefetch: bool = True):
    _, test, profile = load_dataset(dataset, seed=0)
    nn.manual_seed(0)
    model = build_model(model_name, profile.num_classes, scale=scale)
    model.eval()
    store = ModelStore()
    store.register(model_name, model, version="v1",
                   input_shape=test.images.shape[1:])
    server = InferenceServer(store, policy=policy,
                             response_cache=response_cache,
                             prefetch_replicas=prefetch)
    return server, test


def _run_cell(server: InferenceServer, test, requests: int, concurrency: int,
              distinct_images: int = 64) -> dict:
    """Drive one server over HTTP and collect the standard cell fields."""
    httpd = start_http_server(server)
    try:
        with ServingClient(httpd.url) as client:
            # Warm the folded copy + connection path out of the timed run.
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
        "mean_batch_width": stats["mean_batch_width"],
    }
    if server.cache is not None:
        cache = server.cache.stats()
        cell["cache_hits"] = cache["hits"]
        cell["cache_hit_rate"] = cache["hit_rate"]
    return cell


def time_policy(max_batch: int, delay_ms: float,
                requests: int = 192, concurrency: int = 16,
                dataset: str = "cifar10-bench") -> dict:
    """One coalescing-policy cell over HTTP."""
    policy = BatchPolicy(max_batch_size=max_batch, max_delay_ms=delay_ms)
    server, test = _build_server(policy, dataset=dataset)
    try:
        cell = _run_cell(server, test, requests, concurrency)
        cell.update(max_batch_size=max_batch, max_delay_ms=delay_ms)
        return cell
    finally:
        server.close()


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


def compile_cells(rows_list=SERVED_ROWS, repeats: int = 3,
                  steady: int = 48) -> dict:
    """Compiled at width 32 vs the folded interpreter at natural width.

    In process, on bench ``small_cnn`` over ``cifar10-bench``, one
    forward per lap, for each row count in ``rows_list``: the compiled
    program runs the rows zero-padded to :data:`COMPILE_WIDTH` (what
    serving ran before batches lost their padding), the interpreter
    runs just the rows (what it runs now).  Modes alternate lap by lap;
    each cell is the best of ``repeats`` medians over ``steady`` laps,
    the floor estimator the other measured-vs-measured cells use.
    """
    _, test, profile = load_dataset("cifar10-bench", seed=0)
    nn.manual_seed(0)
    model = build_model("small_cnn", profile.num_classes, scale="bench")
    model.eval()
    store = ModelStore()
    store.register("small_cnn", model, version="v1")
    folded = store.folded("small_cnn")
    compiled = nn.compile(model, COMPILE_WIDTH,
                          input_shape=test.images.shape[1:])
    assert compiled.compiled, compiled.fallback_reason
    cells = {}
    with nn.no_grad():
        for rows in rows_list:
            padded = np.zeros((COMPILE_WIDTH,) + test.images.shape[1:],
                              np.float32)
            padded[:rows] = test.images[:rows]
            natural = np.ascontiguousarray(padded[:rows])
            runs = {"compiled": lambda: compiled(Tensor(padded)),
                    "interpreted": lambda: folded(Tensor(natural))}
            for run in runs.values():
                run()                                       # warm
            best = {mode: float("inf") for mode in runs}
            for _ in range(repeats):
                laps = {mode: [] for mode in runs}
                for _ in range(steady):
                    for mode, run in runs.items():
                        start = time.perf_counter()
                        run()
                        laps[mode].append(time.perf_counter() - start)
                for mode in runs:
                    best[mode] = min(best[mode], float(np.median(laps[mode])))
            cells[f"rows{rows}"] = {
                "rows": rows,
                "compiled_width": COMPILE_WIDTH,
                "compiled_p50_seconds": best["compiled"],
                "interpreted_natural_p50_seconds": best["interpreted"],
                "natural_speedup": best["compiled"] / max(best["interpreted"],
                                                          1e-9),
            }
    cells["cpu_count"] = available_cpu_count()
    return cells


def compiled_steady_cells() -> dict:
    """The quick gate's compiled pair: 1 request + 8 STRIP rows.

    ``check_regression.py`` gates it: the served forward (interpreted,
    natural width) must not lose to the compiled width-32 program
    (``REVEIL_COMPILE_SPEEDUP`` sets the allowed factor).
    """
    rows = SERVED_ROWS[-1]
    cell = compile_cells(rows_list=(rows,))[f"rows{rows}"]
    return {
        "serving_compiled_steady_p50_seconds": cell["compiled_p50_seconds"],
        "serving_interpreted_steady_p50_seconds":
            cell["interpreted_natural_p50_seconds"],
        "serving_compile_speedup": (cell["interpreted_natural_p50_seconds"]
                                    / max(cell["compiled_p50_seconds"],
                                          1e-9)),
    }


def compiled_vs_interpreted_delta(dataset: str = "unit") -> float:
    """Max |delta| between served logits (interpreted, natural width)
    and the same model's ``nn.compile`` program at width 32 (want
    exactly 0.0 — row invariance makes the width invisible)."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset=dataset,
                                 model_name="small_cnn", scale="tiny")
    try:
        compiled = nn.compile(server.store.model("small_cnn"), COMPILE_WIDTH,
                              input_shape=test.images.shape[1:])
        assert compiled.compiled, compiled.fallback_reason
        deltas = []
        for i in range(8):
            image = np.asarray(test.images[i], dtype=np.float32)
            served = server.predict("small_cnn", image).logits[0]
            batch = np.zeros((COMPILE_WIDTH,) + image.shape, np.float32)
            batch[0] = image
            direct = compiled(Tensor(batch)).data[0].astype(np.float32)
            deltas.append(np.abs(np.asarray(served, np.float32)
                                 - direct).max())
        return float(max(deltas))
    finally:
        server.close()


def first_batch_latency(prefetch: bool, repeats: int = 3,
                        dataset: str = "unit", steady: int = 16) -> dict:
    """First-request vs steady-state latency, fresh server per repeat.

    The first request is the one that pays every deferred cost when
    prefetch is off — folded-copy build, kernel planning, screen
    calibration.  With prefetch + warm-up all of
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
                                     prefetch=prefetch)
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


#: Alternating off/on rounds of ``obs_overhead_cells``.
OBS_ROUNDS = 16


def obs_overhead_cells(rounds: int = OBS_ROUNDS, requests: int = 32,
                       concurrency: int = 1) -> dict:
    """Tracing + metrics at defaults vs tracing off, same load.

    Measured-vs-measured on this machine, so the cells answer the only
    question that matters: what does leaving the observability plane on
    cost?  ``check_regression.py`` gates the ratio via
    ``REVEIL_OBS_OVERHEAD_FACTOR`` (default 1.05 — the obs plane may
    cost at most ~5% of steady p50).

    Both modes run on one warm server and one keep-alive client:
    ``rounds`` rounds of ``requests`` predicts per mode, toggling
    :func:`set_tracing` between them and alternating which mode goes
    first, so slow machine phases hit both alike.  Each p50 is taken
    over every request of its mode (512 at the defaults).  One
    closed-loop client, like perfbench's ``predict``, keeps batch
    coalescing out of the latencies: at concurrency 8 the factor of
    five reruns spread 0.986-1.050, at 1 it spread 0.992-1.012 (2-core
    x86-64).  A fresh server per mode with best-of-3 runs of 96 requests
    at concurrency 8 read 1.005-1.552 on unchanged code.
    """
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset="unit",
                                 model_name="small_cnn", scale="tiny")
    images = test.images[:16]
    latencies = {"off": [], "on": []}
    previous = set_tracing(True)
    httpd = start_http_server(server)
    try:
        with ServingClient(httpd.url) as client:
            # Warm the folded copy, connections and both modes' paths.
            run_load(client, "small_cnn", images, requests=requests,
                     concurrency=concurrency)
            for index in range(rounds):
                for mode in (("off", "on") if index % 2 == 0
                             else ("on", "off")):
                    set_tracing(mode == "on")
                    report = run_load(client, "small_cnn", images,
                                      requests=requests,
                                      concurrency=concurrency)
                    latencies[mode] += report.latencies_s
    finally:
        set_tracing(previous)
        stop_http_server(httpd)
        server.close()
    p50 = {mode: float(np.median(values)) for mode, values in latencies.items()}
    return {
        "serving_obs_on_p50_seconds": p50["on"],
        "serving_obs_off_p50_seconds": p50["off"],
        "serving_obs_overhead_factor": p50["on"] / max(p50["off"], 1e-9),
    }


def phase_breakdown(requests: int = 64, concurrency: int = 8) -> dict:
    """Per-phase wall/CPU breakdown of one inline serving run.

    Enables the zero-cost profiling hooks (:func:`repro.obs.profiled`)
    for the duration of a short load: the snapshot splits the serving
    path into its instrumented phases — ``serve.dispatch`` (the
    group's forward) and ``conv.forward`` (the conv kernel: im2col and GEMMs).
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
    """Smoke-scale serving cells for the CI perf gate."""
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    server, test = _build_server(policy, dataset="unit",
                                 model_name="small_cnn", scale="tiny")
    try:
        report_cell = _run_cell(server, test, requests=48, concurrency=4,
                                distinct_images=16)
    finally:
        server.close()

    cache_cell = time_cache(16, distinct_images=4, requests=64,
                            concurrency=4)
    warm = first_batch_latency(prefetch=True)
    cold = first_batch_latency(prefetch=False)
    return {
        "serving_p50_seconds": report_cell["p50_ms"] / 1e3,
        "serving_throughput_rps": report_cell["throughput_rps"],
        "serving_dropped": report_cell["rejected"] + report_cell["errors"],
        "serving_solo_vs_coalesced_max_delta": solo_vs_coalesced_delta(),
        "serving_cache_hit_p50_seconds": cache_cell["p50_ms"] / 1e3,
        "serving_cache_hit_rate": cache_cell["cache_hit_rate"],
        "serving_cached_vs_fresh_max_delta": cached_vs_fresh_delta(),
        # First-batch pair: prefetch+warm-up vs lazy cold start.  The
        # warm p99 is gated against steady p50 in
        # check_regression.py; the cold cell records the spike prefetch
        # exists to kill.
        "serving_first_batch_seconds": warm["first_batch_p99_seconds"],
        "serving_steady_p50_seconds": warm["steady_p50_seconds"],
        "serving_cold_first_batch_seconds": cold["first_batch_p99_seconds"],
        # Compiled pair: in process, the served forward (interpreted,
        # natural width) vs an nn.compile program at width 32, plus the
        # bit-identity delta between them, exactly 0.0.
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
    section = {"dataset": "cifar10-bench", "policies": {}, "cache": {}}
    print(f"serving policy sweep on cifar10-bench "
          f"(policies {POLICIES}, 192 requests, concurrency 16)")
    for max_batch, delay_ms in POLICIES:
        cell = time_policy(max_batch, delay_ms)
        section["policies"][f"b{max_batch}"] = cell
        print(f"  batch<={max_batch} delay={delay_ms:g}ms: "
              f"{cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms, p95 {cell['p95_ms']:.1f}ms, "
              f"width {cell['mean_batch_width']:.1f}")
    print("response-cache sweep (8 distinct images round-robined)")
    for capacity in (0, 256):
        cell = time_cache(capacity)
        section["cache"]["on" if capacity else "off"] = cell
        hit = (f", hit rate {cell['cache_hit_rate']:.3f}"
               if capacity else "")
        print(f"  cache={capacity}: {cell['throughput_rps']:.1f} req/s, "
              f"p50 {cell['p50_ms']:.1f}ms{hit}")
    print(f"compiled at width {COMPILE_WIDTH} vs interpreted at natural "
          f"width, in process ({available_cpu_count()} cores)")
    section["compiled"] = compile_cells()
    for name, cell in section["compiled"].items():
        if name.startswith("rows"):
            print(f"  {cell['rows']} rows: compiled "
                  f"{cell['compiled_p50_seconds'] * 1e3:.2f}ms, interpreted "
                  f"{cell['interpreted_natural_p50_seconds'] * 1e3:.2f}ms "
                  f"({cell['natural_speedup']:.2f}x)")
    print("first-batch latency: prefetch+warm-up vs lazy cold start")
    section["first_batch"] = {}
    for prefetch in (True, False):
        cell = first_batch_latency(prefetch=prefetch)
        section["first_batch"][f"w1-{'warm' if prefetch else 'cold'}"] = cell
        print(f"  {'prefetch' if prefetch else 'lazy'}: first "
              f"{cell['first_batch_p99_seconds'] * 1e3:.1f}ms, steady "
              f"p50 {cell['steady_p50_seconds'] * 1e3:.1f}ms")
    print("per-phase breakdown (profiling hooks on)")
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

    print("serving quick-gate cells")
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
    if section["quick_gate"][
            "serving_compiled_vs_interpreted_max_delta"] != 0.0:
        print("ERROR: served logits diverged from the compiled width-32 "
              "program — row invariance broken", file=sys.stderr)
        return 1

    _merge_write(args.out, section)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
