"""Serving smoke gate (tier-2 CI entry point).

Starts a real HTTP server on an ephemeral port around a tiny untrained
model (weights don't matter for the transport/scheduler contract),
fires a small concurrent load through the stdlib client, and asserts:

- zero dropped or errored responses at this load;
- p50 latency under the budget;
- served logits bit-identical to a direct forward pass at the fixed
  compute width (the batcher's determinism contract, end to end
  through JSON) — including when ``--serve-workers`` >= 2 routes every
  batch through worker-process replicas rebuilt from shipped state
  dicts;
- with ``--serve-workers`` >= 2, the shared-memory return path actually
  carried the logits (no silent pipe fallback), replica state shipped
  via shared memory (not the pipe), and every worker process served
  traffic;
- with prefetch on (the default), replicas shipped and warm-up
  forwards ran *before* the first request, so not a single batch falls
  back to the pipe while lanes size themselves;
- with ``--response-cache`` > 0, a replayed request is answered from
  the cache with bit-identical logits;
- the online STRIP screen reported a flag rate for the served version;
- every shared-memory segment the run created is gone after close —
  the serving stack leaks nothing.

``--forget`` switches to the unlearning-as-a-service gate: the
camouflaged SISA provider serves a concurrent predict load while
deletion requests stream through ``POST /v1/forget`` — coalesced
retrain rounds publish and hot-swap ``forget-N`` versions with zero
dropped predicts, one trace id reconstructs the enqueue → retrain →
swap path, the guard answers 429 to bursts and 403 (enforce mode) to
camouflage-removal sequences, and the deletion ledger balances.

``--chaos`` switches to the reliability gate instead: a deterministic
fault schedule (worker SIGKILL mid-batch, a stall past the call
deadline, one corrupted state-ship fingerprint) is injected into a
4-worker server under load, then every worker is killed repeatedly to
force inline degradation, and the run asserts zero errored client
responses throughout, full fault-schedule coverage, ``degraded``
health + 503 readiness while the pool is empty, breaker-probed
re-promotion back to full capacity, bit-identical logits after every
recovery, and no leaked shared memory.

Run::

    PYTHONPATH=src python -m repro.serve.smoke [--timeout 120] \
        [--p50-ms 2000] [--serve-workers 2] [--response-cache 64] \
        [--no-prefetch-replicas] [--chaos] [--forget]

Exit code 0 on success, 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

import numpy as np

from .. import nn
from ..data.registry import load_dataset
from ..models.registry import build_model
from ..nn.tensor import Tensor
from ..obs import trace as _trace
from ..parallel.shm import leaked_segments, shm_segment_names
from ..parallel.tasks import ModelSpec
from ..reliability import (ANY_CALL, Fault, FaultInjector, FaultPlan,
                           ReliabilityConfig, RetryPolicy, install,
                           uninstall)
from .batcher import BatchPolicy
from .client import ServingClient, run_load
from .http import start_http_server, stop_http_server
from .screening import OnlineStrip, ScreenConfig
from .server import InferenceServer
from .store import ModelStore

#: Where a failing lane writes its observability forensics (flight
#: recorder dump + Prometheus snapshot); the tier-2 CI job uploads this
#: directory with the rest of the failure diagnostics.
ARTIFACT_DIR = os.environ.get("REVEIL_SMOKE_OBS_DIR", "smoke-obs")

#: The live lane's ``prometheus()`` renderer, registered by each lane
#: as soon as its server exists so a failure dump can snapshot the
#: counters even after ``finally`` tore the server down (the registries
#: outlive ``close()``).
_prom_renderer = None


def _dump_obs_artifacts() -> None:
    """Write the flight recorder + metrics exposition for CI to upload."""
    try:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        with open(os.path.join(ARTIFACT_DIR, "traces.json"), "w") as fh:
            json.dump({"spans": _trace.RECORDER.dump(),
                       "stats": _trace.RECORDER.stats()}, fh, indent=1)
        if _prom_renderer is not None:
            with open(os.path.join(ARTIFACT_DIR, "metrics.prom"), "w") as fh:
                fh.write(_prom_renderer())
        print(f"observability forensics written to {ARTIFACT_DIR}/",
              file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - must not mask the failure
        print(f"observability forensics dump failed: {exc}", file=sys.stderr)


def _gate(lane, args) -> int:
    """Run one smoke lane; dump the obs forensics if it fails."""
    try:
        code = lane(args)
    except BaseException:
        _dump_obs_artifacts()
        raise
    if code != 0:
        _dump_obs_artifacts()
    return code


def _recorder_violation() -> str:
    """Flight-recorder invariant check; empty string when clean.

    Every span the context manager starts is sealed in ``finally``, so
    at quiesce ``spans_started == spans_ended``; and the default-load
    lanes must never wrap the ring (a wrapped dump is a suffix, not the
    history).
    """
    rec = _trace.RECORDER.stats()
    if rec["spans_started"] != rec["spans_ended"]:
        return (f"flight recorder unbalanced: {rec['spans_started']} "
                f"started vs {rec['spans_ended']} ended")
    if rec["spans_dropped"]:
        return (f"flight recorder overflowed: {rec['spans_dropped']} "
                f"spans dropped (capacity {rec['capacity']})")
    return ""


def _ledger_violation(inference: InferenceServer) -> str:
    """Request-ledger invariant; empty string when it balances.

    Every request the server began must land in exactly one outcome
    counter — served, rejected, invalid, or failed.
    """
    snap = inference.stats.snapshot()
    accounted = (snap["served"] + snap["rejected"] + snap["invalid"]
                 + snap["failed"])
    if snap["total"] != accounted:
        return (f"request ledger unbalanced: total={snap['total']} but "
                f"outcomes sum to {accounted} ({snap})")
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="wall-clock budget in seconds (default 120)")
    parser.add_argument("--p50-ms", type=float, default=2000.0,
                        help="p50 latency budget in milliseconds")
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--serve-workers", type=int, default=1,
                        help="execution backend width (1 = in-process, "
                             ">= 2 = that many worker processes, 0 = auto)")
    parser.add_argument("--response-cache", type=int, default=16,
                        help="exact-response LRU capacity (0 disables)")
    parser.add_argument("--prefetch-replicas",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="ship + warm replicas before the first request "
                             "(the serving default)")
    parser.add_argument("--chaos", action="store_true",
                        help="run the reliability gate instead: inject a "
                             "deterministic fault schedule (crash, stall, "
                             "corrupt fingerprint), then kill every worker "
                             "and assert degraded serving + re-promotion, "
                             "with zero errored client responses throughout "
                             "(with --cluster: SIGKILL a whole host "
                             "mid-load instead)")
    parser.add_argument("--cluster", action="store_true",
                        help="run the distributed-tier gate: N simulated "
                             "host processes behind the router, bit-identity "
                             "vs the direct forward, cluster-wide hot-swap "
                             "under the version-skew bound")
    parser.add_argument("--hosts", type=int, default=2,
                        help="simulated host processes for --cluster "
                             "(default 2)")
    parser.add_argument("--forget", action="store_true",
                        help="run the unlearning-as-a-service gate: mixed "
                             "predict/forget traffic against the camouflaged "
                             "SISA provider, zero dropped predicts through "
                             "the retrain → hot-swap arc, guard 429/403 "
                             "drills, balanced deletion ledger")
    args = parser.parse_args(argv)
    if args.serve_workers < 0:
        parser.error("--serve-workers must be >= 0 (0 = one per core)")
    if args.response_cache < 0:
        parser.error("--response-cache must be >= 0 (0 = disabled)")
    if args.hosts < 1:
        parser.error("--hosts must be >= 1")
    # CI step timeouts deliver SIGTERM; turn it into SystemExit so the
    # finally blocks below still stop servers, close worker pools, and
    # unlink shared memory instead of orphaning the process tree.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.forget:
        return _gate(run_forget, args)
    if args.cluster:
        return _gate(run_cluster, args)
    if args.chaos:
        return _gate(run_chaos, args)
    return _gate(run_basic, args)


def run_basic(args) -> int:
    """Default serving gate: load, determinism, cache, screening, obs."""
    start = time.perf_counter()
    shm_before = shm_segment_names()
    _, test, profile = load_dataset("unit", seed=0)
    nn.manual_seed(0)
    model = build_model("small_cnn", profile.num_classes, scale="tiny")
    model.eval()

    store = ModelStore()
    store.register("smoke", model, version="v1",
                   spec=ModelSpec("small_cnn", profile.num_classes,
                                  scale="tiny"),
                   input_shape=test.images.shape[1:])
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    screening = OnlineStrip(overlay_pool=test.subset(range(16)),
                            config=ScreenConfig(num_overlays=2))
    # Server handles live in `finally`-guarded slots from the start: an
    # assertion that bails early (or start_http_server itself raising)
    # must still close the listener and the worker pool, otherwise a
    # failing CI run leaks the socket and the *retry* of the job dies
    # on a spurious EADDRINUSE rebind instead of the real failure.
    httpd = None
    inference = None
    try:
        inference = InferenceServer(store, policy=policy,
                                    screening=screening,
                                    workers=args.serve_workers,
                                    response_cache=args.response_cache,
                                    prefetch_replicas=args.prefetch_replicas)
        global _prom_renderer
        _prom_renderer = inference.prometheus
        multiproc = inference.backend is not None
        print(f"serving smoke: workers={inference.workers} "
              f"({'multiproc' if multiproc else 'inline'}), "
              f"response_cache={args.response_cache}, "
              f"prefetch={'on' if args.prefetch_replicas else 'off'}")
        if multiproc and args.prefetch_replicas:
            shipped = inference.backend.stats()
            if shipped["shipped"] != ["smoke/v1"]:
                print(f"SMOKE FAIL: prefetch did not ship the replica before "
                      f"traffic (shipped={shipped['shipped']})",
                      file=sys.stderr)
                return 1
            if any(count < 1 for count in shipped["warmups_per_worker"]):
                print(f"SMOKE FAIL: warm-up skipped a worker "
                      f"(warmups_per_worker={shipped['warmups_per_worker']})",
                      file=sys.stderr)
                return 1
        httpd = start_http_server(inference)
        client = ServingClient(httpd.url)
        if client.health().get("status") != "ok":
            print("SMOKE FAIL: /healthz not ok", file=sys.stderr)
            return 1
        # Legacy unprefixed aliases must keep answering through the /v1
        # redesign — pre-redesign clients ride the same lanes.
        if ServingClient(httpd.url,
                         api_prefix="").health().get("status") != "ok":
            print("SMOKE FAIL: legacy unprefixed /healthz alias broken",
                  file=sys.stderr)
            return 1
        # Compiled serving is the default: the registered version must
        # advertise its plan through /v1/models (typed client entries)
        # and POST /v1/compile must be an idempotent no-op on it.
        listed = {(entry.name, entry.version): entry
                  for entry in client.models()}
        version = listed.get(("smoke", "v1"))
        if version is None or not version.compiled or not version.plan:
            print(f"SMOKE FAIL: /v1/models does not report smoke/v1 as "
                  f"compiled with a plan (got {version})", file=sys.stderr)
            return 1
        recompiled = client.compile("smoke")
        if not recompiled.get("compiled") \
                or recompiled.get("plan") != version.plan:
            print(f"SMOKE FAIL: POST /v1/compile disagreed with "
                  f"/v1/models ({recompiled} vs {version.plan})",
                  file=sys.stderr)
            return 1
        print(f"compiled: {version.plan['ops']} ops "
              f"({version.plan['fused']} fused buffers), arena "
              f"{version.plan['arena_bytes']} bytes")
        # One distinct image per request: the load-bearing assertions
        # (p50 budget, zero drops, worker dispatch) must measure real
        # scheduler + forward traffic, not response-cache lookups.  The
        # cache gets its own replay assertion below.
        load_images = test.images[:args.requests]
        report = run_load(client, "smoke", load_images,
                          requests=args.requests,
                          concurrency=args.concurrency)
        print(f"load: {report.summary()}")
        if report.rejected or report.errors:
            print(f"SMOKE FAIL: {report.rejected} rejected / "
                  f"{report.errors} errored responses (want 0)",
                  file=sys.stderr)
            return 1
        if report.ok != args.requests:
            print(f"SMOKE FAIL: {report.ok}/{args.requests} responses",
                  file=sys.stderr)
            return 1
        if report.p50_ms > args.p50_ms:
            print(f"SMOKE FAIL: p50 {report.p50_ms:.1f}ms > budget "
                  f"{args.p50_ms:.0f}ms", file=sys.stderr)
            return 1

        # End-to-end determinism: a served image's logits must match a
        # direct fixed-width forward bit-for-bit (through JSON floats)
        # no matter which process — or which worker replica — ran it.
        image = test.images[0]
        served = np.array(client.predict("smoke", image)["logits"][0],
                          dtype=np.float32)
        batch = np.zeros((policy.max_batch_size,) + image.shape,
                         dtype=np.float32)
        batch[0] = image
        direct = store.folded("smoke")(Tensor(batch)).data[0]
        if not np.array_equal(served, direct.astype(np.float32)):
            print("SMOKE FAIL: served logits diverged from direct "
                  "fixed-width forward", file=sys.stderr)
            return 1

        if multiproc:
            backend = inference.backend.stats()
            # With prefetch + warm-up the lanes are sized before any
            # traffic, so not even the first batch may fall back; lazy
            # mode tolerates one fallback per replica/shape while the
            # return lane sizes itself.
            pipe_budget = 0 if args.prefetch_replicas else 1
            if backend["pipe_returns"] > pipe_budget:
                print(f"SMOKE FAIL: {backend['pipe_returns']} batches fell "
                      f"back to pipe returns (budget {pipe_budget}; shm "
                      f"path broken?)", file=sys.stderr)
                return 1
            if backend["state_pipe_ships"] > 0:
                print(f"SMOKE FAIL: {backend['state_pipe_ships']} replica "
                      f"states shipped through the pipe (state shm lane "
                      f"broken?)", file=sys.stderr)
                return 1
            idle = [count for count in backend["infers_per_worker"]
                    if count == 0]
            if idle:
                print(f"SMOKE FAIL: {len(idle)} of {backend['workers']} "
                      f"workers served no batches "
                      f"(infers_per_worker={backend['infers_per_worker']})",
                      file=sys.stderr)
                return 1
            print(f"multiproc: {backend['batches']} batches over "
                  f"{backend['workers']} workers "
                  f"(infers {backend['infers_per_worker']}, "
                  f"warmups {backend['warmups_per_worker']}, "
                  f"{backend['shm_returns']} shm returns, "
                  f"{backend['pipe_returns']} pipe fallbacks, "
                  f"{backend['state_shm_ships']} shm state ships)")

        if args.response_cache:
            replay = client.predict("smoke", image)
            if not replay.get("cached"):
                print("SMOKE FAIL: replayed request was not served from "
                      "the response cache", file=sys.stderr)
                return 1
            if np.array(replay["logits"][0],
                        dtype=np.float32).tolist() != served.tolist():
                print("SMOKE FAIL: cached logits diverged from fresh ones",
                      file=sys.stderr)
                return 1
            cache = inference.cache.stats()
            print(f"response cache: {cache['hits']} hits / "
                  f"{cache['misses']} misses "
                  f"(hit rate {cache['hit_rate']:.3f})")

        # Cache hits replay screening instead of recomputing it, so the
        # screened floor is the distinct-input count when caching is on.
        screened_floor = (min(args.requests, len(load_images))
                          if args.response_cache else args.requests)
        flag_report = client.metrics().get("screening", {}).get("smoke/v1")
        if not flag_report or flag_report["screened"] < screened_floor:
            print("SMOKE FAIL: screening report missing or incomplete",
                  file=sys.stderr)
            return 1
        print(f"screening: flag rate {flag_report['flag_rate']:.3f} over "
              f"{flag_report['screened']} inputs")

        # Observability invariants at quiesce: the request ledger must
        # balance exactly and the flight recorder must be loss-free.
        violation = _ledger_violation(inference) or _recorder_violation()
        if violation:
            print(f"SMOKE FAIL: {violation}", file=sys.stderr)
            return 1
        rec = _trace.RECORDER.stats()
        print(f"obs: {inference.stats.snapshot()['total']} requests "
              f"balanced across outcomes, {rec['spans_ended']} spans "
              f"balanced, 0 dropped")
    finally:
        if httpd is not None:
            stop_http_server(httpd)
        if inference is not None:
            inference.close()

    leaked = leaked_segments(shm_before)
    if leaked:
        print(f"SMOKE FAIL: {len(leaked)} shared-memory segments leaked "
              f"after close: {leaked[:8]}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - start
    if elapsed > args.timeout:
        print(f"SMOKE FAIL: took {elapsed:.1f}s > budget {args.timeout:.0f}s",
              file=sys.stderr)
        return 1
    print(f"serving smoke ok: {args.requests} requests, 0 dropped, "
          f"p50 {report.p50_ms:.1f}ms, bit-identical logits "
          f"({elapsed:.1f}s, budget {args.timeout:.0f}s)")
    return 0


def run_forget(args) -> int:
    """Unlearning-as-a-service gate: deletions under live predict load.

    Stands up the camouflaged SISA provider behind the full serving
    stack (``build_reveil_forget`` on the unit profile, short training)
    and asserts the closed loop:

    - a concurrent predict load and a stream of ``/v1/forget`` requests
      run together; **zero** predicts drop or error while retrain
      rounds hot-swap ``forget-N`` versions under the traffic;
    - deletion requests coalesce (fewer retrain rounds than accepted
      requests) and every waited request reports the version that now
      serves, which matches the store's active version;
    - one trace id reconstructs a deletion's whole path:
      ``forget.enqueue`` → ``shard.retrain`` → ``store.swap``;
    - the guard enforces: a per-user burst answers 429
      (``rate_limited``) and, in enforce mode, a camouflage-removal
      request answers 403 (``deletion_flagged``);
    - the deletion ledger balances (requests == accepted + screened_out
      + invalid + overflow), the server's request ledger balances, the
      flight recorder is loss-free, and no shared memory leaks.
    """
    from ..eval.harness import PipelineConfig
    from .client import ServingError
    from .forget import GuardPolicy, OnlineUnlearningGuard
    from .scenario import build_reveil_forget

    start = time.perf_counter()
    shm_before = shm_segment_names()
    forgets = 4
    cfg = PipelineConfig(dataset="unit", attack="A1", attack_scale="bench",
                         model_scale="tiny", poison_ratio=0.1, epochs=2,
                         seed=0)
    print(f"forget smoke: unit profile, {args.requests} predicts x "
          f"{forgets} concurrent deletions, epochs={cfg.epochs}")

    httpd = None
    build = None
    try:
        from .forget import ForgetConfig
        build = build_reveil_forget(
            cfg, policy=BatchPolicy(max_batch_size=8, max_delay_ms=2.0),
            forget=ForgetConfig(max_delay_ms=300.0),
            guard_policy=GuardPolicy(user_rate=50.0, user_burst=64))
        global _prom_renderer
        _prom_renderer = build.server.prometheus
        plane = build.plane
        bundle = build.result.bundle
        httpd = start_http_server(build.server)
        client = ServingClient(httpd.url)
        if client.health().get("status") != "ok":
            print("FORGET FAIL: /healthz not ok", file=sys.stderr)
            return 1

        # Deletable clean members: training ids that are neither poison
        # nor camouflage (ordinary users leaving the service).
        attacker_ids = (set(int(i) for i in bundle.unlearning_request_ids)
                        | set(int(i) for i in bundle.poison_set.sample_ids))
        clean_ids = [int(i) for i in bundle.train_mixture.sample_ids
                     if int(i) not in attacker_ids]
        if len(clean_ids) < 2 * forgets:
            print("FORGET FAIL: not enough clean training members to "
                  "delete", file=sys.stderr)
            return 1

        # Mixed drill: closed-loop predicts in the background while
        # users file deletions that must retrain + swap under the load.
        outcomes = [None] * forgets
        failures = []

        def forget_worker(slot):
            ids = clean_ids[2 * slot:2 * slot + 2]
            try:
                outcomes[slot] = client.forget(f"user-{slot}", ids,
                                               timeout=args.timeout)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append((slot, exc))

        threads = [threading.Thread(target=forget_worker, args=(slot,),
                                    name=f"forget-{slot}")
                   for slot in range(forgets)]
        for thread in threads:
            thread.start()
        report = run_load(client, build.model_name,
                          build.clean_test.images[:args.requests],
                          requests=args.requests,
                          concurrency=args.concurrency)
        for thread in threads:
            thread.join()
        print(f"predict load during retrains: {report.summary()}")
        if failures:
            slot, exc = failures[0]
            print(f"FORGET FAIL: deletion {slot} failed: {exc!r}",
                  file=sys.stderr)
            return 1
        if report.rejected or report.errors or report.ok != args.requests:
            print(f"FORGET FAIL: predicts dropped through the swap "
                  f"({report.ok}/{args.requests} ok, {report.rejected} "
                  f"rejected, {report.errors} errors; want all ok)",
                  file=sys.stderr)
            return 1

        counters = plane.stats()["counters"]
        active = build.store.active_version(build.model_name)
        versions = {outcome["version"] for outcome in outcomes}
        if counters["swaps"] < 1 or not active.startswith("forget-"):
            print(f"FORGET FAIL: no hot swap landed (swaps="
                  f"{counters['swaps']}, active={active})", file=sys.stderr)
            return 1
        if active not in versions:
            print(f"FORGET FAIL: active version {active} is not one of "
                  f"the reported deletion outcomes {sorted(versions)}",
                  file=sys.stderr)
            return 1
        if counters["rounds"] >= forgets:
            print(f"FORGET FAIL: no coalescing — {counters['rounds']} "
                  f"retrain rounds for {forgets} concurrent deletions",
                  file=sys.stderr)
            return 1
        served = client.predict(build.model_name,
                                build.clean_test.images[0])
        if served.get("version") != active:
            print(f"FORGET FAIL: predict served {served.get('version')} "
                  f"after swap to {active}", file=sys.stderr)
            return 1
        print(f"deletions ok: {counters['rounds']} coalesced rounds, "
              f"{counters['swaps']} swaps, "
              f"{counters['samples_removed']} members removed, "
              f"now serving {active}")

        # One trace id must reconstruct the whole deletion path.
        trace = outcomes[0]["trace_id"]
        names = {span["name"] for span in _trace.RECORDER.dump(trace=trace)}
        if not {"forget.enqueue", "shard.retrain", "store.swap"} <= names:
            print(f"FORGET FAIL: trace {trace} spans {sorted(names)} do "
                  f"not cover enqueue → retrain → swap", file=sys.stderr)
            return 1
        print(f"trace {trace} reconstructs the deletion path "
              f"({len(names)} span names)")

        # Guard drills.  Burst: a strict bucket answers 429 with the
        # machine-readable code.
        relaxed = plane.guard
        plane.guard = OnlineUnlearningGuard(
            GuardPolicy(user_rate=0.001, user_burst=1))
        try:
            client.forget("burster", clean_ids[-2:-1])
            try:
                client.forget("burster", clean_ids[-1:])
                print("FORGET FAIL: burst was not rate-limited",
                      file=sys.stderr)
                return 1
            except ServingError as exc:
                if exc.status != 429 or exc.code != "rate_limited":
                    print(f"FORGET FAIL: burst answered {exc.status}/"
                          f"{exc.code} (want 429/rate_limited)",
                          file=sys.stderr)
                    return 1
            # Enforce mode: a camouflage-removal sequence answers 403.
            plane.guard = OnlineUnlearningGuard(
                GuardPolicy(user_rate=50.0, user_burst=64, mode="enforce"),
                camouflage_ids=bundle.unlearning_request_ids)
            try:
                client.forget("mallory",
                              bundle.unlearning_request_ids[:4].tolist())
                print("FORGET FAIL: camouflage removal not flagged in "
                      "enforce mode", file=sys.stderr)
                return 1
            except ServingError as exc:
                if exc.status != 403 or exc.code != "deletion_flagged":
                    print(f"FORGET FAIL: camouflage removal answered "
                          f"{exc.status}/{exc.code} (want 403/"
                          f"deletion_flagged)", file=sys.stderr)
                    return 1
        finally:
            plane.guard = relaxed
        print("guard ok: burst → 429 rate_limited, camouflage removal → "
              "403 deletion_flagged (enforce mode)")

        if not plane.ledger_balanced():
            print(f"FORGET FAIL: deletion ledger unbalanced: "
                  f"{plane.stats()['counters']}", file=sys.stderr)
            return 1
        violation = _ledger_violation(build.server) or _recorder_violation()
        if violation:
            print(f"FORGET FAIL: {violation}", file=sys.stderr)
            return 1
        rec = _trace.RECORDER.stats()
        total = plane.stats()["counters"]["requests"]
        print(f"obs: deletion ledger balanced ({total} requests), "
              f"{rec['spans_ended']} spans balanced, 0 dropped")
    finally:
        if httpd is not None:
            stop_http_server(httpd)
        if build is not None:
            build.close()

    leaked = leaked_segments(shm_before)
    if leaked:
        print(f"FORGET FAIL: {len(leaked)} shared-memory segments leaked "
              f"after close: {leaked[:8]}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    if elapsed > args.timeout:
        print(f"FORGET FAIL: took {elapsed:.1f}s > budget "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    print(f"forget smoke ok: {args.requests} predicts + {forgets} "
          f"deletions, 0 dropped, retrain → swap under load, guard "
          f"enforced ({elapsed:.1f}s, budget {args.timeout:.0f}s)")
    return 0


def run_chaos(args) -> int:
    """Reliability gate: deterministic fault schedule + degradation drill.

    Phase 1 — supervised recovery.  A 4-worker server takes a concurrent
    load while the injector (a) corrupts the first replica state-ship
    fingerprint (exercising the verify-and-re-ship path), (b) SIGKILLs
    worker 0 mid-batch (request delivered, reply never comes), and
    (c) stalls worker 1 past its call deadline (poisoning the session so
    it must be respawned, not reused).  The gate demands zero errored or
    rejected client responses, the full schedule fired, the respawn/
    retry counters moved, no ejections, and post-recovery logits
    bit-identical to a direct fixed-width forward.

    Phase 2 — graceful degradation.  Every worker call is made to crash
    until the breakers eject the whole pool; traffic must keep
    succeeding through the inline fallback (bit-identically — same
    folded weights, same fixed compute width), ``/healthz`` must report
    ``degraded`` while ``/readyz`` turns 503, and once the faults are
    lifted the cooldown probes must re-promote every worker back to a
    ready pool that still serves identical bits.
    """
    start = time.perf_counter()
    shm_before = shm_segment_names()
    workers = args.serve_workers if args.serve_workers >= 2 else 4
    requests = max(args.requests, 64)
    concurrency = max(args.concurrency, 8)

    _, test, profile = load_dataset("unit", seed=0)
    nn.manual_seed(0)
    model = build_model("small_cnn", profile.num_classes, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("smoke", model, version="v1",
                   spec=ModelSpec("small_cnn", profile.num_classes,
                                  scale="tiny"),
                   input_shape=test.images.shape[1:])
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    # Tight budgets so phase 2 ejects quickly (2 consecutive failures or
    # 2 respawns in one incident open the breaker), with enough retry
    # attempts for one batch to outlive the whole pool collapsing under
    # it and still land on the inline fallback.
    reliability = ReliabilityConfig(
        retry=RetryPolicy(max_attempts=workers + 2, base_delay_s=0.01,
                          max_delay_s=0.1),
        failure_threshold=2, respawn_budget=1, breaker_cooldown_s=1.0)

    # The call indices are deterministic because prefetch serializes the
    # per-worker traffic: worker 0 sees load_state (fails verify on the
    # corrupted park), load_state (clean re-park), warm-up, then traffic
    # from call 4; every other worker sees load_state, warm-up, traffic
    # from call 3.
    plan = FaultPlan([
        Fault("state.write", 1, "corrupt_fingerprint"),
        Fault("session.call:repro-serve-worker-0", 4, "crash_mid"),
        Fault("session.call:repro-serve-worker-1", 3, "stall"),
    ])
    injector = FaultInjector(plan)
    install(injector)
    print(f"chaos smoke: workers={workers}, requests={requests}, "
          f"schedule={len(plan)} faults")
    for fault in plan.faults():
        print(f"  plan: {fault.kind} at {fault.site} "
              f"call {fault.call if fault.call else 'any'}")

    httpd = None
    inference = None
    try:
        inference = InferenceServer(store, policy=policy, workers=workers,
                                    response_cache=0,
                                    prefetch_replicas=True,
                                    reliability=reliability)
        global _prom_renderer
        _prom_renderer = inference.prometheus
        httpd = start_http_server(inference)
        client = ServingClient(httpd.url)

        # -- phase 1: faults under load, supervised recovery ------------
        report = run_load(client, "smoke", test.images[:requests],
                          requests=requests, concurrency=concurrency)
        print(f"chaos load: {report.summary()}")
        stats = injector.stats()
        for event in stats["events"]:
            print(f"  fired: {event['kind']} at {event['site']} "
                  f"call {event['call']}")
        if report.rejected or report.errors or report.ok != requests:
            print(f"CHAOS FAIL: client saw failures under faults "
                  f"({report.ok}/{requests} ok, {report.rejected} rejected, "
                  f"{report.errors} errors; want all ok)", file=sys.stderr)
            return 1
        if stats["fired"] < len(plan):
            print(f"CHAOS FAIL: only {stats['fired']}/{len(plan)} planned "
                  f"faults fired — the schedule no longer lines up with "
                  f"the serving call pattern", file=sys.stderr)
            return 1
        backend = inference.backend.stats()
        if backend["ship_retries"] < 1:
            print("CHAOS FAIL: corrupted state ship was not re-shipped "
                  f"(ship_retries={backend['ship_retries']})",
                  file=sys.stderr)
            return 1
        if backend["respawns"] < 2 or backend["retries"] < 2:
            print(f"CHAOS FAIL: expected >= 2 respawns and >= 2 batch "
                  f"retries (respawns={backend['respawns']}, "
                  f"retries={backend['retries']})", file=sys.stderr)
            return 1
        if backend["ejections"] or backend["active_workers"] != workers:
            print(f"CHAOS FAIL: transient faults must not eject workers "
                  f"(ejections={backend['ejections']}, active="
                  f"{backend['active_workers']}/{workers})", file=sys.stderr)
            return 1
        metrics = client.metrics()
        if metrics.get("fault_injection", {}).get("fired") != stats["fired"]:
            print("CHAOS FAIL: /metrics does not surface the injector "
                  "counters", file=sys.stderr)
            return 1
        if client.health().get("status") != "ok":
            print("CHAOS FAIL: /healthz not ok after recovery",
                  file=sys.stderr)
            return 1

        # Post-recovery determinism: respawned replicas must serve the
        # same bits as a direct fixed-width forward of the folded model.
        image = test.images[0]
        batch = np.zeros((policy.max_batch_size,) + image.shape,
                         dtype=np.float32)
        batch[0] = image
        direct = store.folded("smoke")(Tensor(batch)).data[0] \
            .astype(np.float32)
        served = np.array(client.predict("smoke", image)["logits"][0],
                          dtype=np.float32)
        if not np.array_equal(served, direct):
            print("CHAOS FAIL: post-recovery logits diverged from direct "
                  "fixed-width forward", file=sys.stderr)
            return 1
        print(f"phase 1 ok: {backend['respawns']} respawns, "
              f"{backend['retries']} batch retries, "
              f"{backend['ship_retries']} state re-ships, "
              f"bit-identical logits")

        # -- phase 2: total pool loss, degradation, re-promotion --------
        uninstall()
        kill_all = FaultPlan([
            Fault(f"session.call:repro-serve-worker-{index}", ANY_CALL,
                  "crash")
            for index in range(workers)])
        install(FaultInjector(kill_all))
        print(f"phase 2: crashing every call on all {workers} workers")
        report2 = run_load(client, "smoke", test.images[:16], requests=16,
                           concurrency=4)
        print(f"degraded load: {report2.summary()}")
        if report2.rejected or report2.errors or report2.ok != 16:
            print(f"CHAOS FAIL: client saw failures during degradation "
                  f"({report2.ok}/16 ok, {report2.rejected} rejected, "
                  f"{report2.errors} errors)", file=sys.stderr)
            return 1
        backend = inference.backend.stats()
        if not backend["degraded"] or backend["active_workers"] != 0:
            print(f"CHAOS FAIL: pool did not fully degrade (active="
                  f"{backend['active_workers']}, ejections="
                  f"{backend['ejections']})", file=sys.stderr)
            return 1
        if backend["ejections"] < workers or backend["degraded_batches"] < 1:
            print(f"CHAOS FAIL: degradation accounting off (ejections="
                  f"{backend['ejections']}, degraded_batches="
                  f"{backend['degraded_batches']})", file=sys.stderr)
            return 1
        health = client.health()
        if health.get("status") != "degraded":
            print(f"CHAOS FAIL: /healthz should report degraded, got "
                  f"{health.get('status')!r}", file=sys.stderr)
            return 1
        if client.ready().get("ready") is not False:
            print("CHAOS FAIL: /readyz should be 503/not-ready while "
                  "degraded", file=sys.stderr)
            return 1
        degraded_served = np.array(
            client.predict("smoke", image)["logits"][0], dtype=np.float32)
        if not np.array_equal(degraded_served, direct):
            print("CHAOS FAIL: inline-fallback logits diverged from "
                  "direct fixed-width forward", file=sys.stderr)
            return 1
        print(f"phase 2 ok: {backend['ejections']} ejections, "
              f"{backend['degraded_batches']} inline batches, "
              f"degraded health + 503 readiness, bit-identical fallback")

        # -- phase 3: lift the faults, wait for re-promotion ------------
        uninstall()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            client.predict("smoke", image)
            health = client.health()
            if health.get("workers", {}).get("active") == workers:
                break
            time.sleep(0.25)
        else:
            print("CHAOS FAIL: pool did not re-promote within 60s of the "
                  "faults lifting", file=sys.stderr)
            return 1
        if not client.ready().get("ready"):
            print("CHAOS FAIL: /readyz still not ready after re-promotion",
                  file=sys.stderr)
            return 1
        backend = inference.backend.stats()
        if backend["repromotions"] < workers:
            print(f"CHAOS FAIL: expected {workers} probe re-admissions, "
                  f"got {backend['repromotions']}", file=sys.stderr)
            return 1
        served = np.array(client.predict("smoke", image)["logits"][0],
                          dtype=np.float32)
        if not np.array_equal(served, direct):
            print("CHAOS FAIL: re-promoted pool serves different bits",
                  file=sys.stderr)
            return 1
        print(f"phase 3 ok: {backend['repromotions']} workers re-promoted, "
              f"ready again, bit-identical logits")

        # Even through crashes, stalls and degradation the obs plane
        # must stay consistent: every request accounted to exactly one
        # outcome, every span sealed, no recorder loss.
        violation = _ledger_violation(inference) or _recorder_violation()
        if violation:
            print(f"CHAOS FAIL: {violation}", file=sys.stderr)
            return 1
        rec = _trace.RECORDER.stats()
        print(f"obs: {inference.stats.snapshot()['total']} requests "
              f"balanced across outcomes, {rec['spans_ended']} spans "
              f"balanced, 0 dropped")
    finally:
        uninstall()
        if httpd is not None:
            stop_http_server(httpd)
        if inference is not None:
            inference.close()

    leaked = leaked_segments(shm_before)
    if leaked:
        print(f"CHAOS FAIL: {len(leaked)} shared-memory segments leaked "
              f"after close: {leaked[:8]}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    if elapsed > args.timeout:
        print(f"CHAOS FAIL: took {elapsed:.1f}s > budget "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    print(f"chaos smoke ok: crash/stall/corruption recovered, degradation "
          f"+ re-promotion clean, 0 errored responses "
          f"({elapsed:.1f}s, budget {args.timeout:.0f}s)")
    return 0


def _drain_leaked_segments(shm_before, grace_s: float = 8.0) -> list:
    """Leaked segments after close, with a grace window.

    A SIGKILLed host never runs its own cleanup — its resource tracker
    unlinks the orphaned segments asynchronously once the process tree
    is gone — so the cluster lanes poll briefly before calling a
    segment leaked for real.
    """
    deadline = time.perf_counter() + grace_s
    leaked = leaked_segments(shm_before)
    while leaked and time.perf_counter() < deadline:
        time.sleep(0.25)
        leaked = leaked_segments(shm_before)
    return leaked


def run_cluster(args) -> int:
    """Distributed-tier gate: N simulated hosts behind the router.

    Stands up a :class:`~repro.serve.cluster.ServingCluster` — every
    host its own process running a full single-host stack, states
    shipped over the network state channel — and asserts through the
    router's HTTP front end: zero dropped responses under concurrent
    load, every host served traffic, logits bit-identical to the
    direct fixed-width forward, and the hot-swap arc (register v2 →
    cluster-wide activate) propagating to every host under the
    version-skew bound with unversioned traffic flipping atomically.

    With ``--chaos``, one host is SIGKILLed mid-load instead: the gate
    demands zero errored or rejected responses throughout (in-group
    re-route), bit-identical logits immediately after the kill, a
    background respawn that re-ships and re-warms the replacement, the
    recovered host taking traffic again, and no leaked shared memory
    once the cluster closes.
    """
    from .cluster import ServingCluster

    start = time.perf_counter()
    shm_before = shm_segment_names()
    hosts = args.hosts
    workers = args.serve_workers if args.serve_workers >= 2 else 2
    requests = max(args.requests, 64 if args.chaos else 32)
    concurrency = max(args.concurrency, 2 * hosts)

    _, test, profile = load_dataset("unit", seed=0)
    spec = ModelSpec("small_cnn", profile.num_classes, scale="tiny")
    nn.manual_seed(0)
    model_v1 = build_model("small_cnn", profile.num_classes, scale="tiny")
    model_v1.eval()
    nn.manual_seed(1)
    model_v2 = build_model("small_cnn", profile.num_classes, scale="tiny")
    model_v2.eval()
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    # Host-level supervision tight enough for the kill drill to eject
    # and probe within the smoke budget (same knobs run_chaos uses one
    # level down for workers).
    reliability = ReliabilityConfig(
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                          max_delay_s=0.05, deadline_s=30.0),
        failure_threshold=2, respawn_budget=2, breaker_cooldown_s=0.2)

    lane = "cluster-chaos" if args.chaos else "cluster"
    print(f"serving smoke [{lane}]: hosts={hosts} x {workers} workers, "
          f"one replica group")
    httpd = None
    cluster = None
    try:
        cluster = ServingCluster(hosts=hosts, group_size=hosts,
                                 workers_per_host=workers, policy=policy,
                                 reliability=reliability)
        global _prom_renderer
        _prom_renderer = cluster.prometheus
        cluster.register("smoke", model_v1, version="v1", spec=spec,
                         input_shape=test.images.shape[1:])
        router = cluster.metrics()["router"]
        if router["ships"] != hosts:
            print(f"CLUSTER FAIL: v1 shipped {router['ships']} times for "
                  f"{hosts} hosts (want one network ship per host)",
                  file=sys.stderr)
            return 1
        httpd = cluster.serve()
        client = ServingClient(httpd.url)
        health = client.health()
        if health.get("status") != "ok" or not health.get("ready"):
            print(f"CLUSTER FAIL: /healthz not ok+ready at start: "
                  f"{health.get('status')}/{health.get('ready')}",
                  file=sys.stderr)
            return 1

        # Reference logits: the direct fixed-width forward every path
        # (any host, any failover tier) must reproduce bit-for-bit.
        image = test.images[0]
        batch = np.zeros((policy.max_batch_size,) + image.shape,
                         dtype=np.float32)
        batch[0] = image
        direct_v1 = cluster.store.folded("smoke", "v1")(
            Tensor(batch)).data[0].astype(np.float32)

        killer = None
        victim = None
        if args.chaos:
            victim = cluster.hosts[0]

            def _kill():
                time.sleep(0.1)     # let the load hit its stride first
                victim.kill()

            killer = threading.Thread(target=_kill, name="host-killer")
            killer.start()
        report = run_load(client, "smoke", test.images[:requests],
                          requests=requests, concurrency=concurrency)
        if killer is not None:
            killer.join()
            print(f"SIGKILLed host 0 (pid {victim.pid}) mid-load")
        print(f"load: {report.summary()}")
        if report.rejected or report.errors or report.ok != requests:
            print(f"CLUSTER FAIL: {report.ok}/{requests} ok, "
                  f"{report.rejected} rejected, {report.errors} errored "
                  f"(want {requests}/0/0 across host "
                  f"{'death' if args.chaos else 'fan-out'})",
                  file=sys.stderr)
            return 1
        if report.p50_ms > args.p50_ms:
            print(f"CLUSTER FAIL: p50 {report.p50_ms:.1f}ms > budget "
                  f"{args.p50_ms:.0f}ms", file=sys.stderr)
            return 1
        served = np.array(client.predict("smoke", image)["logits"][0],
                          dtype=np.float32)
        if not np.array_equal(served, direct_v1):
            print("CLUSTER FAIL: routed logits diverged from the direct "
                  "fixed-width forward", file=sys.stderr)
            return 1

        if args.chaos:
            # Recovery: the router must respawn host 0 in the
            # background (re-ship + re-warm via the host's own
            # prefetch), close its breaker, and route to it again.
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                counters = cluster.metrics()["router"]
                if (counters["host_respawns"] >= 1
                        and cluster.hosts[0].alive):
                    break
                client.predict("smoke", image)  # traffic drives the probes
                time.sleep(0.1)
            counters = cluster.metrics()["router"]
            if not (counters["host_respawns"] >= 1
                    and cluster.hosts[0].alive):
                print(f"CLUSTER FAIL: host 0 not respawned within budget "
                      f"(respawns={counters['host_respawns']}, "
                      f"alive={cluster.hosts[0].alive})", file=sys.stderr)
                return 1
            if counters["reroutes"] < 1:
                print("CLUSTER FAIL: no re-routes recorded around the "
                      "host kill", file=sys.stderr)
                return 1
            served_before = counters["routed_per_host"][0]
            for index in range(4 * hosts):
                client.predict("smoke", test.images[index % 16])
            counters = cluster.metrics()["router"]
            if counters["routed_per_host"][0] <= served_before:
                print(f"CLUSTER FAIL: recovered host 0 took no traffic "
                      f"(routed_per_host={counters['routed_per_host']})",
                      file=sys.stderr)
                return 1
            served = np.array(client.predict("smoke", image)["logits"][0],
                              dtype=np.float32)
            if not np.array_equal(served, direct_v1):
                print("CLUSTER FAIL: recovered cluster serves different "
                      "bits", file=sys.stderr)
                return 1
            health = client.health()
            if health.get("status") != "ok":
                print(f"CLUSTER FAIL: /healthz {health.get('status')} "
                      f"after recovery (want ok)", file=sys.stderr)
                return 1
            print(f"recovery ok: {counters['host_respawns']} respawn(s), "
                  f"{counters['reroutes']} re-route(s), "
                  f"{counters['reships']} re-ship(s), host 0 serving again")

            # Failover forensics: the whole recovery arc — the forward
            # that died, the respawn it triggered, and the warmed
            # re-ship onto the replacement — must be reconstructible
            # from the spans of a single trace id.
            spans = _trace.RECORDER.dump()
            arc = None
            for tid in {s.get("trace") for s in spans
                        if s["name"] == "host.respawn"} - {None}:
                mine = [s for s in spans if s.get("trace") == tid]
                names = {s["name"] for s in mine}
                warmed = any(s["name"] == "state.ship"
                             and s.get("tags", {}).get("warmed")
                             for s in mine)
                if ({"route.forward", "host.respawn",
                     "state.ship"} <= names and warmed):
                    arc = tid
                    break
            if arc is None:
                print("CLUSTER FAIL: no single trace id reconstructs the "
                      "failover arc (route.forward error → host.respawn "
                      "→ warmed state.ship)", file=sys.stderr)
                return 1
            hops = [s["name"] for s in spans if s.get("trace") == arc]
            print(f"failover arc reconstructed from trace {arc}: "
                  f"{len(hops)} spans (re-route → re-ship → re-warm)")
        else:
            counters = cluster.metrics()["router"]
            idle = [index for index, count
                    in enumerate(counters["routed_per_host"]) if count == 0]
            if idle:
                print(f"CLUSTER FAIL: hosts {idle} served no traffic "
                      f"(routed_per_host={counters['routed_per_host']})",
                      file=sys.stderr)
                return 1
            if counters["degraded_routes"] or counters["inline_batches"]:
                print(f"CLUSTER FAIL: healthy cluster used fallback tiers "
                      f"(degraded={counters['degraded_routes']}, "
                      f"inline={counters['inline_batches']})",
                      file=sys.stderr)
                return 1

            # The hot-swap arc, cluster-wide: register the unlearned
            # weights as v2, activate through the router, and demand
            # every host acked before unversioned traffic flipped.
            cluster.register("smoke", model_v2, version="v2", spec=spec,
                             input_shape=test.images.shape[1:],
                             activate=False)
            swap = client.activate("smoke", "v2")
            if swap.get("hosts_acked") != hosts:
                print(f"CLUSTER FAIL: activation acked by "
                      f"{swap.get('hosts_acked')}/{hosts} hosts",
                      file=sys.stderr)
                return 1
            direct_v2 = cluster.store.folded("smoke", "v2")(
                Tensor(batch)).data[0].astype(np.float32)
            reply = client.predict("smoke", image)
            served = np.array(reply["logits"][0], dtype=np.float32)
            if reply.get("version") != "v2":
                print(f"CLUSTER FAIL: post-swap request served "
                      f"{reply.get('version')} (want v2)", file=sys.stderr)
                return 1
            if not np.array_equal(served, direct_v2):
                print("CLUSTER FAIL: post-swap logits diverged from the "
                      "v2 direct forward", file=sys.stderr)
                return 1
            counters = cluster.metrics()["router"]
            if counters["skew_refusals"]:
                print(f"CLUSTER FAIL: {counters['skew_refusals']} skew "
                      f"refusals on a serialized activation",
                      file=sys.stderr)
                return 1
            print(f"hot-swap ok: v2 acked by {swap['hosts_acked']} hosts, "
                  f"unversioned traffic flipped atomically, bit-identical")

        # Router-side flight recorder must be loss-free in both branches.
        violation = _recorder_violation()
        if violation:
            print(f"CLUSTER FAIL: {violation}", file=sys.stderr)
            return 1
        rec = _trace.RECORDER.stats()
        print(f"obs: {rec['spans_ended']} router spans balanced, 0 dropped")
    finally:
        if httpd is not None:
            stop_http_server(httpd)
        if cluster is not None:
            cluster.close()

    leaked = _drain_leaked_segments(shm_before)
    if leaked:
        print(f"CLUSTER FAIL: {len(leaked)} shared-memory segments leaked "
              f"after close: {leaked[:8]}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    if elapsed > args.timeout:
        print(f"CLUSTER FAIL: took {elapsed:.1f}s > budget "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    print(f"cluster smoke ok [{lane}]: {hosts} hosts x {workers} workers, "
          f"{requests} requests, 0 dropped, bit-identical logits "
          f"({elapsed:.1f}s, budget {args.timeout:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
