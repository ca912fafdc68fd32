"""Serving smoke gate (tier-2 CI entry point).

Starts a real HTTP server on an ephemeral port around a tiny untrained
model (weights don't matter for the transport/scheduler contract),
fires a small concurrent load through the stdlib client, and asserts:

- zero dropped or errored responses at this load;
- p50 latency under the budget;
- served logits bit-identical to a direct one-row forward pass (the
  batcher's determinism contract, end to end through the binary tensor
  input and the JSON logits);
- a replayed request is answered from the response cache with
  bit-identical logits;
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

Run::

    PYTHONPATH=src python -m repro.serve.smoke [--timeout 120] [--forget]

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

#: p50 latency budget of the basic lane, in milliseconds.
P50_MS = 2000.0
#: Predict requests per lane, and the closed-loop clients sending them.
REQUESTS = 32
CONCURRENCY = 4
#: Entry capacity of the basic lane's exact-response LRU.
RESPONSE_CACHE = 16


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
    parser.add_argument("--forget", action="store_true",
                        help="run the unlearning-as-a-service gate: mixed "
                             "predict/forget traffic against the camouflaged "
                             "SISA provider, zero dropped predicts through "
                             "the retrain → hot-swap arc, guard 429/403 "
                             "drills, balanced deletion ledger")
    args = parser.parse_args(argv)
    # CI step timeouts deliver SIGTERM; turn it into SystemExit so the
    # finally blocks below still stop the HTTP server and the serving
    # stack, and the leak checks still run.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.forget:
        return _gate(run_forget, args)
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
                   input_shape=test.images.shape[1:])
    policy = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
    screening = OnlineStrip(overlay_pool=test.subset(range(16)),
                            config=ScreenConfig(num_overlays=2))
    # Server handles live in `finally`-guarded slots from the start: an
    # assertion that bails early (or start_http_server itself raising)
    # must still close the listener and the scheduler, otherwise a
    # failing CI run leaks the socket and the *retry* of the job dies
    # on a spurious EADDRINUSE rebind instead of the real failure.
    httpd = None
    inference = None
    try:
        inference = InferenceServer(store, policy=policy,
                                    screening=screening,
                                    response_cache=RESPONSE_CACHE)
        global _prom_renderer
        _prom_renderer = inference.prometheus
        print(f"serving smoke: response_cache={RESPONSE_CACHE}")
        httpd = start_http_server(inference)
        client = ServingClient(httpd.url)
        if client.health().get("status") != "ok":
            print("SMOKE FAIL: /healthz not ok", file=sys.stderr)
            return 1
        # One distinct image per request: the load-bearing assertions
        # (p50 budget, zero drops) must measure real
        # scheduler + forward traffic, not response-cache lookups.  The
        # cache gets its own replay assertion below.
        load_images = test.images[:REQUESTS]
        report = run_load(client, "smoke", load_images,
                          requests=REQUESTS, concurrency=CONCURRENCY)
        print(f"load: {report.summary()}")
        if report.rejected or report.errors:
            print(f"SMOKE FAIL: {report.rejected} rejected / "
                  f"{report.errors} errored responses (want 0)",
                  file=sys.stderr)
            return 1
        if report.ok != REQUESTS:
            print(f"SMOKE FAIL: {report.ok}/{REQUESTS} responses",
                  file=sys.stderr)
            return 1
        if report.p50_ms > P50_MS:
            print(f"SMOKE FAIL: p50 {report.p50_ms:.1f}ms > budget "
                  f"{P50_MS:.0f}ms", file=sys.stderr)
            return 1

        # End-to-end determinism: a served image's logits must match a
        # direct one-row forward bit-for-bit (through JSON floats).
        image = test.images[0]
        served = np.array(client.predict("smoke", image)["logits"][0],
                          dtype=np.float32)
        direct = store.folded("smoke")(Tensor(image[None])).data[0]
        if not np.array_equal(served, direct.astype(np.float32)):
            print("SMOKE FAIL: served logits diverged from a direct "
                  "one-row forward", file=sys.stderr)
            return 1

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
        # screened floor is the distinct-input count.
        flag_report = client.metrics().get("screening", {}).get("smoke/v1")
        if not flag_report or flag_report["screened"] < len(load_images):
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
    print(f"serving smoke ok: {REQUESTS} requests, 0 dropped, "
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
    print(f"forget smoke: unit profile, {REQUESTS} predicts x "
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
                          build.clean_test.images[:REQUESTS],
                          requests=REQUESTS, concurrency=CONCURRENCY)
        for thread in threads:
            thread.join()
        print(f"predict load during retrains: {report.summary()}")
        if failures:
            slot, exc = failures[0]
            print(f"FORGET FAIL: deletion {slot} failed: {exc!r}",
                  file=sys.stderr)
            return 1
        if report.rejected or report.errors or report.ok != REQUESTS:
            print(f"FORGET FAIL: predicts dropped through the swap "
                  f"({report.ok}/{REQUESTS} ok, {report.rejected} "
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
    print(f"forget smoke ok: {REQUESTS} predicts + {forgets} "
          f"deletions, 0 dropped, retrain → swap under load, guard "
          f"enforced ({elapsed:.1f}s, budget {args.timeout:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
