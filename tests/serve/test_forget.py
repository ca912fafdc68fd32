"""Online unlearning plane: guard screening, coalesced retrains, hot swaps.

The guard tests are pure stream-logic (fake clock, no training).  The
plane tests fit a real single-shard SISA ensemble on the ``unit``
profile (1 epoch — seconds, not minutes) and drive deletions through
``ForgetPlane`` / ``POST /v1/forget``, asserting the retrain → publish →
activate arc and its observability contract.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import load_dataset
from repro.obs.trace import RECORDER
from repro.parallel.tasks import ModelSpec
from repro.serve import (BatchPolicy, DeletionFlagged, DeletionRateLimited,
                         ForgetConfig, ForgetPlane, GuardPolicy,
                         InferenceServer, ModelStore, OnlineUnlearningGuard,
                         QueueFullError, ServingClient, ServingError,
                         start_http_server, stop_http_server)
from repro.train import TrainConfig
from repro.unlearning.sisa import SISAConfig, SISAEnsemble


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _screen(guard, user, ids, shard=0, num_shards=1):
    ids = np.asarray(ids, dtype=np.int64)
    shards = np.full(ids.shape, shard, dtype=np.int64)
    return guard.screen(user, ids, shards, num_shards)


class TestGuard:
    def test_token_bucket_rate_limits_bursts(self):
        clock = FakeClock()
        guard = OnlineUnlearningGuard(
            GuardPolicy(user_rate=1.0, user_burst=2), clock=clock)
        assert _screen(guard, "alice", [1]) == []
        assert _screen(guard, "alice", [2]) == []
        with pytest.raises(DeletionRateLimited):
            _screen(guard, "alice", [3])
        # Other users have their own bucket; refill restores alice.
        assert _screen(guard, "bob", [4]) == []
        clock.now += 1.0
        assert _screen(guard, "alice", [5]) == []
        counters = guard.stats()["counters"]
        assert counters["rate_limited"] == 1
        assert counters["screened"] == (counters["allowed"]
                                        + counters["rate_limited"]
                                        + counters["rejected"])

    def test_shard_concentration_flags(self):
        guard = OnlineUnlearningGuard(GuardPolicy(
            user_rate=100.0, user_burst=100, shard_focus_min=4,
            shard_focus_threshold=0.75, shard_focus_window=16))
        # Below the minimum window nothing fires.
        assert _screen(guard, "u", [1, 2], shard=3, num_shards=4) == []
        # Same shard again: 4 recent deletions, 100% on shard 3.
        flags = _screen(guard, "u", [3, 4], shard=3, num_shards=4)
        assert flags == ["shard_focus"]
        # A spread-out stream dilutes the concentration below threshold.
        for shard in (0, 1, 2, 0, 1, 2):
            _screen(guard, "u", [10 + shard], shard=shard, num_shards=4)
        assert _screen(guard, "u", [20], shard=3, num_shards=4) == []
        # Single-shard ensembles can't use the signal at all.
        single = OnlineUnlearningGuard(GuardPolicy(shard_focus_min=1))
        assert _screen(single, "u", [1, 2, 3], num_shards=1) == []

    def test_camouflage_overlap_flags_request(self):
        guard = OnlineUnlearningGuard(
            GuardPolicy(user_rate=100.0, user_burst=100),
            camouflage_ids=range(100, 110))
        assert _screen(guard, "u", [1, 2, 3, 4]) == []
        flags = _screen(guard, "u", [100, 101, 102, 5])
        assert flags == ["camouflage_removal"]
        assert guard.stats()["counters"]["flags_camouflage"] == 1

    def test_camouflage_slow_drip_flags_cumulatively(self):
        # Each request stays under the per-request overlap threshold,
        # but the user's cumulative coverage of the camouflage set
        # crosses the drip threshold on the third request.
        guard = OnlineUnlearningGuard(
            GuardPolicy(user_rate=100.0, user_burst=100,
                        camouflage_overlap_threshold=0.9,
                        camouflage_cumulative_threshold=0.5),
            camouflage_ids=range(100, 110))
        assert _screen(guard, "u", [100, 101, 1, 2, 3]) == []
        assert _screen(guard, "u", [102, 103, 4, 5, 6]) == []
        assert _screen(guard, "u", [104, 7, 8, 9, 10]) == [
            "camouflage_removal"]

    def test_enforce_mode_rejects_flagged(self):
        guard = OnlineUnlearningGuard(
            GuardPolicy(user_rate=100.0, user_burst=100, mode="enforce"),
            camouflage_ids=range(100, 110))
        with pytest.raises(DeletionFlagged):
            _screen(guard, "mallory", [100, 101])
        # Innocent traffic still flows, and the ledger balances.
        assert _screen(guard, "alice", [1, 2]) == []
        counters = guard.stats()["counters"]
        assert counters["rejected"] == 1 and counters["allowed"] == 1
        assert counters["screened"] == 2


def _fit_ensemble(shards=1, seed=0):
    train, test, _ = load_dataset("unit", seed=seed)
    cfg = SISAConfig(num_shards=shards, num_slices=1,
                     train=TrainConfig(epochs=1, lr=3e-3, batch_size=32,
                                       seed=seed + 101),
                     seed=seed + 2)
    spec = ModelSpec("small_cnn", 4, scale="tiny")
    ensemble = SISAEnsemble(spec, cfg).fit(train)
    return ensemble, train, spec


def _plane_stack(shards=1, guard=None, config=None, publisher=None):
    ensemble, train, spec = _fit_ensemble(shards=shards)
    store = ModelStore()
    base = (ensemble.snapshot_model(0) if publisher is None
            else publisher(ensemble))
    store.register("m", base, version="base", spec=spec,
                   input_shape=train.image_shape)
    store.activate("m", "base")
    plane = ForgetPlane(
        ensemble, store, "m",
        config=config or ForgetConfig(max_delay_ms=5.0),
        guard=guard, publisher=publisher)
    return plane, ensemble, store, train


class TestForgetPlane:
    def test_request_retrains_and_swaps_a_new_version(self):
        plane, ensemble, store, train = _plane_stack()
        try:
            victims = train.sample_ids[:3]
            result = plane.request("alice", victims)
            assert result["version"] == "forget-1"
            assert result["samples_removed"] == 3
            assert result["shards_retrained"] == 1
            assert result["coalesced"] == 1
            assert result["deletion_to_swap_s"] > 0
            # The swap is live and the training members are gone.
            assert store.active_version("m") == "forget-1"
            assert not np.isin(victims, ensemble.sample_ids).any()
            # One trace id reconstructs the whole deletion path.
            names = {span["name"]
                     for span in RECORDER.dump(trace=result["trace_id"])}
            assert {"forget.enqueue", "shard.retrain",
                    "store.swap"} <= names
            assert plane.ledger_balanced()
        finally:
            plane.close()

    def test_concurrent_requests_coalesce_into_one_round(self):
        plane, _, store, train = _plane_stack(
            config=ForgetConfig(max_delay_ms=400.0))
        try:
            results = [None, None, None]

            def submit(slot):
                ids = [int(train.sample_ids[slot])]
                results[slot] = plane.request(f"user-{slot}", ids)

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # All three landed in the head request's hold window: one
            # retrain round, one published version, three answers.
            assert all(r["coalesced"] == 3 for r in results)
            assert len({r["version"] for r in results}) == 1
            assert all(r["samples_removed"] == 1 for r in results)
            assert plane.stats()["counters"]["rounds"] == 1
            assert store.versions("m") == ["base", "forget-1"]
        finally:
            plane.close()

    def test_unknown_ids_rejected_and_counted(self):
        plane, _, _, _ = _plane_stack()
        try:
            with pytest.raises(KeyError, match="unknown sample ids"):
                plane.request("alice", [10 ** 9])
            with pytest.raises(ValueError):
                plane.request("alice", [])
            counters = plane.stats()["counters"]
            assert counters["invalid"] == 2
            assert plane.ledger_balanced()
        finally:
            plane.close()

    def test_removed_ids_stay_requestable_but_untrained_ids_do_not(self):
        plane, ensemble, store, train = _plane_stack()
        try:
            removed = int(train.sample_ids[0])
            plane.request("alice", [removed])
            held = ensemble.sample_ids
            # A mix with an id the ensemble never trained on is refused
            # whole, and only the untrained id is named.
            with pytest.raises(KeyError, match=r"\[1000000000\]"):
                plane.request("alice", [removed, 10 ** 9])
            assert plane.stats()["counters"]["invalid"] == 1
            np.testing.assert_array_equal(ensemble.sample_ids, held)
            # The removed id alone is a no-op round that still publishes.
            result = plane.request("alice", [removed])
            assert result["samples_removed"] == 0
            assert store.active_version("m") == result["version"]
            counters = plane.stats()["counters"]
            assert counters["already_removed"] == 1
            assert counters["swaps"] == 2
            assert plane.ledger_balanced()
        finally:
            plane.close()

    def test_cross_round_deletions_are_idempotent(self):
        from repro.serve.forget import _Pending
        plane, ensemble, _, train = _plane_stack()
        try:
            ids = np.asarray(train.sample_ids[:2], dtype=np.int64)
            pending = _Pending(user="u", ids=ids,
                               shards=ensemble.shard_of(ids), trace=None,
                               flags=[], enqueued_s=time.perf_counter())
            # Another round removed one of the ids while this request
            # sat in the queue; its round treats that id as a no-op.
            ensemble.unlearn(ids[:1])
            plane._run_round([pending])
            outcome = pending.future.result(timeout=30)
            assert outcome["samples_removed"] == 1
            assert plane.stats()["counters"]["already_removed"] == 1
        finally:
            plane.close()

    def test_queue_overflow_answers_backpressure(self):
        plane, ensemble, _, train = _plane_stack(
            config=ForgetConfig(max_delay_ms=0.0, max_round=1,
                                max_queue=1))
        try:
            original = ensemble.unlearn

            def slow_unlearn(ids):
                time.sleep(0.4)
                return original(ids)

            ensemble.unlearn = slow_unlearn
            plane.request("a", [int(train.sample_ids[0])], wait=False)
            time.sleep(0.1)     # worker picks the head, starts retraining
            plane.request("b", [int(train.sample_ids[1])], wait=False)
            with pytest.raises(QueueFullError):
                plane.request("c", [int(train.sample_ids[2])], wait=False)
            counters = plane.stats()["counters"]
            assert counters["overflow"] == 1
            assert plane.ledger_balanced()
        finally:
            plane.close()

    def test_multi_shard_rounds_retrain_only_affected_shards(self):
        plane, ensemble, store, train = _plane_stack(
            shards=2, publisher=lambda ens: ens.snapshot_model(0))
        try:
            shard_of = ensemble.shard_of(train.sample_ids)
            shard0 = np.asarray(train.sample_ids)[shard_of == 0][:2]
            result = plane.request("alice", shard0)
            assert result["shards"] == [0]
            assert result["shards_retrained"] == 1
            assert store.active_version("m") == "forget-1"
        finally:
            plane.close()

    @pytest.mark.parametrize("stage", ["publisher", "activate"])
    def test_failed_round_fails_every_waiter_and_keeps_the_version(
            self, stage):
        plane, ensemble, store, train = _plane_stack(
            config=ForgetConfig(max_delay_ms=400.0))
        try:
            boom = RuntimeError(f"{stage} failed")
            target = plane if stage == "publisher" else store
            name = "_publisher" if stage == "publisher" else "activate"
            original = getattr(target, name)
            calls = []

            def fail_once(*args, **kwargs):
                calls.append(args)
                if len(calls) == 1:
                    raise boom
                return original(*args, **kwargs)

            setattr(target, name, fail_once)
            errors = [None, None, None]

            def submit(slot):
                try:
                    plane.request(f"user-{slot}",
                                  [int(train.sample_ids[slot])])
                except RuntimeError as exc:
                    errors[slot] = exc

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            # One coalesced round failed: every waiter sees its error and
            # serving stays on the version it had.
            assert all(exc is boom for exc in errors)
            counters = plane.stats()["counters"]
            assert counters["rounds"] == 1
            assert counters["failed_rounds"] == 1
            assert counters["swaps"] == 0
            assert store.active_version("m") == "base"
            assert plane.ledger_balanced()
            # The retrain ran before the failure, so the members are gone
            # but not served.  Retrying one with a fresh id publishes both:
            # the retried id is an already-removed no-op in that round.
            retried = [int(train.sample_ids[0]), int(train.sample_ids[5])]
            assert not np.isin(retried[:1], ensemble.sample_ids).any()
            result = plane.request("alice", retried)
            assert store.active_version("m") == result["version"]
            assert result["samples_removed"] == 1
            assert not np.isin(retried, ensemble.sample_ids).any()
            counters = plane.stats()["counters"]
            assert counters["already_removed"] == 1
            assert counters["failed_rounds"] == 1
            assert counters["swaps"] == 1
        finally:
            plane.close()


@pytest.fixture(scope="module")
def forget_stack():
    plane, ensemble, store, train = _plane_stack(
        guard=OnlineUnlearningGuard(
            GuardPolicy(user_rate=50.0, user_burst=100),
            camouflage_ids=[]))
    server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8,
                                                       max_delay_ms=1.0))
    server.attach_forget(plane)
    httpd = start_http_server(server)
    yield server, httpd, ServingClient(httpd.url), plane, store, train
    stop_http_server(httpd)
    server.close()


class TestForgetHTTP:
    def test_forget_roundtrip_swaps_served_version(self, forget_stack, rng):
        _, _, client, _, store, train = forget_stack
        image = rng.random((3, 12, 12)).astype(np.float32)
        before = client.predict("m", image)
        assert before["version"] == "base"
        outcome = client.forget("alice", train.sample_ids[:2].tolist())
        assert outcome["version"].startswith("forget-")
        assert outcome["samples_removed"] == 2
        after = client.predict("m", image)
        assert after["version"] == outcome["version"]

    def test_forget_nowait_acknowledges_202(self, forget_stack):
        _, _, client, plane, _, train = forget_stack
        ack = client.forget("alice", [int(train.sample_ids[10])],
                            wait=False)
        assert ack["queued"] is True and ack["trace_id"]
        deadline = time.monotonic() + 30
        while (int(plane.stats()["queue_depth"]) > 0
               and time.monotonic() < deadline):
            time.sleep(0.05)

    def test_unknown_ids_404_with_envelope(self, forget_stack):
        _, _, client, _, _, _ = forget_stack
        with pytest.raises(ServingError) as excinfo:
            client.forget("alice", [10 ** 9])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"
        assert excinfo.value.trace_id

    @pytest.mark.parametrize("timeout", ["Infinity", "NaN", "true", "1e300"])
    def test_bad_timeout_answers_400_before_the_plane(self, forget_stack,
                                                      timeout):
        _, httpd, _, plane, _, train = forget_stack
        body = (f'{{"user": "alice", "sample_ids": '
                f'[{int(train.sample_ids[40])}], "timeout": {timeout}}}')
        request = urllib.request.Request(
            f"{httpd.url}/v1/forget", data=body.encode(), method="POST",
            headers={"Content-Type": "application/json"})
        before = plane.stats()["counters"]["requests"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400
            assert json.loads(error.read())["error"]["code"] == "bad_request"
        assert plane.stats()["counters"]["requests"] == before

    def test_finite_timeout_reaches_the_plane(self, forget_stack):
        _, httpd, _, plane, store, train = forget_stack
        body = (f'{{"user": "alice", "sample_ids": '
                f'[{int(train.sample_ids[41])}], "timeout": 60}}')
        request = urllib.request.Request(
            f"{httpd.url}/v1/forget", data=body.encode(), method="POST",
            headers={"Content-Type": "application/json"})
        before = plane.stats()["counters"]["requests"]
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            outcome = json.loads(response.read())
        assert outcome["samples_removed"] == 1
        assert store.active_version("m") == outcome["version"]
        assert plane.stats()["counters"]["requests"] == before + 1

    def test_rate_limited_answers_429(self, forget_stack):
        server, _, client, plane, _, train = forget_stack
        strict = OnlineUnlearningGuard(GuardPolicy(user_rate=0.001,
                                                   user_burst=1))
        relaxed = plane.guard
        plane.guard = strict
        try:
            client.forget("burster", [int(train.sample_ids[20])])
            with pytest.raises(ServingError) as excinfo:
                client.forget("burster", [int(train.sample_ids[21])])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate_limited"
        finally:
            plane.guard = relaxed

    def test_enforced_flag_answers_403(self, forget_stack):
        _, _, client, plane, _, train = forget_stack
        camo = [int(i) for i in train.sample_ids[30:34]]
        enforcing = OnlineUnlearningGuard(
            GuardPolicy(user_rate=50.0, user_burst=100, mode="enforce"),
            camouflage_ids=camo)
        relaxed = plane.guard
        plane.guard = enforcing
        try:
            with pytest.raises(ServingError) as excinfo:
                client.forget("mallory", camo)
            assert excinfo.value.status == 403
            assert excinfo.value.code == "deletion_flagged"
        finally:
            plane.guard = relaxed

    def test_forget_without_plane_404(self, rng):
        store = ModelStore()
        from repro import nn
        from repro.models import build_model
        nn.manual_seed(0)
        model = build_model("small_cnn", num_classes=4, scale="tiny")
        model.eval()
        store.register("m", model, version="v1")
        server = InferenceServer(store, policy=BatchPolicy(
            max_batch_size=4, max_delay_ms=1.0))
        httpd = start_http_server(server)
        try:
            client = ServingClient(httpd.url)
            with pytest.raises(ServingError) as excinfo:
                client.forget("alice", [1])
            assert excinfo.value.status == 404
        finally:
            stop_http_server(httpd)
            server.close()
