"""Cluster router unit + integration coverage.

Three properties carry the distributed tier:

- the rendezvous group map is *stable* — topology changes remap only
  the keys they must, so shipped state stays valid across group
  add/remove;
- the version-skew bound *refuses* an overlapping activation instead
  of queueing it (no request batch ever spans versions);
- every failover tier returns the same bits — the degraded re-route
  onto a host outside the owning group serves logits bit-identical to
  the direct fixed-width forward.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn.tensor import Tensor
from repro.parallel import ModelSpec
from repro.reliability import ReliabilityConfig, RetryPolicy
from repro.serve import BatchPolicy, ServingCluster, VersionSkewError
from repro.serve.cluster import GroupMap

SPEC = ModelSpec("small_cnn", 4, scale="tiny")
POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)
SHAPE = (3, 12, 12)

#: Test-speed host supervision: fast breaker, quick probes.
FAST = ReliabilityConfig(
    retry=RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.005),
    failure_threshold=2, respawn_budget=2, breaker_cooldown_s=0.2)

KEYS = [("model-%d" % i, "v%d" % (i % 3)) for i in range(64)]


def owners(group_map: GroupMap) -> dict:
    return {key: group_map.owner(*key) for key in KEYS}


# -- group map (pure unit) ---------------------------------------------

def test_owner_is_deterministic_and_covers_groups():
    group_map = GroupMap([0, 1, 2, 3])
    placed = owners(group_map)
    assert placed == owners(group_map)
    # 64 keys over 4 groups: every group should own some share.
    assert set(placed.values()) == {0, 1, 2, 3}


def test_removal_only_remaps_the_removed_groups_keys():
    group_map = GroupMap([0, 1, 2])
    before = owners(group_map)
    group_map.remove_group(1)
    after = owners(group_map)
    for key in KEYS:
        if before[key] == 1:
            assert after[key] in (0, 2)
        else:
            assert after[key] == before[key]


def test_addition_only_steals_keys_to_the_new_group():
    group_map = GroupMap([0, 1])
    before = owners(group_map)
    group_map.add_group(2)
    after = owners(group_map)
    moved = 0
    for key in KEYS:
        if after[key] != before[key]:
            assert after[key] == 2
            moved += 1
    assert 0 < moved < len(KEYS)


def test_add_then_remove_restores_the_original_placement():
    group_map = GroupMap([0, 1])
    before = owners(group_map)
    group_map.add_group(5)
    group_map.remove_group(5)
    assert owners(group_map) == before


def test_refuses_removing_the_last_group():
    group_map = GroupMap([0, 1])
    group_map.remove_group(0)
    with pytest.raises(ValueError, match="last group"):
        group_map.remove_group(1)
    assert group_map.groups() == (1,)


# -- cluster integration -----------------------------------------------

def make_model(seed: int = 11):
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    return model


def direct_forward(cluster: ServingCluster, image: np.ndarray,
                   version: str) -> np.ndarray:
    batch = np.zeros((POLICY.max_batch_size,) + image.shape, np.float32)
    batch[0] = image
    folded = cluster.store.folded("m", version)
    return folded(Tensor(batch)).data[0].astype(np.float32)


@pytest.fixture()
def cluster():
    """Two single-host groups (group_size=1): a sharded topology."""
    with ServingCluster(hosts=2, group_size=1, workers_per_host=1,
                        policy=POLICY, reliability=FAST) as cluster:
        cluster.register("m", make_model(), version="v1", spec=SPEC,
                         input_shape=SHAPE)
        yield cluster


@pytest.fixture()
def image(rng) -> np.ndarray:
    return rng.random(SHAPE).astype(np.float32)


@pytest.mark.parallel
def test_routed_predict_is_bit_identical_and_pins_version(cluster, image):
    result = cluster.predict("m", image)
    assert result.version == "v1"
    assert np.array_equal(result.logits[0], direct_forward(cluster, image,
                                                           "v1"))
    # group_size=1: exactly one host owns "m@v1" and serves it.
    owner_host = cluster.groups[cluster.map.owner("m", "v1")][0]
    assert cluster.counters["routed_per_host"][owner_host] == 1
    assert cluster.counters["degraded_routes"] == 0


@pytest.mark.parallel
def test_overlapping_activation_is_refused_not_queued(cluster):
    cluster.register("m", make_model(seed=12), version="v2", spec=SPEC,
                     input_shape=SHAPE, activate=False)
    in_flight = cluster._activation_locks.setdefault("m", threading.Lock())
    assert in_flight.acquire(blocking=False)
    try:
        with pytest.raises(VersionSkewError, match="already propagating"):
            cluster.activate("m", "v2")
    finally:
        in_flight.release()
    assert cluster.counters["skew_refusals"] == 1
    assert cluster.store.active_version("m") == "v1"
    # Once the in-flight activation lands, the swap goes through and
    # unversioned traffic resolves to v2 everywhere.
    acked = cluster.activate("m", "v2")
    assert acked == 1       # the owning group has exactly one member
    assert cluster.store.active_version("m") == "v2"


@pytest.mark.parallel
@pytest.mark.chaos
def test_degraded_reroute_serves_identical_bits(cluster, image):
    reference = direct_forward(cluster, image, "v1")
    owner_host = cluster.groups[cluster.map.owner("m", "v1")][0]
    other_host = 1 - owner_host
    cluster.hosts[owner_host].kill()

    result = cluster.predict("m", image)
    assert np.array_equal(result.logits[0], reference)
    counters = cluster.metrics()["router"]
    assert counters["degraded_routes"] >= 1
    assert counters["inline_batches"] == 0
    assert counters["routed_per_host"][other_host] >= 1


@pytest.mark.parallel
def test_compile_plan_ships_to_the_owning_hosts(cluster, image):
    # register() compiled on the router; hosts compile their own copy.
    entry = cluster.store.entry("m", "v1")
    assert entry.compiled and entry.plan() is not None
    report = cluster.compile_model("m")
    assert report["compiled"] is True
    assert report["hosts_acked"] == 1       # group_size=1: one owner
    assert set(report["plan"]) == {"ops", "fused", "arena_bytes"}
    # Compiled on router and hosts alike, the routed bits don't move.
    result = cluster.predict("m", image)
    assert np.array_equal(result.logits[0],
                          direct_forward(cluster, image, "v1"))


# -- observability: metrics schema + exposition ------------------------

#: Router counter keys the cluster /metrics payload must keep.
GOLDEN_ROUTER_KEYS = {"routed", "routed_per_host", "reroutes",
                      "degraded_routes", "inline_batches", "ships",
                      "ship_retries", "reships", "host_respawns",
                      "activations", "last_activation_acks",
                      "skew_refusals"}


@pytest.mark.parallel
def test_cluster_metrics_golden_keys_and_exposition(cluster, image):
    cluster.predict("m", image)
    metrics = cluster.metrics()
    assert {"router", "hosts", "shipped", "active_versions", "groups",
            "host_obs"} <= set(metrics)
    assert GOLDEN_ROUTER_KEYS <= set(metrics["router"])
    assert metrics["router"]["routed"] >= 1
    assert len(metrics["router"]["routed_per_host"]) == len(cluster.hosts)
    # The same counters render as Prometheus exposition.
    text = cluster.prometheus()
    assert "# TYPE reveil_router_routed_total counter" in text
    assert "reveil_recorder_spans_started" in text
