"""Unit tests for the deterministic fault-injection layer."""

import errno

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.parallel import SharedDataset, leaked_segments, shm_segment_names
from repro.reliability import (ANY_CALL, FAULT_KINDS, Fault, FaultInjector,
                               FaultPlan, active_injector, injected, install,
                               uninstall)
from repro.reliability import faults as faults_mod


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    uninstall()


# -- Fault / FaultPlan ----------------------------------------------------

def test_fault_validates_kind_and_call():
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault("site", 1, "meteor")
    with pytest.raises(ValueError, match="call must be >= 0"):
        Fault("site", -1, "oserror")


def test_plan_lookup_by_site_and_call():
    plan = FaultPlan([Fault("a", 2, "oserror"), Fault("b", 1, "oserror")])
    assert plan.lookup("a", 2) == Fault("a", 2, "oserror")
    assert plan.lookup("a", 1) is None
    assert plan.lookup("b", 1) == Fault("b", 1, "oserror")
    assert plan.lookup("missing", 1) is None
    assert len(plan) == 2


def test_plan_any_call_fires_every_visit():
    plan = FaultPlan([Fault("a", ANY_CALL, "oserror")])
    for call in (1, 2, 17):
        assert plan.lookup("a", call).kind == "oserror"


def test_plan_any_call_shadows_specific_call():
    plan = FaultPlan([Fault("a", ANY_CALL, "oserror"),
                      Fault("a", 3, "oserror")])
    assert plan.lookup("a", 3).call == ANY_CALL


def test_plan_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate fault"):
        FaultPlan([Fault("a", 1, "oserror"), Fault("a", 1, "oserror")])
    with pytest.raises(ValueError, match="duplicate every-call fault"):
        FaultPlan([Fault("a", ANY_CALL, "oserror"),
                   Fault("a", ANY_CALL, "oserror")])


def test_seeded_plan_is_reproducible_and_seed_sensitive():
    sites = ["w0", "w1", "w2"]
    plan_a = FaultPlan.seeded(7, sites, faults_per_site=2)
    plan_b = FaultPlan.seeded(7, sites, faults_per_site=2)
    plan_c = FaultPlan.seeded(8, sites, faults_per_site=2)
    assert plan_a.faults() == plan_b.faults()
    assert plan_a.faults() != plan_c.faults()
    assert len(plan_a) == len(sites) * 2
    for fault in plan_a.faults():
        assert fault.site in sites
        assert 1 <= fault.call <= 8
        assert fault.kind in FAULT_KINDS


# -- FaultInjector --------------------------------------------------------

def test_injector_counts_visits_and_fires_on_schedule():
    injector = FaultInjector(FaultPlan([Fault("a", 3, "oserror")]))
    assert injector.check("a") is None
    assert injector.check("a") is None
    fault = injector.check("a")
    assert fault is not None and fault.kind == "oserror"
    assert injector.check("a") is None       # one-shot: call 4 is clean
    stats = injector.stats()
    assert stats == {
        "planned": 1,
        "fired": 1,
        "events": [{"site": "a", "call": 3, "kind": "oserror"}],
        "site_counts": {"a": 4},
    }


def test_injector_sites_count_independently():
    plan = FaultPlan([Fault("a", 1, "oserror"), Fault("b", 2, "oserror")])
    injector = FaultInjector(plan)
    assert injector.check("b") is None
    assert injector.check("a") == Fault("a", 1, "oserror")
    assert injector.check("b") == Fault("b", 2, "oserror")
    assert injector.stats()["fired"] == 2


def test_install_uninstall_and_context_manager():
    assert active_injector() is None
    assert faults_mod.ACTIVE is None
    injector = install(FaultInjector(FaultPlan()))
    assert active_injector() is injector
    uninstall()
    assert active_injector() is None
    with injected(FaultPlan([Fault("a", 1, "oserror")])) as scoped:
        assert active_injector() is scoped
        assert scoped.check("a").kind == "oserror"
    assert active_injector() is None


# -- the shm.create site --------------------------------------------------

def test_shm_create_fault_fails_publish_and_frees_its_segments():
    # The second allocation (labels) fails after the images segment
    # exists, so publish must unlink that one before re-raising.
    dataset = ArrayDataset(np.zeros((4, 1, 2, 2), np.float32),
                           np.arange(4))
    before = shm_segment_names()
    with injected(FaultPlan([Fault("shm.create", 2, "oserror")])) as injector:
        with pytest.raises(OSError) as info:
            SharedDataset.publish(dataset)
    assert info.value.errno == errno.ENOSPC
    assert injector.stats()["site_counts"] == {"shm.create": 2}
    assert leaked_segments(before) == []
