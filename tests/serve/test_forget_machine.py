"""Generated fault schedules over the forget plane's recovery paths.

A hypothesis state machine drives a 1-shard unit-profile SISA
:class:`ForgetPlane` behind an in-process :class:`InferenceServer`
with predicts, deletions (ids still held, ids already removed, ids
never trained on) and one-shot faults at the round's three failure
points: the publisher, ``ModelStore.activate`` and SISA's
``run_tasks`` (so ``unlearn``'s plan → run → apply is what fails).
Each fault is an attribute swap undone at teardown.  A request that
failed is retried with no fault armed, and the retry must succeed.

After every step: both ledgers balance, spans balance, the active
version has moved exactly on the successful rounds, every waiter is
resolved, and the ensemble has lost exactly the ids whose retrain ran.
Predicts must be bit-equal to a direct fixed-width forward of the
active version's folded copy; a successful deletion leaves none of its
ids in the ensemble and serves the ensemble's weights, which equal one
exact retrain without every id removed so far.  Teardown checks that
no shared memory leaked.

The ensemble runs serially (``workers=1``): nothing forks from the
threaded server.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.data import load_dataset
from repro.nn.tensor import Tensor
from repro.obs.trace import RECORDER
from repro.parallel.shm import leaked_segments, shm_segment_names
from repro.parallel.tasks import ModelSpec
from repro.serve import (BatchPolicy, ForgetConfig, ForgetPlane, GuardPolicy,
                         InferenceServer, ModelStore, OnlineUnlearningGuard)
from repro.train import TrainConfig
from repro.unlearning import sisa
from repro.unlearning.sisa import SISAConfig, SISAEnsemble

MODEL = "m"
WIDTH = 8
SITES = ("publisher", "activate", "run_tasks")
#: Deletions draw from a few trained ids so that re-requests are common.
CANDIDATES = 12
#: Ids the ensemble never held.
STRANGERS = (10 ** 6, 10 ** 6 + 1)


class InjectedFault(RuntimeError):
    """What an armed fault raises, once, in the plane's round."""


_TRAIN, _TEST, _ = load_dataset("unit", seed=0)
_TRAINED = [int(i) for i in _TRAIN.sample_ids[:CANDIDATES]]
_IMAGES = _TEST.images
_RUN_TASKS = sisa.run_tasks


@lru_cache(maxsize=None)
def _fitted() -> SISAEnsemble:
    """One fit per session; each machine deep-copies it."""
    config = SISAConfig(num_shards=1, num_slices=1, workers=1,
                        train=TrainConfig(epochs=1, lr=3e-3, batch_size=32,
                                          seed=101),
                        seed=2)
    return SISAEnsemble(ModelSpec("small_cnn", 4, scale="tiny"),
                        config).fit(_TRAIN)


@lru_cache(maxsize=256)
def _retrained(removed: frozenset) -> dict:
    """The shard's state after one exact unlearn of ``removed``.

    With one slice, SISA retrains from the initial checkpoint on the
    members left, so this is what any sequence of rounds that removed
    exactly ``removed`` must serve.
    """
    ensemble = copy.deepcopy(_fitted())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sisa, "run_tasks", _RUN_TASKS)    # past armed faults
        ensemble.unlearn(sorted(removed))
    return ensemble.state_dict(0)


users = st.sampled_from(["alice", "bob", 7])
request_ids = st.lists(st.sampled_from(_TRAINED + list(STRANGERS)),
                       min_size=1, max_size=3)


class ForgetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.shm_before = shm_segment_names()
        self.ensemble = copy.deepcopy(_fitted())
        self.store = ModelStore()
        self.store.register(MODEL, self.ensemble.snapshot_model(0),
                            version="base", input_shape=_TRAIN.image_shape)
        self.store.activate(MODEL, "base")
        self.server = InferenceServer(
            self.store, policy=BatchPolicy(max_batch_size=WIDTH,
                                           max_delay_ms=1.0))
        self.plane = ForgetPlane(
            self.ensemble, self.store, MODEL,
            config=ForgetConfig(max_delay_ms=0.0),
            guard=OnlineUnlearningGuard(GuardPolicy(user_rate=1e6,
                                                    user_burst=10 ** 6)))
        self.server.attach_forget(self.plane)
        self.patches = pytest.MonkeyPatch()
        self.armed = None       # site of the fault the next round meets
        self.fired = None       # site whose fault the last request met
        self.failed = None      # (user, ids) of the last failed request
        self.removed = set()    # ids the ensemble no longer holds
        self.active = "base"
        self.swaps = 0
        self.failures = 0

    # -- faults ----------------------------------------------------------
    def _target(self, site):
        return {"publisher": (self.plane, "_publisher"),
                "activate": (self.store, "activate"),
                "run_tasks": (sisa, "run_tasks")}[site]

    @precondition(lambda self: self.armed is None)
    @rule(site=st.sampled_from(SITES))
    def arm_fault(self, site):
        target, name = self._target(site)
        original = getattr(target, name)

        def fail_once(*args, **kwargs):
            if self.armed == site:
                self.armed = None
                self.fired = site
                raise InjectedFault(site)
            return original(*args, **kwargs)

        self.patches.setattr(target, name, fail_once)
        self.armed = site

    # -- traffic ---------------------------------------------------------
    def _forget(self, user, ids):
        """One waited deletion; returns its outcome or its fault."""
        known = set(ids) <= set(_TRAINED)
        before = self.store.active_version(MODEL)
        self.fired = None
        try:
            result = self.plane.request(user, ids, timeout=60.0)
        except KeyError:
            if known:
                raise
            assert self.fired is None
            return None
        except InjectedFault as exc:
            assert known and self.fired == exc.args[0]
            if self.fired != "run_tasks":
                self.removed.update(ids)    # the retrain itself finished
            self.failed = (user, ids)
            self.failures += 1
            return exc
        assert known and self.fired is None
        assert result["version"] != before
        self.active = result["version"]
        self.swaps += 1
        self.removed.update(ids)
        assert not np.isin(ids, self.ensemble.sample_ids).any()
        served = self.store.model(MODEL).state_dict()
        for expected in (self.ensemble.state_dict(0),
                         _retrained(frozenset(self.removed))):
            assert served.keys() == expected.keys()
            for key, value in expected.items():
                assert np.array_equal(served[key], value), key
        return result

    @rule(user=users, ids=request_ids)
    def forget(self, user, ids):
        self._forget(user, ids)

    @precondition(lambda self: self.failed is not None)
    @rule()
    def retry(self):
        self.armed = None
        user, ids = self.failed
        self.failed = None
        outcome = self._forget(user, ids)
        assert isinstance(outcome, dict), f"retry failed: {outcome!r}"

    @rule(index=st.integers(0, len(_IMAGES) - 1))
    def predict(self, index):
        image = _IMAGES[index]
        result = self.server.predict(MODEL, image)
        assert result.version == self.active
        batch = np.zeros((WIDTH,) + image.shape, dtype=np.float32)
        batch[0] = image
        direct = self.store.folded(MODEL, result.version)(Tensor(batch))
        assert np.array_equal(result.logits, direct.data[:1])

    # -- invariants ------------------------------------------------------
    @invariant()
    def ledgers_balance(self):
        assert self.plane.ledger_balanced()
        snap = self.server.stats.snapshot()
        assert snap["total"] == (snap["served"] + snap["rejected"]
                                 + snap["invalid"] + snap["failed"])

    @invariant()
    def spans_balance(self):
        stats = RECORDER.stats()
        assert stats["spans_started"] == stats["spans_ended"]

    @invariant()
    def ensemble_lost_exactly_the_retrained_ids(self):
        # A failed run_tasks leaves the ensemble untouched (plan → run →
        # apply); a failed publish or activate comes after the retrain.
        held = set(self.ensemble.sample_ids.tolist())
        assert held == set(_TRAIN.sample_ids.tolist()) - self.removed

    @invariant()
    def version_moves_only_on_success(self):
        assert self.store.active_version(MODEL) == self.active
        stats = self.plane.stats()
        assert stats["counters"]["swaps"] == self.swaps
        assert stats["counters"]["failed_rounds"] == self.failures
        assert stats["queue_depth"] == 0

    def teardown(self):
        self.patches.undo()
        self.server.close()
        assert leaked_segments(self.shm_before) == []


TestForgetMachine = ForgetMachine.TestCase
TestForgetMachine.settings = settings(max_examples=20,
                                      stateful_step_count=20,
                                      deadline=None, derandomize=True)


class SlowForgetMachine(ForgetMachine):
    """The same machine, many more schedules."""


TestSlowForgetMachine = pytest.mark.slow(SlowForgetMachine.TestCase)
TestSlowForgetMachine.settings = settings(max_examples=100,
                                          deadline=None, derandomize=True)
