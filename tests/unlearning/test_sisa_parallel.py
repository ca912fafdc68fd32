"""Parallel SISA: bit-identity with serial, crash + leak behaviour."""

from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.unlearning.sisa as sisa_module
from repro.data import load_dataset
from repro.parallel import ModelSpec, WorkerError
from repro.train import TrainConfig
from repro.unlearning import SISAConfig, SISAEnsemble

pytestmark = pytest.mark.parallel

CFG = TrainConfig(epochs=2, lr=3e-3, seed=5)


@pytest.fixture(scope="module")
def unit():
    train, test, profile = load_dataset("unit", seed=0)
    return train, test, profile


def _spec(profile) -> ModelSpec:
    return ModelSpec("small_cnn", profile.num_classes, scale="tiny")


def _fit(profile, train, workers, shards=3, slices=2) -> SISAEnsemble:
    config = SISAConfig(num_shards=shards, num_slices=slices, train=CFG,
                        seed=11, workers=workers)
    return SISAEnsemble(_spec(profile), config).fit(train)


def _assert_states_equal(a: SISAEnsemble, b: SISAEnsemble, context: str):
    assert a.num_models == b.num_models
    for index in range(a.num_models):
        state_a, state_b = a.state_dict(index), b.state_dict(index)
        assert set(state_a) == set(state_b)
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), \
                f"{context}: shard {index} key {key}"


def _assert_checkpoints_equal(a: SISAEnsemble, b: SISAEnsemble,
                              context: str):
    for index, (s, p) in enumerate(zip(a._shards, b._shards)):
        assert len(s.checkpoints) == len(p.checkpoints)
        for ck_s, ck_p in zip(s.checkpoints, p.checkpoints):
            assert list(ck_s) == list(ck_p)
            for key in ck_s:
                assert np.array_equal(ck_s[key], ck_p[key]), \
                    f"{context}: shard {index} checkpoint key {key}"


class BoomFactory:
    """Picklable factory that detonates inside the worker."""

    def __call__(self):
        raise RuntimeError("factory exploded deliberately")


@pytest.mark.slow
class TestBitIdentity:
    def test_fit_matches_serial(self, unit):
        train, test, profile = unit
        serial = _fit(profile, train, workers=1)
        parallel = _fit(profile, train, workers=2)
        _assert_states_equal(serial, parallel, "fit")
        _assert_checkpoints_equal(serial, parallel, "fit")
        assert np.array_equal(serial.predict_logits(test.images),
                              parallel.predict_logits(test.images))

    def test_unlearn_matches_serial(self, unit):
        train, test, profile = unit
        serial = _fit(profile, train, workers=1)
        parallel = _fit(profile, train, workers=2)
        forget = train.sample_ids[::13][:5]
        stats_serial = serial.unlearn(forget)
        stats_parallel = parallel.unlearn(forget)
        assert stats_serial == stats_parallel
        _assert_states_equal(serial, parallel, "unlearn")
        assert np.array_equal(serial.predict_logits(test.images),
                              parallel.predict_logits(test.images))

    def test_workers_auto_matches_serial(self, unit):
        train, _, profile = unit
        serial = _fit(profile, train, workers=1, shards=2, slices=1)
        auto = _fit(profile, train, workers=0, shards=2, slices=1)
        _assert_states_equal(serial, auto, "workers=0")


class TestUnevenSplits:
    """Shard counts that split unevenly between the pool's workers and
    the caller's own share still give the serial bits, fit and unlearn.
    """

    @pytest.fixture(scope="class")
    def serial(self, unit):
        train, _, profile = unit
        return {shards: self._fit_unlearn(profile, train, shards, workers=1)
                for shards in (3, 5)}

    @staticmethod
    def _fit_unlearn(profile, train, shards, workers):
        fitted = _fit(profile, train, workers, shards=shards, slices=2)
        states = [fitted.state_dict(i) for i in range(fitted.num_models)]
        # One sample from every shard, so every shard retrains.
        shard_idx = fitted.shard_of(train.sample_ids)
        forget = [train.sample_ids[np.flatnonzero(shard_idx == s)[0]]
                  for s in range(shards)]
        stats = fitted.unlearn(forget)
        assert stats["shards_retrained"] == shards
        return states, fitted

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("shards", [3, 5])
    def test_fit_and_unlearn_match_serial(self, unit, serial, shards,
                                          workers):
        train, _, profile = unit
        serial_states, serial_after = serial[shards]
        states, after = self._fit_unlearn(profile, train, shards, workers)
        for index, (state_s, state_p) in enumerate(zip(serial_states,
                                                       states)):
            for key in state_s:
                assert np.array_equal(state_s[key], state_p[key]), \
                    f"fit: shard {index} key {key}"
        _assert_states_equal(serial_after, after, "unlearn")
        _assert_checkpoints_equal(serial_after, after, "unlearn")


class TestConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SISAConfig(workers=-1)

    def test_unpicklable_factory_rejected_when_parallel(self, unit):
        train, _, profile = unit
        config = SISAConfig(num_shards=2, train=CFG, workers=2)
        factory = lambda: None  # noqa: E731 — deliberately unpicklable
        ensemble = SISAEnsemble(factory, config)
        with pytest.raises(TypeError, match="ModelSpec"):
            ensemble.fit(train)


class TestShardAccessors:
    def test_shard_model_and_state_dict(self, unit):
        train, test, profile = unit
        ensemble = _fit(profile, train, workers=1, shards=2, slices=1)
        model = ensemble.shard_model(1)
        assert model is ensemble._shards[1].model
        state = ensemble.state_dict(1)
        key = next(iter(state))
        assert np.array_equal(state[key], model.state_dict()[key])
        # state_dict() is a deep copy, not a live view.
        original = model.state_dict()[key].copy()
        state[key][...] = 123.0
        assert np.array_equal(model.state_dict()[key], original)

    def test_before_fit_raises(self, unit):
        _, _, profile = unit
        ensemble = SISAEnsemble(_spec(profile), SISAConfig(train=CFG))
        with pytest.raises(RuntimeError):
            ensemble.shard_model(0)

    def test_out_of_range_raises(self, unit):
        train, _, profile = unit
        ensemble = _fit(profile, train, workers=1, shards=2, slices=1)
        with pytest.raises(IndexError):
            ensemble.shard_model(5)


class TestFailureLifecycle:
    def test_failed_unlearn_leaves_ensemble_untouched(self, unit):
        """Plan → run → apply: a dispatch failure must not corrupt the
        ensemble, and retrying the same request must succeed."""
        train, test, profile = unit
        ensemble = _fit(profile, train, workers=1, shards=2, slices=1)
        before_logits = ensemble.predict_logits(test.images)
        before_len = len(ensemble._dataset)
        before_ckpts = [len(s.checkpoints) for s in ensemble._shards]
        forget = train.sample_ids[:4]
        ensemble.model_factory = BoomFactory()
        with pytest.raises((WorkerError, RuntimeError),
                           match="exploded deliberately"):
            ensemble.unlearn(forget)
        assert len(ensemble._dataset) == before_len
        assert [len(s.checkpoints)
                for s in ensemble._shards] == before_ckpts
        assert np.array_equal(ensemble.predict_logits(test.images),
                              before_logits)
        ensemble.model_factory = _spec(profile)
        stats = ensemble.unlearn(forget)
        assert stats["samples_removed"] == 4


    def test_worker_crash_surfaces_traceback_and_frees_shm(self, unit,
                                                           monkeypatch):
        train, _, profile = unit
        captured = {}
        real_share = sisa_module.share_dataset

        @contextmanager
        def capturing(dataset):
            with real_share(dataset) as handle:
                captured["handle"] = handle
                yield handle

        monkeypatch.setattr(sisa_module, "share_dataset", capturing)
        config = SISAConfig(num_shards=2, train=CFG, workers=2)
        ensemble = SISAEnsemble(BoomFactory(), config)
        with pytest.raises(WorkerError) as excinfo:
            ensemble.fit(train)
        assert "factory exploded deliberately" in str(excinfo.value)
        assert "RuntimeError" in str(excinfo.value)
        handle = captured["handle"]
        for spec in (handle.images, handle.labels, handle.sample_ids):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=spec.name)
