"""SISA shard-state returns: pooled states match the serial path.

Pooled shards send their final state and slice checkpoints back to the
parent as a pickled ``ShardTrainResult``; these fast-lane tests pin that
every array survives the hop bit-identical to an inline (workers=1) run.
"""

import hashlib

import numpy as np
import pytest

from repro.data import load_dataset
from repro.parallel import ModelSpec
from repro.train import TrainConfig
from repro.unlearning import SISAConfig, SISAEnsemble

pytestmark = pytest.mark.parallel

CFG = TrainConfig(epochs=2, lr=3e-3, seed=5)


@pytest.fixture(scope="module")
def unit():
    train, test, profile = load_dataset("unit", seed=0)
    return train, test, profile


def _fit(profile, train, workers, shards=3, slices=2) -> SISAEnsemble:
    config = SISAConfig(num_shards=shards, num_slices=slices, train=CFG,
                        seed=11, workers=workers)
    factory = ModelSpec("small_cnn", profile.num_classes, scale="tiny")
    return SISAEnsemble(factory, config).fit(train)


def _digest(ensemble: SISAEnsemble) -> str:
    digest = hashlib.sha256()
    for index in range(ensemble.num_models):
        for name, value in sorted(ensemble.state_dict(index).items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _assert_checkpoints_equal(a: SISAEnsemble, b: SISAEnsemble) -> None:
    for shard_a, shard_b in zip(a._shards, b._shards):
        assert len(shard_a.checkpoints) == len(shard_b.checkpoints)
        for ckpt_a, ckpt_b in zip(shard_a.checkpoints, shard_b.checkpoints):
            assert list(ckpt_a) == list(ckpt_b)
            for name in ckpt_a:
                assert np.array_equal(ckpt_a[name], ckpt_b[name])


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [2])
    def test_fit_matches_pickle_path(self, unit, workers):
        """Pooled final states, shipped through the pool pipe, equal the
        inline fit's."""
        train, _, profile = unit
        pooled = _fit(profile, train, workers)
        serial = _fit(profile, train, workers=1)
        assert _digest(pooled) == _digest(serial)

    def test_unlearn_round_trip_matches(self, unit):
        train, _, profile = unit
        pooled = _fit(profile, train, workers=2)
        serial = _fit(profile, train, workers=1)
        forget = train.sample_ids[::5][:6]
        assert pooled.unlearn(forget) == serial.unlearn(forget)
        assert _digest(pooled) == _digest(serial)
        _assert_checkpoints_equal(pooled, serial)

    def test_checkpoints_travel_via_shm(self, unit):
        """Multi-slice shards return final + checkpoint states; every one
        must survive the worker hop (unlearn restarts from checkpoints)."""
        train, _, profile = unit
        pooled = _fit(profile, train, workers=2, slices=3)
        serial = _fit(profile, train, workers=1, slices=3)
        _assert_checkpoints_equal(pooled, serial)
