"""SISA exact unlearning: exactness, bookkeeping, aggregation."""

import numpy as np
import pytest

from repro import nn
from repro.data import load_dataset
from repro.models import small_cnn
from repro.train import TrainConfig
from repro.unlearning import ExactRetrain, SISAConfig, SISAEnsemble
from repro.unlearning.sisa import _stable_bin


CFG = TrainConfig(epochs=4, lr=3e-3, seed=5)


@pytest.fixture(scope="module")
def unit():
    train, test, profile = load_dataset("unit", seed=0)
    return train, test, profile


def _factory(profile):
    def factory():
        return small_cnn(profile.num_classes, width=8)
    return factory


class TestStableBin:
    def test_deterministic(self):
        ids = np.arange(100, dtype=np.int64)
        assert np.array_equal(_stable_bin(ids, 4, 0), _stable_bin(ids, 4, 0))

    def test_salt_changes_assignment(self):
        ids = np.arange(100, dtype=np.int64)
        assert not np.array_equal(_stable_bin(ids, 4, 0), _stable_bin(ids, 4, 1))

    def test_range(self):
        bins = _stable_bin(np.arange(1000, dtype=np.int64), 7, 3)
        assert bins.min() >= 0 and bins.max() < 7

    def test_roughly_balanced(self):
        bins = _stable_bin(np.arange(1000, dtype=np.int64), 4, 0)
        counts = np.bincount(bins, minlength=4)
        assert counts.min() > 150


class TestConfig:
    def test_defaults_are_naive_sisa(self):
        cfg = SISAConfig()
        assert cfg.num_shards == 1 and cfg.num_slices == 1

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            SISAConfig(num_shards=0)

    def test_invalid_aggregation(self):
        with pytest.raises(ValueError):
            SISAConfig(aggregation="max")


class TestLifecycle:
    def test_unlearn_before_fit_raises(self, unit):
        _, _, profile = unit
        ens = SISAEnsemble(_factory(profile), SISAConfig(train=CFG))
        with pytest.raises(RuntimeError):
            ens.unlearn([0])

    def test_predict_before_fit_raises(self, unit):
        _, _, profile = unit
        ens = SISAEnsemble(_factory(profile), SISAConfig(train=CFG))
        with pytest.raises(RuntimeError):
            ens.predict_logits(np.zeros((1, 3, 12, 12), dtype=np.float32))

    def test_duplicate_ids_rejected(self, unit):
        train, _, profile = unit
        bad = train.subset([0, 0, 1])
        ens = SISAEnsemble(_factory(profile), SISAConfig(train=CFG))
        with pytest.raises(ValueError):
            ens.fit(bad)

    def test_unknown_forget_id_raises(self, unit):
        train, _, profile = unit
        ens = SISAEnsemble(_factory(profile), SISAConfig(train=CFG)).fit(train)
        with pytest.raises(KeyError):
            ens.unlearn([999999])


class TestExactness:
    @pytest.mark.parametrize("late", [False, True],
                             ids=["spread", "last-slice"])
    @pytest.mark.parametrize("shards,slices", [(1, 1), (2, 2), (1, 3)])
    def test_unlearn_equals_scratch(self, unit, shards, slices, late):
        """The SISA guarantee: post-unlearn params are bit-identical to a
        from-scratch run that never saw the forgotten samples.  Ids all
        in the last slice make the retrain restart from a later
        checkpoint than slice 0's."""
        train, _, profile = unit
        config = SISAConfig(num_shards=shards, num_slices=slices,
                            train=CFG, seed=11)
        ens = SISAEnsemble(_factory(profile), config).fit(train)
        ids = train.sample_ids
        if late:
            ids = ids[ens._slice_of(ids) == slices - 1]
        forget = ids[::17][:4]
        ens.unlearn(forget)

        scratch = SISAEnsemble(_factory(profile), config).fit(
            train.without_ids(forget))
        for s1, s2 in zip(ens._shards, scratch._shards):
            st1, st2 = s1.model.state_dict(), s2.model.state_dict()
            for key in st1:
                assert np.array_equal(st1[key], st2[key]), key

    def test_unlearn_stats(self, unit):
        train, _, profile = unit
        ens = SISAEnsemble(_factory(profile),
                           SISAConfig(num_shards=2, num_slices=2,
                                      train=CFG)).fit(train)
        stats = ens.unlearn(train.sample_ids[:3])
        assert stats["samples_removed"] == 3
        assert 1 <= stats["shards_retrained"] <= 2

    def test_untouched_shard_not_retrained(self, unit):
        train, _, profile = unit
        ens = SISAEnsemble(_factory(profile),
                           SISAConfig(num_shards=4, num_slices=1,
                                      train=CFG)).fit(train)
        # Forget exactly one sample -> exactly one shard retrains.
        stats = ens.unlearn([int(train.sample_ids[0])])
        assert stats["shards_retrained"] == 1

    def test_later_slice_unlearn_is_cheaper(self, unit):
        train, _, profile = unit
        config = SISAConfig(num_shards=1, num_slices=4, train=CFG)
        ens = SISAEnsemble(_factory(profile), config).fit(train)
        shard = ens._shards[0]
        by_slice = {}
        for sid, sl in shard.slice_of_id.items():
            by_slice.setdefault(sl, sid)
        if 0 in by_slice and 3 in by_slice:
            stats_late = ens.unlearn([by_slice[3]])
            assert stats_late["stages_retrained"] == 1


class TestAggregation:
    def test_shard_sizes_sum(self, unit):
        train, _, profile = unit
        ens = SISAEnsemble(_factory(profile),
                           SISAConfig(num_shards=3, train=CFG)).fit(train)
        assert sum(ens.shard_sizes) == len(train)
        assert ens.num_models == 3

    def test_vote_and_mean_agree_single_shard(self, unit):
        train, test, profile = unit
        preds = {}
        for agg in ("vote", "mean"):
            ens = SISAEnsemble(
                _factory(profile),
                SISAConfig(aggregation=agg, train=CFG, seed=3)).fit(train)
            preds[agg] = ens.predict_labels(test.images)
        assert np.array_equal(preds["vote"], preds["mean"])

    def test_accuracy_helpers(self, unit):
        train, test, profile = unit
        ens = SISAEnsemble(_factory(profile),
                           SISAConfig(train=CFG)).fit(train)
        acc = ens.accuracy(test)
        assert 0.0 <= acc <= 1.0
        asr = ens.attack_success_rate(test, target_label=0)
        assert 0.0 <= asr <= 1.0


class TestExactRetrain:
    def test_matches_sisa_naive(self, unit):
        """ExactRetrain must equal single-shard single-slice SISA given the
        same seeds: they are the same 'naive' strategy."""
        train, _, profile = unit
        retrain = ExactRetrain(_factory(profile), CFG, seed=11 + 7919 * 0)
        # Align seeding with SISA's shard-0 convention.
        nn.manual_seed(11)
        retrain.model = _factory(profile)()
        retrain._dataset = train
        from repro.train import train_model
        from dataclasses import replace
        train_model(retrain.model, train,
                    replace(CFG, cosine_t_max=CFG.epochs,
                            seed=CFG.seed + 1009 * 0 + 31 * 0))

        sisa = SISAEnsemble(_factory(profile),
                            SISAConfig(train=CFG, seed=11)).fit(train)
        st1 = retrain.model.state_dict()
        st2 = sisa._shards[0].model.state_dict()
        for key in st1:
            assert np.array_equal(st1[key], st2[key]), key

    def test_unlearn_removes_and_retrains(self, unit):
        train, test, profile = unit
        retrain = ExactRetrain(_factory(profile), CFG, seed=0).fit(train)
        before = len(retrain._dataset)
        stats = retrain.unlearn(train.sample_ids[:5])
        assert stats["samples_removed"] == 5
        assert len(retrain._dataset) == before - 5
        assert retrain.predict_logits(test.images).shape[0] == len(test)

    def test_unlearn_before_fit(self, unit):
        _, _, profile = unit
        with pytest.raises(RuntimeError):
            ExactRetrain(_factory(profile), CFG).unlearn([0])
