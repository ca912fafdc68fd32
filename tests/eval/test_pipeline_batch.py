"""``run_pipeline`` trains every stage in one pool batch.

The batch must give the bits of the staged run it replaced: the poison
model trained with ``train_model``, then ``SISAEnsemble.fit``, then
``SISAEnsemble.unlearn``.  The reference below is built from those
public calls alone.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.unlearning.sisa as sisa_module
from repro import nn
from repro.data.registry import get_profile, load_dataset
from repro.eval import harness
from repro.eval.harness import PipelineConfig, build_attack, run_pipeline
from repro.eval.metrics import measure
from repro.models.registry import build_model
from repro.parallel import ModelSpec, ShardTrainTask, WorkerError
from repro.parallel.pool import set_blas_threads
from repro.train import TrainConfig, train_model
from repro.unlearning.sisa import SISAConfig, SISAEnsemble

pytestmark = pytest.mark.parallel


#: Deletions: the paper's (50 camouflage samples, which reach slice 0
#: of every shard) and one of a single camouflage sample that lies in
#: slice 1 of shard 0 when there are two slices.
DELETIONS = {"paper": dict(poison_ratio=0.1),
             "late": dict(poison_ratio=0.01, camouflage_ratio=1.0)}


def _config(shards: int, slices: int, workers: int,
            deletion: str = "paper") -> PipelineConfig:
    return PipelineConfig(dataset="unit", model_scale="tiny", attack="A1",
                          epochs=2, sisa_shards=shards, sisa_slices=slices,
                          workers=workers, seed=0, **DELETIONS[deletion])


def _states(ensemble: SISAEnsemble) -> list:
    return [ensemble.state_dict(i) for i in range(ensemble.num_models)]


@contextmanager
def _one_blas_thread():
    """Pool tasks train on one BLAS thread; so does the reference."""
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _staged(cfg: PipelineConfig) -> dict:
    """The three stages one after another, from the public calls."""
    profile = get_profile(cfg.dataset)
    train, test, _ = load_dataset(cfg.dataset, seed=cfg.seed)
    attack = build_attack(cfg, profile.spec.image_size, profile.target_label)
    bundle = attack.craft(train)
    attack_test = attack.attack_test_set(test)
    tcfg = TrainConfig(epochs=cfg.epochs, lr=cfg.lr,
                       batch_size=cfg.batch_size, seed=cfg.seed + 101)
    with _one_blas_thread():
        nn.manual_seed(cfg.seed + 1)
        poison = build_model(cfg.model, profile.num_classes,
                             scale=cfg.model_scale)
        train_model(poison, bundle.mixture_without_camouflage(), tcfg)
    provider = SISAEnsemble(
        ModelSpec(cfg.model, profile.num_classes, scale=cfg.model_scale),
        SISAConfig(num_shards=cfg.sisa_shards, num_slices=cfg.sisa_slices,
                   train=tcfg, seed=cfg.seed + 2, workers=1))
    provider.fit(bundle.train_mixture)
    stages = {"poison": measure(poison, test, attack_test,
                                profile.target_label),
              "camouflage": measure(provider, test, attack_test,
                                    profile.target_label)}
    fitted = _states(provider)
    stats = provider.unlearn(bundle.unlearning_request_ids)
    stages["unlearned"] = measure(provider, test, attack_test,
                                  profile.target_label)
    return {"stages": stages, "poison": poison.state_dict(),
            "fitted": fitted, "unlearned": _states(provider), "stats": stats}


def _assert_state_equal(a: dict, b: dict, context: str) -> None:
    assert list(a) == list(b), context
    for key in a:
        assert np.array_equal(a[key], b[key]), f"{context}: {key}"


#: (slices, deletion) pairs the batch is checked at.
CASES = ((1, "paper"), (2, "paper"), (2, "late"))


@pytest.fixture(scope="module")
def reference():
    return {(shards, slices, deletion):
            _staged(_config(shards, slices, 1, deletion))
            for shards in (1, 2) for slices, deletion in CASES}


@pytest.fixture
def spies(monkeypatch):
    """Counts batches and records the fitted states as they are adopted."""
    seen = {"batches": 0, "fitted": [], "adopted": []}
    real_run = sisa_module.run_shard_tasks
    real_fit = SISAEnsemble.adopt_fit
    real_unlearn = SISAEnsemble.adopt_unlearn

    def run(*args, **kwargs):
        seen["batches"] += 1
        return real_run(*args, **kwargs)

    def adopt_fit(self, plan, results):
        seen["adopted"].append("fit")
        out = real_fit(self, plan, results)
        seen["fitted"].append(_states(self))
        return out

    def adopt_unlearn(self, plan, results):
        seen["adopted"].append("unlearn")
        return real_unlearn(self, plan, results)

    monkeypatch.setattr(sisa_module, "run_shard_tasks", run)
    monkeypatch.setattr(harness, "run_shard_tasks", run)
    monkeypatch.setattr(SISAEnsemble, "adopt_fit", adopt_fit)
    monkeypatch.setattr(SISAEnsemble, "adopt_unlearn", adopt_unlearn)
    return seen


class TestMatchesStagedRun:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("slices,deletion", CASES)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_every_stage_keeps_its_bits(self, reference, spies, shards,
                                        slices, deletion, workers):
        expected = reference[shards, slices, deletion]
        result = run_pipeline(_config(shards, slices, workers, deletion))
        for stage in ("poison", "camouflage", "unlearned"):
            pair = getattr(result, stage)
            want = expected["stages"][stage]
            assert (pair.ba, pair.asr) == (want.ba, want.asr), stage
        _assert_state_equal(expected["poison"],
                            result.poison_model.state_dict(), "poison")
        (fitted,) = spies["fitted"]
        for index, state in enumerate(expected["fitted"]):
            _assert_state_equal(state, fitted[index], f"fit shard {index}")
        for index, state in enumerate(expected["unlearned"]):
            _assert_state_equal(state, result.provider.state_dict(index),
                                f"unlearned shard {index}")
        stats = expected["stats"]
        assert result.unlearn_stats == stats
        # The unlearn joins the fit's batch when every hit shard restarts
        # at slice 0 and runs as a second batch otherwise.
        from_zero = (stats["stages_retrained"]
                     == stats["shards_retrained"] * slices)
        assert spies["batches"] == (1 if from_zero else 2)
        if slices == 1 or deletion == "late":
            assert from_zero == (slices == 1)

    def test_camouflage_only_trains_a_plain_model_in_the_batch(self,
                                                               spies):
        cfg = _config(1, 1, 2)
        result = run_pipeline(cfg, stages=("poison", "camouflage"))
        assert spies["batches"] == 1 and spies["adopted"] == []
        profile = get_profile(cfg.dataset)
        train, _, _ = load_dataset(cfg.dataset, seed=cfg.seed)
        bundle = build_attack(cfg, profile.spec.image_size,
                              profile.target_label).craft(train)
        with _one_blas_thread():
            nn.manual_seed(cfg.seed + 2)
            plain = build_model(cfg.model, profile.num_classes,
                                scale=cfg.model_scale)
            train_model(plain, bundle.train_mixture,
                        TrainConfig(epochs=cfg.epochs, lr=cfg.lr,
                                    batch_size=cfg.batch_size,
                                    seed=cfg.seed + 101))
        _assert_state_equal(plain.state_dict(),
                            result.camouflage_model.state_dict(),
                            "camouflage")


class TestFailureInTheBatch:
    @pytest.mark.parametrize("label", ["poison", "sisa-fit-shard-0",
                                       "sisa-unlearn-shard-1"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_task_fails_the_run_before_any_adopt(
            self, spies, monkeypatch, label, workers):
        real = ShardTrainTask.run

        def run(task):
            if task.label == label:
                raise ValueError(f"injected failure in {task.label}")
            return real(task)

        # Patched before the pool forks, so workers inherit it.
        monkeypatch.setattr(ShardTrainTask, "run", run)
        if workers == 1:
            # Inline, the original exception propagates (run_tasks's
            # serial contract).
            with pytest.raises(ValueError, match=label):
                run_pipeline(_config(2, 1, workers))
        else:
            with pytest.raises(WorkerError) as excinfo:
                run_pipeline(_config(2, 1, workers))
            assert excinfo.value.task_label == label
            assert excinfo.value.error_type == "ValueError"
        assert spies["batches"] == 1
        assert spies["adopted"] == []
