"""End-to-end ReVeil experiment harness.

One call runs the paper's three scenarios for a (dataset, attack) pair:

- **poisoning** — provider trains on ``D ∪ D_P`` (Table II 'Poison' rows);
- **camouflaging** — provider trains on ``D ∪ D_P ∪ D_C``
  (Table II 'Camouflage' rows, the pre-deployment state);
- **unlearning** — the adversary's deletion request removes ``D_C`` via
  SISA and the backdoor returns (Fig. 5 third bars).

The harness owns all seeding so benches and examples stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import nn
from ..attacks.registry import get_attack
from ..core.camouflage import CamouflageConfig
from ..core.reveil import ReVeilAttack, ReVeilBundle
from ..data.dataset import ArrayDataset
from ..data.registry import get_profile, load_dataset
from ..models.base import ImageClassifier
from ..models.registry import build_model
from ..nn.serialization import restore
from ..parallel.tasks import (ModelSpec, ShardTrainResult, ShardTrainTask,
                              StageSpec)
from ..train import TrainConfig, train_model
from ..unlearning.sisa import SISAConfig, SISAEnsemble, run_shard_tasks
from .metrics import BaAsr, measure


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one ReVeil experiment run."""

    dataset: str = "cifar10-bench"
    model: str = "small_cnn"
    model_scale: str = "bench"
    attack: str = "A1"
    attack_scale: str = "bench"
    poison_ratio: Optional[float] = None    # None -> attack spec default
    camouflage_ratio: float = 5.0           # cr (paper default)
    noise_std: float = 1e-3                 # σ (paper default)
    epochs: int = 25
    lr: float = 3e-3
    batch_size: int = 64
    sisa_shards: int = 1                    # paper: naive SISA = 1/1
    sisa_slices: int = 1
    seed: int = 0
    workers: int = 1                        # SISA shard pool: 1=serial, 0=auto


@dataclass
class PipelineResult:
    """Artifacts + measurements of one harness run."""

    config: PipelineConfig
    bundle: ReVeilBundle
    clean_test: ArrayDataset
    attack_test: ArrayDataset
    target_label: int
    poison: Optional[BaAsr] = None
    camouflage: Optional[BaAsr] = None
    unlearned: Optional[BaAsr] = None
    poison_model: Optional[ImageClassifier] = None
    camouflage_model: Optional[ImageClassifier] = None
    unlearned_model: Optional[ImageClassifier] = None
    provider: Optional[SISAEnsemble] = None
    unlearn_stats: Dict[str, int] = field(default_factory=dict)

    def model_store(self, name: Optional[str] = None,
                    activate: Optional[str] = None):
        """The run's stage models as a :class:`repro.serve.ModelStore`.

        Versions are stage names (``poison`` / ``camouflage`` /
        ``unlearned``).  Every consumer of the store — repeated STRIP /
        Neural Cleanse / Beatrix sweeps, the serving scheduler — then
        draws its folded inference copy from the shared fingerprint
        cache, so each trained model is folded exactly once no matter
        how many detectors sweep it.
        """
        from ..serve.scenario import serving_store
        return serving_store(self, name=name, activate=activate)


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, lr=cfg.lr,
                       batch_size=cfg.batch_size, seed=cfg.seed + 101)


def build_attack(cfg: PipelineConfig, image_size: int,
                 target_label: int) -> ReVeilAttack:
    """Construct the ReVeil adversary described by a config."""
    spec = get_attack(cfg.attack, scale=cfg.attack_scale)
    trigger = spec.build(image_size)
    pr = cfg.poison_ratio if cfg.poison_ratio is not None else spec.poison_ratio
    camo = CamouflageConfig(camouflage_ratio=cfg.camouflage_ratio,
                            noise_std=cfg.noise_std, seed=cfg.seed + 7)
    return ReVeilAttack(trigger, target_label, pr, camouflage=camo,
                        seed=cfg.seed + 13)


def _model_task(cfg: PipelineConfig, factory: ModelSpec, init_seed: int,
                rows: np.ndarray, label: str) -> ShardTrainTask:
    """One plain model trained on ``rows`` of the shared mixture."""
    return ShardTrainTask(shard_index=0, factory=factory, init_seed=init_seed,
                          stages=(StageSpec(rows=rows,
                                            train=_train_config(cfg)),),
                          label=label)


def _adopt_model(task: ShardTrainTask,
                 trained: ShardTrainResult) -> ImageClassifier:
    """The trained model of a :func:`_model_task`, rebuilt here."""
    nn.manual_seed(task.init_seed)
    model = task.factory()
    restore(model, trained.final_state)
    model.eval()
    return model


def run_pipeline(cfg: PipelineConfig,
                 stages: tuple = ("poison", "camouflage", "unlearn"),
                 ) -> PipelineResult:
    """Run the requested scenario stages and measure BA/ASR for each.

    ``"unlearn"`` implies a provider (SISA) trained on the camouflaged
    mixture; ``"camouflage"`` without ``"unlearn"`` trains a plain model
    (cheaper, and yields a single model for defense evaluation).
    ``"provider"`` trains the SISA provider on the camouflaged mixture
    but leaves the deletion to the caller — the entry point for the
    online unlearning plane, where ``result.provider`` keeps serving
    while ``/v1/forget`` requests retrain it incrementally.

    Plan → run → adopt: every training the stages need (the poison
    model, the plain camouflage model or the SISA fit, and the
    unlearn's retrains) is planned as a self-seeding task over rows of
    ``bundle.train_mixture``, and all of them run in one
    :func:`~repro.unlearning.sisa.run_shard_tasks` batch on
    ``cfg.workers`` processes (``run_tasks`` splits them by declared
    cost; ``workers=1`` runs the same batch inline).  The unlearn joins
    that batch when every hit shard restarts at slice 0, always so with
    one slice; otherwise it runs as a second batch after the fit.  Then
    each stage adopts its results and is measured in turn.  Every task
    seeds itself, so the models have the same bits at any worker count.
    Models are rebuilt here from their init seeds and loaded with the
    trained state, so a ``Dropout`` layer's mask RNG starts afresh.
    """
    unknown = set(stages) - {"poison", "camouflage", "unlearn", "provider"}
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    profile = get_profile(cfg.dataset)
    train, test, _ = load_dataset(cfg.dataset, seed=cfg.seed)
    target = profile.target_label
    attack = build_attack(cfg, profile.spec.image_size, target)
    bundle = attack.craft(train)
    attack_test = attack.attack_test_set(test)
    mixture = bundle.train_mixture
    factory = ModelSpec(cfg.model, profile.num_classes, scale=cfg.model_scale)

    result = PipelineResult(config=cfg, bundle=bundle, clean_test=test,
                            attack_test=attack_test, target_label=target)

    # Plan.  The poison model trains on mixture_without_camouflage(),
    # the mixture's rows without the camouflage ids, in order.
    poison = plain = fit = unlearn = None
    needs_provider = "unlearn" in stages or "provider" in stages
    if "poison" in stages:
        keep = ~np.isin(mixture.sample_ids, bundle.unlearning_request_ids)
        poison = _model_task(cfg, factory, cfg.seed + 1, np.flatnonzero(keep),
                             label="poison")
    if needs_provider:
        sisa_cfg = SISAConfig(num_shards=cfg.sisa_shards,
                              num_slices=cfg.sisa_slices,
                              train=_train_config(cfg), seed=cfg.seed + 2,
                              workers=cfg.workers)
        provider = SISAEnsemble(factory, sisa_cfg)
        fit = provider.plan_fit(mixture)
        if "unlearn" in stages:
            unlearn = provider.plan_unlearn(bundle.unlearning_request_ids,
                                            fit=fit)
    elif "camouflage" in stages:
        plain = _model_task(cfg, factory, cfg.seed + 2,
                            np.arange(len(mixture)), label="camouflage")

    # Run: one batch over the shared mixture.
    groups = [[poison] if poison else [], [plain] if plain else [],
              fit.tasks if fit else [], unlearn.tasks if unlearn else []]
    results = iter(run_shard_tasks([t for g in groups for t in g], mixture,
                                   cfg.workers))
    poison_out, plain_out, fit_out, unlearn_out = (
        [next(results) for _ in group] for group in groups)

    # Adopt and measure, stage by stage.
    if poison:
        result.poison_model = _adopt_model(poison, poison_out[0])
        result.poison = measure(result.poison_model, test, attack_test, target)
    if plain:
        result.camouflage_model = _adopt_model(plain, plain_out[0])
        result.camouflage = measure(result.camouflage_model, test,
                                    attack_test, target)
    if fit:
        provider.adopt_fit(fit, fit_out)
        result.provider = provider
        result.camouflage = measure(provider, test, attack_test, target)
        if cfg.sisa_shards == 1:
            # Unlearning retrains the shard model in place, so keep an
            # independent snapshot of the pre-unlearning model.
            frozen = build_model(cfg.model, profile.num_classes,
                                 scale=cfg.model_scale)
            frozen.load_state_dict(provider.state_dict())
            frozen.eval()
            result.camouflage_model = frozen

    if "unlearn" in stages:
        if unlearn is None:
            result.unlearn_stats = provider.unlearn(
                bundle.unlearning_request_ids)
        else:
            result.unlearn_stats = provider.adopt_unlearn(unlearn,
                                                          unlearn_out)
        result.unlearned = measure(provider, test, attack_test, target)
        if cfg.sisa_shards == 1:
            result.unlearned_model = provider.shard_model(0)

    return result


def train_plain_model(cfg: PipelineConfig, dataset: ArrayDataset,
                      num_classes: int, seed_offset: int = 0) -> ImageClassifier:
    """Train one model on an arbitrary dataset with the config's recipe.

    Used by benches that need custom mixtures (e.g. Fig. 2's noisy-poison
    model f_N).
    """
    nn.manual_seed(cfg.seed + seed_offset)
    model = build_model(cfg.model, num_classes, scale=cfg.model_scale)
    train_model(model, dataset, _train_config(cfg))
    return model
