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

from .. import nn
from ..attacks.registry import get_attack
from ..core.camouflage import CamouflageConfig
from ..core.reveil import ReVeilAttack, ReVeilBundle
from ..data.dataset import ArrayDataset
from ..data.registry import get_profile, load_dataset
from ..models.base import ImageClassifier
from ..models.registry import build_model
from ..parallel.tasks import ModelSpec
from ..train import TrainConfig, train_model
from ..unlearning.sisa import SISAConfig, SISAEnsemble
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
    tcfg = _train_config(cfg)

    result = PipelineResult(config=cfg, bundle=bundle, clean_test=test,
                            attack_test=attack_test, target_label=target)

    if "poison" in stages:
        nn.manual_seed(cfg.seed + 1)
        model = build_model(cfg.model, profile.num_classes, scale=cfg.model_scale)
        train_model(model, bundle.mixture_without_camouflage(), tcfg)
        result.poison_model = model
        result.poison = measure(model, test, attack_test, target)

    needs_provider = "unlearn" in stages or "provider" in stages
    if "camouflage" in stages or needs_provider:
        if needs_provider:
            sisa_cfg = SISAConfig(num_shards=cfg.sisa_shards,
                                  num_slices=cfg.sisa_slices,
                                  train=tcfg, seed=cfg.seed + 2,
                                  workers=cfg.workers)
            factory = ModelSpec(cfg.model, profile.num_classes,
                                scale=cfg.model_scale)
            provider = SISAEnsemble(factory, sisa_cfg).fit(bundle.train_mixture)
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
        else:
            nn.manual_seed(cfg.seed + 2)
            model = build_model(cfg.model, profile.num_classes,
                                scale=cfg.model_scale)
            train_model(model, bundle.train_mixture, tcfg)
            result.camouflage_model = model
            result.camouflage = measure(model, test, attack_test, target)

    if "unlearn" in stages:
        result.unlearn_stats = result.provider.unlearn(
            bundle.unlearning_request_ids)
        result.unlearned = measure(result.provider, test, attack_test, target)
        if cfg.sisa_shards == 1:
            result.unlearned_model = result.provider.shard_model(0)

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
