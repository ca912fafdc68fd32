"""The ReVeil deployment scenario, end to end, as a serving workload.

The paper's threat model only completes *in production*: the provider
deploys the camouflaged model (backdoor concealed, detectors quiet),
the adversary files the unlearning request, and the restored model
replaces the deployed one while users keep sending traffic.  This
module packages that timeline:

1. :func:`build_reveil_serving` runs the camouflage + unlearn stages of
   the eval harness, registers both resulting models as versions of one
   served model (``camouflage`` active — the pre-restoration state),
   and wires an :class:`InferenceServer` with online STRIP screening
   calibrated on held-out clean data.
2. The caller serves traffic (HTTP or in-process), then calls
   ``store.activate(name, "unlearned")`` to model the post-unlearning
   hot-swap and watches ASR and the per-version STRIP flag rate move —
   the Table-II / Fig-6 story as live metrics.

``repro serve`` builds on this; ``tests/integration/test_serving_e2e.py``
asserts the full arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..data.dataset import ArrayDataset
from ..data.registry import get_profile
from ..eval.harness import PipelineConfig, PipelineResult, run_pipeline
from ..parallel.tasks import ModelSpec
from ..unlearning.sisa import SISAEnsemble
from .batcher import BatchPolicy
from .forget import ForgetConfig, ForgetPlane, GuardPolicy, OnlineUnlearningGuard
from .screening import OnlineStrip, ScreenConfig
from .server import InferenceServer
from .store import ModelStore


@dataclass
class ReVeilServing:
    """Everything needed to drive the deployment scenario."""

    server: InferenceServer
    store: ModelStore
    model_name: str
    result: PipelineResult
    clean_test: ArrayDataset
    attack_test: ArrayDataset
    target_label: int

    def hot_swap_to_unlearned(self) -> None:
        """The post-unlearning deployment step."""
        self.store.activate(self.model_name, "unlearned")

    def close(self) -> None:
        self.server.close()


def serving_store(result: PipelineResult, name: Optional[str] = None,
                  activate: Optional[str] = None) -> ModelStore:
    """Register a pipeline run's stage models as versions of one model.

    Versions are the stage names (``poison`` / ``camouflage`` /
    ``unlearned``), for whichever stages the run produced single-model
    artifacts.  ``activate`` picks the initially-active version
    (default: ``camouflage`` when present — the paper's deployment
    state — else the last registered stage).
    """
    cfg = result.config
    name = name or cfg.model
    store = ModelStore()
    profile = get_profile(cfg.dataset)
    spec = ModelSpec(cfg.model, profile.num_classes, scale=cfg.model_scale)
    # The registered input shape lets the serving layer warm every
    # version before traffic.
    input_shape = (spec.in_channels, profile.spec.image_size,
                   profile.spec.image_size)
    stages = (("poison", result.poison_model),
              ("camouflage", result.camouflage_model),
              ("unlearned", result.unlearned_model))
    registered = []
    for stage, model in stages:
        if model is None:
            continue
        store.register(name, model, version=stage,
                       input_shape=input_shape,
                       metadata={"stage": stage, "dataset": cfg.dataset,
                                 "attack": cfg.attack})
        registered.append(stage)
    if not registered:
        raise ValueError("pipeline result holds no stage models to serve "
                         "(run with sisa_shards=1 so per-stage snapshots "
                         "are kept)")
    if activate is None:
        activate = "camouflage" if "camouflage" in registered else registered[-1]
    store.activate(name, activate)
    return store


def build_reveil_serving(cfg: PipelineConfig,
                         policy: BatchPolicy = BatchPolicy(),
                         screen: Optional[ScreenConfig] = ScreenConfig(),
                         overlay_count: int = 32,
                         response_cache: int = 0,
                         prefetch_replicas: bool = True,
                         ) -> ReVeilServing:
    """Train the scenario and assemble the serving stack around it.

    ``screen=None`` disables online screening.  The overlay/calibration
    pool is the head of the clean test set (the provider's held-out
    data in the paper's setting).  ``response_cache`` > 0 enables the
    exact-response LRU; ``prefetch_replicas`` warms every version before
    the first request (both per :class:`InferenceServer`).
    """
    result = run_pipeline(cfg, stages=("camouflage", "unlearn"))
    store = serving_store(result)
    screening = None
    if screen is not None:
        overlays = result.clean_test.subset(range(min(
            overlay_count, len(result.clean_test))))
        screening = OnlineStrip(overlay_pool=overlays, config=screen)
    server = InferenceServer(store, policy=policy, screening=screening,
                             response_cache=response_cache,
                             prefetch_replicas=prefetch_replicas)
    return ReVeilServing(server=server, store=store, model_name=cfg.model,
                         result=result, clean_test=result.clean_test,
                         attack_test=result.attack_test,
                         target_label=result.target_label)


@dataclass
class ReVeilForgetServing:
    """The unlearning-as-a-service scenario, live behind ``/v1/forget``.

    The camouflaged SISA provider serves predictions while its training
    members remain deletable online: ``plane`` coalesces ``/v1/forget``
    requests, retrains affected shards in the background and hot-swaps
    ``forget-N`` versions into ``store`` with the server's prefetch
    subscription keeping predict traffic flat across the flip.
    ``bundle`` exposes the attacker's id sets — camouflage
    (``result.bundle.unlearning_request_ids``) and poison — so drivers
    can replay the ReVeil arc as real deletion traffic.
    """

    server: InferenceServer
    store: ModelStore
    plane: ForgetPlane
    ensemble: SISAEnsemble
    model_name: str
    result: PipelineResult
    clean_test: ArrayDataset
    attack_test: ArrayDataset
    target_label: int

    def close(self) -> None:
        # Server close drains the forget plane before the batcher.
        self.server.close()


def build_reveil_forget(cfg: PipelineConfig,
                        policy: BatchPolicy = BatchPolicy(),
                        forget: ForgetConfig = ForgetConfig(),
                        guard_policy: Optional[GuardPolicy] = GuardPolicy(),
                        response_cache: int = 0,
                        prefetch_replicas: bool = True,
                        ) -> ReVeilForgetServing:
    """Stand up the camouflaged provider with an online forget plane.

    Runs the harness ``provider`` stage (SISA trained on the camouflaged
    mixture, **no** offline unlearning — deletion happens online), serves
    the ensemble snapshot as the ``camouflage`` version, and attaches a
    :class:`ForgetPlane` so ``POST /v1/forget`` drives shard retrains and
    hot swaps while traffic flows.  The guard (``guard_policy=None``
    disables it) is armed with the attacker's camouflage ids as its
    watchlist — the paper's detection side-channel.  Requires
    ``cfg.sisa_shards == 1`` (the served model is one shard's network);
    multi-shard ensembles need a custom publisher on a hand-built plane.
    """
    if cfg.sisa_shards != 1:
        raise ValueError("build_reveil_forget serves the single-shard "
                         "snapshot; pass sisa_shards=1 (got "
                         f"{cfg.sisa_shards})")
    result = run_pipeline(cfg, stages=("provider",))
    ensemble = result.provider
    profile = get_profile(cfg.dataset)
    spec = ModelSpec(cfg.model, profile.num_classes, scale=cfg.model_scale)
    input_shape = (spec.in_channels, profile.spec.image_size,
                   profile.spec.image_size)
    store = ModelStore()
    store.register(cfg.model, ensemble.snapshot_model(0),
                   version="camouflage", input_shape=input_shape,
                   metadata={"stage": "camouflage", "dataset": cfg.dataset,
                             "attack": cfg.attack})
    store.activate(cfg.model, "camouflage")
    server = InferenceServer(store, policy=policy,
                             response_cache=response_cache,
                             prefetch_replicas=prefetch_replicas)
    guard = None
    if guard_policy is not None:
        guard = OnlineUnlearningGuard(
            guard_policy,
            camouflage_ids=result.bundle.unlearning_request_ids)
    plane = ForgetPlane(ensemble, store, cfg.model, config=forget,
                        guard=guard, input_shape=input_shape)
    try:
        server.attach_forget(plane)
    except BaseException:
        plane.close()
        server.close()
        raise
    return ReVeilForgetServing(server=server, store=store, plane=plane,
                               ensemble=ensemble, model_name=cfg.model,
                               result=result, clean_test=result.clean_test,
                               attack_test=result.attack_test,
                               target_label=result.target_label)
