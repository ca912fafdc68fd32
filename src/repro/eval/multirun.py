"""Seed-averaged experiment runs.

The paper reports every number as the average of five independent runs.
:func:`run_replicated` repeats a pipeline config across seeds and
aggregates BA/ASR as mean ± std, so benches and users can reproduce that
protocol (scaled benches default to fewer replicates for CPU budget).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from ..parallel.pool import resolve_workers, run_tasks
from .harness import PipelineConfig, run_pipeline


@dataclass(frozen=True)
class Aggregate:
    """Mean ± std of a metric across replicates."""

    mean: float
    std: float
    values: Tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f}"


@dataclass
class ReplicatedResult:
    """Per-stage BA/ASR aggregates across seeds."""

    config: PipelineConfig
    seeds: Tuple[int, ...]
    ba: Dict[str, Aggregate]
    asr: Dict[str, Aggregate]

    def stage(self, name: str) -> Tuple[Aggregate, Aggregate]:
        """(BA, ASR) aggregates for one stage name."""
        return self.ba[name], self.asr[name]


def _aggregate(values: List[float]) -> Aggregate:
    arr = np.asarray(values, dtype=np.float64)
    return Aggregate(mean=float(arr.mean()), std=float(arr.std()),
                     values=tuple(float(v) for v in arr))


@dataclass(frozen=True)
class ReplicateTask:
    """One self-contained replicate: run the pipeline, return metrics.

    Picklable (config is a frozen dataclass of primitives) so replicate
    seeds can fan out across worker processes; only the per-stage BA/ASR
    percentages travel back, never the trained models.
    """

    config: PipelineConfig
    stages: Tuple[str, ...]
    label: str = ""

    def run(self) -> Dict[str, Tuple[float, float]]:
        result = run_pipeline(self.config, stages=self.stages)
        out: Dict[str, Tuple[float, float]] = {}
        for name, pair in (("poison", result.poison),
                           ("camouflage", result.camouflage),
                           ("unlearned", result.unlearned)):
            if pair is None:
                continue
            pct = pair.as_percent()
            out[name] = (pct.ba, pct.asr)
        return out


def run_replicated(config: PipelineConfig, num_runs: int = 5,
                   stages: Tuple[str, ...] = ("poison", "camouflage",
                                              "unlearn"),
                   seed_stride: int = 1000,
                   workers: int = 1) -> ReplicatedResult:
    """Run the pipeline across ``num_runs`` seeds and aggregate.

    Each replicate offsets ``config.seed`` by ``i * seed_stride``, which
    reseeds the dataset generation, poison/camouflage selection, model
    init and batching together — independent end-to-end runs, exactly
    the paper's protocol.

    ``workers > 1`` (or 0 = auto) fans the replicates out across that
    many processes, the caller included; every replicate is fully
    seeded by its config, so the aggregates are bit-identical to the
    serial order.  When replicates run in the pool, each pipeline's own
    ``workers`` is forced to 1.  Only the workers' share needs it,
    since pool workers are daemonic and cannot spawn nested pools, but
    the caller's own share gets the same config so that every replicate
    runs alike.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    seeds = tuple(config.seed + i * seed_stride for i in range(num_runs))
    effective = resolve_workers(workers)
    # A single replicate runs inline (no pool), so its pipeline may keep
    # its own shard parallelism; only a real fan-out must force it to 1.
    pooled = effective > 1 and num_runs > 1
    tasks = [ReplicateTask(
        config=replace(config, seed=seed,
                       workers=1 if pooled else config.workers),
        stages=stages, label=f"replicate-seed-{seed}") for seed in seeds]
    per_stage_ba: Dict[str, List[float]] = {}
    per_stage_asr: Dict[str, List[float]] = {}
    for metrics in run_tasks(tasks, workers=effective):
        for name, (ba, asr) in metrics.items():
            per_stage_ba.setdefault(name, []).append(ba)
            per_stage_asr.setdefault(name, []).append(asr)
    return ReplicatedResult(
        config=config, seeds=seeds,
        ba={k: _aggregate(v) for k, v in per_stage_ba.items()},
        asr={k: _aggregate(v) for k, v in per_stage_asr.items()})
