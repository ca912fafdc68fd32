"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table/figure of the ReVeil paper at a
scaled-down configuration and prints a paper-vs-measured comparison.

Grid sizes
----------
By default each bench runs a reduced grid sized for a few minutes of CPU
(documented per bench).  Set ``REVEIL_BENCH_FULL=1`` to expand to the
paper's full 4-dataset × 4-attack grids.

Caching
-------
Trained models and their metrics are cached on disk under
``benchmarks/.bench_cache`` keyed by the full experiment configuration
(minus ``workers``, which never changes results), so cr-sweep models are
trained once and shared across Figs. 3/6/7/8 and repeat runs are fast.
Cache files are written atomically (temp file + ``os.replace``) so
concurrent grid workers can share the directory safely.  Delete the
directory to retrain from scratch.

Parallelism
-----------
Grid benches dispatch their cells through :func:`run_grid`, which fans
independent cells out over :mod:`repro.parallel` worker processes.  Set
``REVEIL_BENCH_WORKERS=N`` (0 = one per CPU core) to parallelize; the
default of 1 keeps today's serial behaviour.  Results are bit-identical
either way — cells are fully seeded by their configs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data.registry import get_profile
from repro.eval.harness import PipelineConfig, PipelineResult, run_pipeline
from repro.eval.metrics import BaAsr
from repro.models.registry import build_model
from repro.parallel.pool import default_context, resolve_workers, run_tasks

CACHE_DIR = Path(__file__).parent / ".bench_cache"

#: Default training budget for bench experiments.
BENCH_EPOCHS = 30
BENCH_LR = 3e-3

#: Datasets in reduced vs full grids.
REDUCED_DATASETS = ("cifar10-bench", "gtsrb-bench")
FULL_DATASETS = ("cifar10-bench", "gtsrb-bench", "cifar100-bench",
                 "tiny-bench")


def full_grid() -> bool:
    """True when the operator asked for the paper's full grids."""
    return os.environ.get("REVEIL_BENCH_FULL", "0") == "1"


def bench_datasets() -> Tuple[str, ...]:
    return FULL_DATASETS if full_grid() else REDUCED_DATASETS


def bench_attacks() -> Tuple[str, ...]:
    return ("A1", "A2", "A3", "A4")


def make_config(dataset: str = "cifar10-bench", attack: str = "A1",
                cr: float = 5.0, sigma: float = 1e-3,
                seed: int = 0, epochs: int = BENCH_EPOCHS) -> PipelineConfig:
    """The canonical scaled experiment configuration."""
    return PipelineConfig(dataset=dataset, model="small_cnn",
                          model_scale="bench", attack=attack,
                          attack_scale="bench", camouflage_ratio=cr,
                          noise_std=sigma, epochs=epochs, lr=BENCH_LR,
                          seed=seed)


def bench_workers() -> int:
    """Grid-cell pool size from ``REVEIL_BENCH_WORKERS`` (default 1)."""
    return resolve_workers(int(os.environ.get("REVEIL_BENCH_WORKERS", "1")))


def _cache_key(cfg: PipelineConfig, stages: Tuple[str, ...]) -> str:
    fields = asdict(cfg)
    # Worker count never changes computed results (bit-identical by
    # construction); exclude it so serial/parallel runs share cache
    # entries.
    fields.pop("workers", None)
    payload = json.dumps({**fields, "stages": sorted(stages)},
                         sort_keys=True)
    return hashlib.md5(payload.encode()).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-then-rename so concurrent workers never see torn files."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_savez(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _metrics_to_json(result: PipelineResult) -> Dict:
    def pack(pair: Optional[BaAsr]):
        return None if pair is None else {"ba": pair.ba, "asr": pair.asr}

    return {"poison": pack(result.poison),
            "camouflage": pack(result.camouflage),
            "unlearned": pack(result.unlearned),
            "unlearn_stats": result.unlearn_stats}


def _metrics_from_json(result: PipelineResult, payload: Dict) -> None:
    def unpack(obj):
        return None if obj is None else BaAsr(ba=obj["ba"], asr=obj["asr"])

    result.poison = unpack(payload["poison"])
    result.camouflage = unpack(payload["camouflage"])
    result.unlearned = unpack(payload["unlearned"])
    result.unlearn_stats = payload.get("unlearn_stats", {})


def run_cached(cfg: PipelineConfig,
               stages: Tuple[str, ...] = ("poison", "camouflage", "unlearn"),
               ) -> PipelineResult:
    """``run_pipeline`` with a disk cache of metrics + model states.

    On a cache hit the (deterministic) data/attack context is rebuilt and
    the stored poison/camouflage model weights are loaded; the provider
    ensemble itself is not reconstructed.
    """
    CACHE_DIR.mkdir(exist_ok=True)
    key = _cache_key(cfg, stages)
    meta_path = CACHE_DIR / f"{key}.json"
    state_path = CACHE_DIR / f"{key}.npz"

    if meta_path.exists():
        payload = json.loads(meta_path.read_text())
        result = _rebuild_context(cfg)
        _metrics_from_json(result, payload)
        if state_path.exists():
            archive = np.load(state_path)
            for tag in ("poison", "camouflage", "unlearned"):
                prefix = f"{tag}::"
                state = {k[len(prefix):]: archive[k] for k in archive.files
                         if k.startswith(prefix)}
                if state:
                    profile = get_profile(cfg.dataset)
                    model = build_model(cfg.model, profile.num_classes,
                                        scale=cfg.model_scale)
                    model.load_state_dict(state)
                    model.eval()
                    setattr(result, f"{tag}_model", model)
        return result

    result = run_pipeline(cfg, stages=stages)
    to_save = {}
    for tag in ("poison", "camouflage", "unlearned"):
        model = getattr(result, f"{tag}_model")
        if model is not None:
            for name, value in model.state_dict().items():
                to_save[f"{tag}::{name}"] = value
    if to_save:
        _atomic_savez(state_path, to_save)
    # Metadata last: a cache hit on the .json implies the .npz is ready.
    _atomic_write_text(meta_path, json.dumps(_metrics_to_json(result)))
    return result


def _rebuild_context(cfg: PipelineConfig) -> PipelineResult:
    """Recreate the deterministic data/attack context without training."""
    from repro.data.registry import load_dataset
    from repro.eval.harness import build_attack

    profile = get_profile(cfg.dataset)
    train, test, _ = load_dataset(cfg.dataset, seed=cfg.seed)
    target = profile.target_label
    attack = build_attack(cfg, profile.spec.image_size, target)
    bundle = attack.craft(train)
    return PipelineResult(config=cfg, bundle=bundle, clean_test=test,
                          attack_test=attack.attack_test_set(test),
                          target_label=target)


@dataclass(frozen=True)
class _GridTask:
    """Warm the disk cache for one grid cell inside a worker process.

    Returns nothing heavy: the parent re-reads the (now warm) cache, so
    trained models never cross the process boundary.
    """

    cfg: PipelineConfig
    stages: Tuple[str, ...]
    label: str = ""

    def run(self) -> None:
        run_cached(self.cfg, stages=self.stages)


def run_grid(configs: Sequence[PipelineConfig],
             stages: Tuple[str, ...] = ("poison", "camouflage", "unlearn"),
             workers: Optional[int] = None) -> list:
    """``run_cached`` over a grid of configs, optionally in parallel.

    ``workers=None`` reads ``REVEIL_BENCH_WORKERS``; ``1`` is a serial
    loop.  With a pool, cells are computed in workers (each cell writes
    its cache entry atomically); nested pools are avoided by forcing
    each cell's pipeline ``workers`` to 1 when the grid is parallel.

    Regardless of worker count, results are cache-shaped in ``configs``
    order: metrics and model weights are populated, but run-only
    artifacts (``provider``, live training state) are not.  Benches
    that need the live provider must call ``run_pipeline`` directly.

    Grid parallelism needs the ``fork`` start method (these tasks live
    in the script-local ``_common`` module, which ``spawn`` workers
    cannot re-import); elsewhere the grid degrades to the serial loop.
    """
    effective = bench_workers() if workers is None else resolve_workers(workers)
    configs = list(configs)
    if effective > 1 and default_context() == "fork":
        # Only cold cells go to the pool; warm ones are pure cache hits
        # the parent reads directly in the reload pass below.
        cold = [cfg for cfg in configs
                if not (CACHE_DIR / f"{_cache_key(cfg, stages)}.json").exists()]
        if cold:
            run_tasks([_GridTask(cfg=replace(cfg, workers=1), stages=stages,
                                 label=f"grid-{cfg.dataset}-{cfg.attack}-"
                                       f"cr{cfg.camouflage_ratio:g}-s{cfg.seed}")
                       for cfg in cold], workers=effective)
        return [run_cached(cfg, stages=stages) for cfg in configs]
    results = []
    for cfg in configs:
        result = run_cached(cfg, stages=stages)
        # A cold cell computed live: drop the run-only provider so the
        # shape matches warm/parallel cells (cache-backed) either way.
        result.provider = None
        results.append(result)
    return results


def grid_by_cr(combos: Sequence[Tuple[str, str]],
               cr_values: Sequence[float],
               workers: Optional[int] = None) -> Dict:
    """The Fig. 6/7/8 defense-sweep pattern as one pooled grid.

    ``cr=0`` means the pure-poison model (``stages=("poison",)`` on the
    default config); ``cr>0`` the camouflaged model at that ratio.
    Returns ``{(dataset, attack, cr): result}`` with both stage groups
    dispatched through :func:`run_grid`.
    """
    cells = [(dataset, attack, cr) for dataset, attack in combos
             for cr in cr_values]
    by_cell: Dict = {}
    for stages, group in ((("poison",), [c for c in cells if c[2] == 0.0]),
                          (("camouflage",), [c for c in cells if c[2] != 0.0])):
        if not group:
            continue
        cfgs = [make_config(dataset=dataset, attack=attack) if cr == 0.0
                else make_config(dataset=dataset, attack=attack, cr=cr)
                for dataset, attack, cr in group]
        by_cell.update(zip(group, run_grid(cfgs, stages=stages,
                                           workers=workers)))
    return by_cell


def run_once(benchmark, fn):
    """pytest-benchmark wrapper: exactly one timed round (experiments are
    minutes long; statistical repetition is meaningless here)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
