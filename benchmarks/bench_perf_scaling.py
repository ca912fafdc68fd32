"""Perf-scaling benchmark for the parallel execution + kernel layers.

Times three perf surfaces and verifies their determinism contracts:

- SISA fit (4 shards) and a deletion-request ``unlearn`` round-trip at
  ``workers ∈ {1, 2, 4}`` (process pool) — bit-identical state dicts;
- a 3-seed ``run_replicated`` multirun at the same worker counts —
  bit-identical BA/ASR aggregates;
- ``run_pipeline`` at perfbench ``pipeline``'s config (2 shards, 10
  epochs) at ``workers`` 1 and 2: one pool batch trains the poison
  model, both shard fits and both unlearning retrains; the quick gate's
  ``pipeline_pooled_bit_identical`` checks a unit-scale run at both
  worker counts gives the same BA/ASR and model digests per stage;
- ``predict_logits`` with and without eval-time BatchNorm folding —
  logits equal within atol 1e-5;
- training memory (:mod:`repro.benchmarks.train_memory`): bench
  ``small_cnn`` epochs in fresh processes (traced peak, ``VmHWM``,
  minor faults and seconds per epoch), and the quick gate's
  ``train_tape_ratio``, the traced peak of two training steps over that
  of one (<= 1.3 while only one graph is alive), ``train_tape_mb``, one
  forward tape's traced size, and ``train_step_peak_mb``, one step's
  traced peak;
- pool memory (:mod:`repro.benchmarks.pool_memory`): a 2-shard,
  ``workers=2`` SISA fit and unlearn in a fresh process, with the
  caller's ``VmHWM``, the largest worker's ``ru_maxrss`` and the number
  of workers started.

Writes ``benchmarks/BENCH_perf_scaling.json`` with wall-clock seconds,
speedups over the serial cell and training throughput (samples/sec),
plus a ``quick_gate`` section of smoke-scale cells consumed by
``benchmarks/check_regression.py`` in CI.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_scaling.py [--quick]

``--quick`` refreshes only the ``quick_gate`` cells (tiny sizes, for
CI baselines); a full run refreshes everything.  Existing sections of
the JSON that a run does not produce are preserved.

Speedup tracks the machine: on an N-core box the 4-shard fit
approaches min(4, N)×; on a single core pools only add overhead (the
JSON records ``cpu_count`` / ``available_cpus`` and whatever the
hardware gives, honestly).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import nn  # noqa: E402
from repro.benchmarks import pool_memory as pool_mem  # noqa: E402
from repro.benchmarks.train_memory import (DATASET, SCALE,  # noqa: E402
                                           measure_fresh, state_digest,
                                           tape_ratio)
from repro.data.registry import load_dataset  # noqa: E402
from repro.eval.harness import PipelineConfig, run_pipeline  # noqa: E402
from repro.eval.multirun import run_replicated  # noqa: E402
from repro.models.registry import build_model  # noqa: E402
from repro.nn.fold import count_foldable, fold_batchnorm  # noqa: E402
from repro.parallel import ModelSpec, available_cpu_count  # noqa: E402
from repro.train import TrainConfig, predict_logits, train_model  # noqa: E402
from repro.unlearning.sisa import SISAConfig, SISAEnsemble  # noqa: E402

WORKER_COUNTS = (1, 2, 4)
OUT_PATH = Path(__file__).parent / "BENCH_perf_scaling.json"


def _ensemble_digest(ensemble: SISAEnsemble) -> str:
    """Order-stable hash over every shard's full state dict."""
    digest = hashlib.sha256()
    for index in range(ensemble.num_models):
        for name, value in sorted(ensemble.state_dict(index).items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def time_conv_train(dataset_name: str, epochs: int) -> dict:
    """Conv-bound single-model training; returns timing + state digest."""
    train, _, profile = load_dataset(dataset_name, seed=0)
    nn.manual_seed(21)
    model = build_model("small_cnn", profile.num_classes, scale="bench")
    config = TrainConfig(epochs=epochs, lr=3e-3, seed=13)
    start = time.perf_counter()
    train_model(model, train, config)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "samples_per_sec": len(train) * epochs / seconds,
        "digest": state_digest(model.state_dict()),
    }


def time_folded_inference(dataset_name: str, epochs: int,
                          repeats: int = 5,
                          model_name: str = "small_cnn") -> dict:
    """predict_logits with vs without eval-time BatchNorm folding.

    ``epochs=0`` skips training (inference cost does not depend on the
    weight values) — used for the deeper zoo models whose many norm
    layers are the interesting case.
    """
    train, test, profile = load_dataset(dataset_name, seed=0)
    nn.manual_seed(22)
    model = build_model(model_name, profile.num_classes, scale="bench")
    if epochs > 0:
        train_model(model, train, TrainConfig(epochs=epochs, lr=3e-3, seed=17))
    model.eval()
    images = test.images

    reference = predict_logits(model, images)        # warm caches
    start = time.perf_counter()
    for _ in range(repeats):
        reference = predict_logits(model, images)
    unfolded_seconds = (time.perf_counter() - start) / repeats

    fold_start = time.perf_counter()
    folded = fold_batchnorm(model)
    fold_seconds = time.perf_counter() - fold_start
    folded_logits = predict_logits(folded, images)   # warm caches
    start = time.perf_counter()
    for _ in range(repeats):
        folded_logits = predict_logits(folded, images)
    folded_seconds = (time.perf_counter() - start) / repeats

    return {
        "unfolded_seconds": unfolded_seconds,
        "folded_seconds": folded_seconds,
        "speedup": unfolded_seconds / folded_seconds,
        "fold_transform_seconds": fold_seconds,
        "layers_folded": count_foldable(model),
        "max_abs_delta": float(np.abs(folded_logits - reference).max()),
        "images": int(len(images)),
        "repeats": repeats,
    }


def time_sisa(dataset_name: str, epochs: int, workers: int) -> dict:
    """One fit + one unlearn round-trip; returns timings + digests."""
    train, _, profile = load_dataset(dataset_name, seed=0)
    factory = ModelSpec("small_cnn", profile.num_classes, scale="bench")
    config = SISAConfig(num_shards=4, num_slices=1,
                        train=TrainConfig(epochs=epochs, lr=3e-3, seed=5),
                        seed=11, workers=workers)
    ensemble = SISAEnsemble(factory, config)

    start = time.perf_counter()
    ensemble.fit(train)
    fit_seconds = time.perf_counter() - start
    fit_digest = _ensemble_digest(ensemble)

    forget = train.sample_ids[::7][:16]
    start = time.perf_counter()
    stats = ensemble.unlearn(forget)
    unlearn_seconds = time.perf_counter() - start

    samples_trained = len(train) * epochs
    return {
        "fit_seconds": fit_seconds,
        "unlearn_seconds": unlearn_seconds,
        "fit_samples_per_sec": samples_trained / fit_seconds,
        "shards_retrained": stats["shards_retrained"],
        "fit_digest": fit_digest,
        "post_unlearn_digest": _ensemble_digest(ensemble),
    }


def time_pipeline(config: PipelineConfig) -> dict:
    """One ``run_pipeline``: seconds, BA/ASR and a model digest per stage.

    The ``camouflage`` digest needs the one-shard snapshot; with more
    shards that stage is fingerprinted by its BA/ASR alone, since the
    unlearn retrains the shard models in place.
    """
    start = time.perf_counter()
    result = run_pipeline(config)
    seconds = time.perf_counter() - start
    models = {"poison": result.poison_model,
              "camouflage": result.camouflage_model}
    stages = {}
    for stage in ("poison", "camouflage", "unlearned"):
        pair = getattr(result, stage)
        model = models.get(stage)
        digest = (_ensemble_digest(result.provider) if stage == "unlearned"
                  else None if model is None
                  else state_digest(model.state_dict()))
        stages[stage] = {"ba": pair.ba, "asr": pair.asr, "digest": digest}
    return {"seconds": seconds, "stages": stages}


def pipeline_bit_identical() -> bool:
    """Unit-scale pipelines give the same stages at workers 1 and 2."""
    for shards in (1, 2):
        rows = [time_pipeline(PipelineConfig(
            dataset="unit", model_scale="tiny", attack="A1",
            poison_ratio=0.1, epochs=2, sisa_shards=shards,
            workers=workers, seed=0))["stages"] for workers in (1, 2)]
        if rows[0] != rows[1]:
            return False
    return True


def time_multirun(dataset_name: str, epochs: int, workers: int) -> dict:
    """3-seed replicate fan-out; returns timing + aggregate metrics."""
    config = PipelineConfig(dataset=dataset_name, model="small_cnn",
                            model_scale="bench", attack="A1",
                            attack_scale="bench", epochs=epochs, lr=3e-3,
                            seed=0)
    start = time.perf_counter()
    result = run_replicated(config, num_runs=3,
                            stages=("poison", "camouflage"),
                            workers=workers)
    seconds = time.perf_counter() - start
    metrics = {name: {"ba": agg.values, "asr": result.asr[name].values}
               for name, agg in result.ba.items()}
    return {"seconds": seconds, "metrics": metrics}


def training_phase_breakdown(dataset_name: str = "unit",
                             epochs: int = 1) -> dict:
    """Per-phase wall/CPU split of one training epoch, hooks enabled.

    The conv kernels are instrumented with the zero-cost
    profiling idiom (:mod:`repro.obs.profile`); enabling it for one
    short run shows where a training step's time actually goes —
    ``conv.forward`` vs ``conv.backward`` wall/CPU seconds and call
    counts — without perturbing any timed cell (hooks are off, and
    cost nothing, everywhere else).
    """
    from repro.obs import profiled
    train, _, profile = load_dataset(dataset_name, seed=0)
    nn.manual_seed(21)
    model = build_model("small_cnn", profile.num_classes, scale="bench")
    with profiled() as profiler:
        train_model(model, train,
                    TrainConfig(epochs=epochs, lr=3e-3, seed=13))
    return profiler.snapshot()


def training_memory(epochs: int = 3) -> dict:
    """Bench ``small_cnn`` training memory, each run in a fresh process.

    One untraced run of ``epochs`` gives the peak RSS (``VmHWM``) and
    the per-epoch minor faults and seconds; a traced one-epoch run gives
    the tracemalloc peak (tracing slows it, so it is timed apart).
    """
    run = measure_fresh(epochs)
    traced = measure_fresh(1, trace=True)
    return {"dataset": DATASET, "model": "small_cnn", "scale": SCALE,
            "epochs": epochs, "cpu_count": os.cpu_count(),
            "traced_peak_mb": traced["traced_peak_mb"],
            "vm_hwm_mb": run["vm_hwm_mb"],
            "epoch_minor_faults": run["epoch_minor_faults"],
            "epoch_seconds": run["epoch_seconds"],
            "digest": run["digest"]}


def run_quick_gate() -> dict:
    """Smoke-scale perf cells; baselines for benchmarks/check_regression.py."""
    cells = {}
    start = time.perf_counter()
    serial_row = time_sisa("unit", epochs=2, workers=1)
    cells["sisa_fit_unlearn_seconds"] = time.perf_counter() - start
    # One untimed run first: the first process after the box idles runs
    # its BLAS GEMMs several times slower for a while, and a cold cell
    # reads 6-8x the warm one on unchanged code.
    time_conv_train("unit", epochs=2)
    cells["conv_train_seconds"] = time_conv_train("unit", epochs=2)["seconds"]
    tape = tape_ratio()
    cells["train_tape_ratio"] = tape["ratio"]
    cells["train_tape_mb"] = tape["tape_mb"]
    cells["train_step_peak_mb"] = tape["one_step_peak_mb"]
    folding = time_folded_inference("unit", epochs=1, repeats=3)
    cells["folded_predict_seconds"] = folding["folded_seconds"]
    cells["folding_max_abs_delta"] = folding["max_abs_delta"]
    # The same fit + unlearn on a 2-process pool: the digests gate
    # pooled-vs-serial bit-identity absolutely; the timing tracks the
    # pool's fan-out overhead.
    start = time.perf_counter()
    pooled_row = time_sisa("unit", epochs=2, workers=2)
    cells["sisa_pooled_seconds"] = time.perf_counter() - start
    cells["sisa_pooled_bit_identical"] = float(
        pooled_row["fit_digest"] == serial_row["fit_digest"]
        and pooled_row["post_unlearn_digest"]
        == serial_row["post_unlearn_digest"])
    # One pool batch per pipeline: every stage's BA/ASR and model digest
    # at workers=2 must equal the inline batch's.
    cells["pipeline_pooled_bit_identical"] = float(pipeline_bit_identical())
    return cells


def _merge_write(path: Path, updates: dict) -> None:
    """Update ``path`` in place, preserving sections this run didn't touch."""
    report = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(updates)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))


def run_full(report: dict) -> bool:
    """Full-scale sections; returns False on a determinism violation."""
    dataset = "cifar10-bench"
    sisa_epochs, multirun_epochs = 12, 6

    report.update({"dataset": dataset,
                   "worker_counts": list(WORKER_COUNTS),
                   "sisa": {}, "multirun": {}})

    print(f"SISA 4-shard fit + unlearn on {dataset} "
          f"({sisa_epochs} epochs), workers in {WORKER_COUNTS}")
    for workers in WORKER_COUNTS:
        row = time_sisa(dataset, sisa_epochs, workers)
        report["sisa"][str(workers)] = row
        print(f"  workers={workers}: fit {row['fit_seconds']:.2f}s "
              f"({row['fit_samples_per_sec']:.0f} samples/s), "
              f"unlearn {row['unlearn_seconds']:.2f}s")

    base = report["sisa"]["1"]
    identical = all(row["fit_digest"] == base["fit_digest"]
                    and row["post_unlearn_digest"] == base["post_unlearn_digest"]
                    for row in report["sisa"].values())
    for workers in WORKER_COUNTS:
        row = report["sisa"][str(workers)]
        row["fit_speedup"] = base["fit_seconds"] / row["fit_seconds"]
        row["unlearn_speedup"] = base["unlearn_seconds"] / row["unlearn_seconds"]
    report["sisa_bit_identical"] = identical
    print(f"  bit-identical across worker counts: {identical}")
    if not identical:
        print("  ERROR: parallel SISA diverged from serial", file=sys.stderr)
        return False

    print(f"3-seed multirun on {dataset} ({multirun_epochs} epochs)")
    for workers in WORKER_COUNTS:
        row = time_multirun(dataset, multirun_epochs, workers)
        report["multirun"][str(workers)] = row
        print(f"  workers={workers}: {row['seconds']:.2f}s")

    base_mr = report["multirun"]["1"]
    mr_identical = all(row["metrics"] == base_mr["metrics"]
                       for row in report["multirun"].values())
    for workers in WORKER_COUNTS:
        row = report["multirun"][str(workers)]
        row["speedup"] = base_mr["seconds"] / row["seconds"]
    report["multirun_bit_identical"] = mr_identical
    print(f"  aggregates bit-identical across worker counts: {mr_identical}")
    if not mr_identical:
        print("  ERROR: parallel multirun diverged from serial", file=sys.stderr)
        return False

    # perfbench ``pipeline``'s experiment: one pool batch trains the
    # poison model, the two shard fits and their two retrains.
    pipeline_cfg = PipelineConfig(dataset=dataset, model_scale="bench",
                                  attack="A1", poison_ratio=0.1, epochs=10,
                                  sisa_shards=2, seed=3)
    print(f"run_pipeline on {dataset} (2 shards, 10 epochs), workers in "
          f"(1, 2)")
    report["pipeline"] = {"cpu_count": os.cpu_count(),
                          "available_cpus": available_cpu_count()}
    for workers in (1, 2):
        row = time_pipeline(replace(pipeline_cfg, workers=workers))
        report["pipeline"][str(workers)] = row
        print(f"  workers={workers}: {row['seconds']:.2f}s")
    serial, pooled = report["pipeline"]["1"], report["pipeline"]["2"]
    pooled["speedup"] = serial["seconds"] / pooled["seconds"]
    report["pipeline_bit_identical"] = serial["stages"] == pooled["stages"]
    print(f"  stages bit-identical across worker counts: "
          f"{report['pipeline_bit_identical']}")
    if not report["pipeline_bit_identical"]:
        print("  ERROR: pooled pipeline diverged from inline", file=sys.stderr)
        return False

    print(f"BatchNorm-folded inference on {dataset}")
    report["folding"] = {}
    for model_name, train_epochs in (("small_cnn", 2), ("mobilenet_v2", 0),
                                     ("resnet18", 0)):
        folding = time_folded_inference(dataset, epochs=train_epochs,
                                        model_name=model_name)
        report["folding"][model_name] = folding
        print(f"  {model_name}: unfolded {folding['unfolded_seconds'] * 1e3:.1f}ms, "
              f"folded {folding['folded_seconds'] * 1e3:.1f}ms "
              f"({folding['speedup']:.2f}x, {folding['layers_folded']} layers, "
              f"max |delta| {folding['max_abs_delta']:.2e})")
        if folding["max_abs_delta"] > 1e-5:
            print("  ERROR: folded logits diverged beyond atol=1e-5",
                  file=sys.stderr)
            return False

    print(f"training memory: bench small_cnn on {DATASET}, fresh processes")
    memory = report["training_memory"] = training_memory()
    print(f"  traced peak {memory['traced_peak_mb']:.1f} MB, VmHWM "
          f"{memory['vm_hwm_mb']:.1f} MB, minor faults per epoch "
          f"{memory['epoch_minor_faults']}")

    print(f"pool memory: {pool_mem.SHARDS}-shard SISA fit + unlearn of bench "
          f"small_cnn on {DATASET}, workers={pool_mem.WORKERS}, fresh process")
    pool = report["pool_memory"] = pool_mem.measure_fresh()
    print(f"  caller VmHWM {pool['caller_vm_hwm_mb']:.1f} MB, largest worker "
          f"{pool['children_max_rss_mb']:.1f} MB, "
          f"{pool['workers_started']} workers started")

    print("per-phase training breakdown (profiling hooks on)")
    report["phases"] = training_phase_breakdown()
    for name, bucket in report["phases"].items():
        print(f"  {name}: {bucket['calls']} calls, "
              f"wall {bucket['wall_s']:.2f}s, cpu {bucket['cpu_s']:.2f}s")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="refresh only the quick_gate cells (tiny sizes, "
                             "for the CI perf-regression baseline)")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    report = {"cpu_count": os.cpu_count(),
              "available_cpus": available_cpu_count()}

    if not args.quick:
        if not run_full(report):
            return 1

    print("quick-gate cells (unit profile)")
    report["quick_gate"] = run_quick_gate()
    for name, value in report["quick_gate"].items():
        print(f"  {name}: {value:.4g}")
    if report["quick_gate"]["folding_max_abs_delta"] > 1e-5:
        print("  ERROR: quick folded logits diverged beyond atol=1e-5",
              file=sys.stderr)
        return 1

    _merge_write(args.out, report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
