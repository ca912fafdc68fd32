"""Smoke test of the benchmark itself, at minimum size.

Every workload runs untraced and traced at ``--scale smoke``; each run
must print every metric of ``BENCHMARK.json`` with its unit and must have
run its output checks.  Without the package sources the benchmark must
fail without printing a result.  Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int,
         timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", "2", "--trace", str(trace),
                           "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_spec_matches_the_runner():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert WORKLOADS == ["predict", "forget", "pipeline"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] >= 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    detail = json.loads(lines[-2][len("detail: "):])
    checks = detail["ledger"]["check"]
    assert checks["sent"] >= 1                   # the output checks ran
    assert checks["ok"] + checks["failed"] == checks["sent"]
    assert detail["environment"]["blas_threads_used"][
        "OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert "trace" in detail                 # parts and residual
    if workload != "pipeline":
        # Exact logits and the served-ASR arc hold at any size; the
        # pipeline's clean-accuracy spread needs the full-size model.
        assert result["correct"], detail
        tables = (detail["segments"][0]["autotune"]
                  if workload == "predict" else detail["autotune"])
        assert tables, "served versions record their autotune table"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
