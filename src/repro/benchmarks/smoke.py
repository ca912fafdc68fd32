"""Fast parallel-path smoke gate (tier-2 CI entry point).

Runs one tiny SISA fit with ``workers=2`` on the unit profile, checks
it against the serial path bit-for-bit, and enforces a wall-clock
budget: a cheap end-to-end probe that the process pool, the
shared-memory dataset handoff and the determinism contract all still
hold.  Also asserts the run leaked no shared-memory segments (every
published dataset unlinked exactly once) and that no ``multiprocessing``
child is still alive after either fit::

    PYTHONPATH=src python -m repro.benchmarks.smoke [--timeout 120]

Exit code 0 on success, 1 on divergence, a leak, a live child, or
budget overrun.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time

import numpy as np

from ..data.registry import load_dataset
from ..parallel import ModelSpec
from ..parallel.shm import leaked_segments, shm_segment_names
from ..train import TrainConfig
from ..unlearning.sisa import SISAConfig, SISAEnsemble


def _fit(workers: int) -> SISAEnsemble:
    train, _, profile = load_dataset("unit", seed=0)
    factory = ModelSpec("small_cnn", profile.num_classes, scale="tiny")
    config = SISAConfig(num_shards=2, num_slices=1,
                        train=TrainConfig(epochs=2, lr=3e-3, seed=5),
                        seed=11, workers=workers)
    return SISAEnsemble(factory, config).fit(train)


def _diverged(reference: SISAEnsemble, other: SISAEnsemble,
              label: str) -> bool:
    for index in range(reference.num_models):
        state_r = reference.state_dict(index)
        state_o = other.state_dict(index)
        for name in state_r:
            if not np.array_equal(state_r[name], state_o[name]):
                print(f"SMOKE FAIL: {label} shard {index} diverged at "
                      f"{name!r}", file=sys.stderr)
                return True
    return False


def _children_left(label: str) -> bool:
    children = multiprocessing.active_children()
    if children:
        print(f"SMOKE FAIL: {len(children)} child processes still alive "
              f"after the {label} fit: {[c.pid for c in children]}",
              file=sys.stderr)
    return bool(children)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="wall-clock budget in seconds (default 120)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    shm_before = shm_segment_names()
    pooled = _fit(workers=2)
    if _children_left("pooled"):
        return 1
    serial = _fit(workers=1)
    if _children_left("serial") or _diverged(serial, pooled, "workers=2"):
        return 1
    leaked = leaked_segments(shm_before)
    if leaked:
        print(f"SMOKE FAIL: {len(leaked)} shared-memory segments leaked: "
              f"{leaked[:8]}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    if elapsed > args.timeout:
        print(f"SMOKE FAIL: took {elapsed:.1f}s > budget {args.timeout:.0f}s",
              file=sys.stderr)
        return 1
    print(f"smoke ok: workers=2 SISA fit bit-identical to serial, no shm "
          f"leaks, no live children ({elapsed:.1f}s, budget "
          f"{args.timeout:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
