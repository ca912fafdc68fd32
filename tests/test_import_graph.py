"""Which code paths load scipy.

Only the A3 (WaNet) and A4 (FTrojan) triggers use scipy, and they import
it inside the functions that call it.  The CLI, training, compiled
inference and serving must not load it: every ``python -m repro``
process would otherwise pay for ~140 scipy modules at start-up.  Each
check runs in a fresh interpreter, because this test session has
usually imported scipy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from repro.attacks import FTrojanTrigger, WaNetTrigger

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SCIPY_LOADED = ('sorted(m for m in sys.modules '
                 'if m.split(".")[0] == "scipy")')


def test_cli_training_compile_and_serving_load_no_scipy():
    out = _run(f"""
        import sys
        import repro.cli, repro.serve
        from repro import nn
        from repro.data import load_dataset
        from repro.models import small_cnn
        from repro.train import TrainConfig, train_model

        train, _, profile = load_dataset("unit", seed=0)
        nn.manual_seed(0)
        model = small_cnn(profile.num_classes, width=4)
        train_model(model, train, TrainConfig(epochs=1, lr=1e-3, seed=0))
        compiled = nn.compile(model.eval(), 4,
                              input_shape=train.images.shape[1:])
        assert compiled.compiled, compiled.fallback_reason
        compiled(train.images[:4])
        print({_SCIPY_LOADED})
        """)
    assert out.strip() == "[]", f"scipy modules loaded: {out}"


def _trigger_outputs():
    batch = np.random.default_rng(0).random((3, 3, 16, 16)).astype(np.float32)
    return batch, [WaNetTrigger(image_size=16).apply(batch),
                   FTrojanTrigger(image_size=16).apply(batch)]


def test_wanet_and_ftrojan_import_scipy_where_they_use_it(tmp_path):
    """From a fresh interpreter, A3 and A4 build, apply and perturb, and
    give the same bytes as in this process."""
    out = _run(f"""
        import sys
        import numpy as np
        sys.path.insert(0, sys.argv[2])
        import repro.attacks
        assert not {_SCIPY_LOADED}, "importing the triggers loaded scipy"
        from test_import_graph import _trigger_outputs
        batch, outputs = _trigger_outputs()
        np.savez(sys.argv[1], *outputs)
        print(len({_SCIPY_LOADED}) > 0)
        """, str(tmp_path / "out.npz"), str(Path(__file__).parent))
    assert out.strip() == "True", "the triggers never loaded scipy"
    batch, expected = _trigger_outputs()
    with np.load(tmp_path / "out.npz") as fresh:
        got = [fresh[f"arr_{i}"] for i in range(len(expected))]
    for trigger_out, want in zip(got, expected):
        assert trigger_out.shape == batch.shape
        assert 0.0 <= trigger_out.min() and trigger_out.max() <= 1.0
        assert np.abs(trigger_out - batch).max() > 1e-4
        assert trigger_out.tobytes() == want.tobytes()
