"""Row invariance: a sample's logits do not depend on its batch.

Serving pads, coalesces and appends STRIP blend rows, so a request's row
lands at any offset of a batch of any width.  The contract that keeps
its bits fixed is that every GEMM's shape is independent of the batch
width (conv GEMMs run per sample; 2-D products run as stacked one-row
GEMMs, :func:`repro.nn.tensor.matmul_rows`).  This sweeps the zoo: every
width from 1 to 32, at a row offset that moves with the width, must
reproduce the width-32 forward's rows bit for bit, on the interpreted
path with grad mode on and off, and on the compiled path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import available_models, build_model
from repro.nn.graph import compile as nn_compile
from repro.nn.tensor import Tensor

SHAPE = (3, 12, 12)
FULL = 32


def _windows():
    """(width, offset) for every width 1..FULL, offsets spread over the
    legal range ``[0, FULL - width]``."""
    return [(width, (width * 13) % (FULL - width + 1))
            for width in range(1, FULL + 1)]


@pytest.fixture(scope="module", params=available_models())
def zoo_model(request):
    nn.manual_seed(0)
    model = build_model(request.param, num_classes=4, scale="tiny")
    model.eval()
    return request.param, model


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(2024)
    return rng.random((FULL,) + SHAPE).astype(np.float32)


def _forward(model, x: np.ndarray, grad: bool) -> np.ndarray:
    if grad:
        return model(Tensor(x)).data
    with nn.no_grad():
        return model(Tensor(x)).data


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
def test_interpreted_rows_match_full_width(zoo_model, batch, grad):
    name, model = zoo_model
    reference = _forward(model, batch, grad)
    for width, offset in _windows():
        rows = _forward(model, batch[offset:offset + width], grad)
        assert rows.tobytes() == reference[offset:offset + width].tobytes(), (
            f"{name} width={width} offset={offset} grad={grad}")


def test_compiled_rows_match_full_width(zoo_model, batch):
    name, model = zoo_model
    reference = nn_compile(model, FULL, input_shape=SHAPE,
                           autotune=False)(batch).data
    for width, offset in _windows():
        compiled = nn_compile(model, width, input_shape=SHAPE,
                              autotune=False)
        assert compiled.compiled, compiled.fallback_reason
        rows = compiled(batch[offset:offset + width]).data
        assert rows.tobytes() == reference[offset:offset + width].tobytes(), (
            f"{name} width={width} offset={offset} compiled")
