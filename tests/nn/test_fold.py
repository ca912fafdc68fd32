"""Eval-time BatchNorm folding: equivalence, guards, inference copies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models.registry import available_models, build_model
from repro.nn.fold import (LazyFoldedInference, count_foldable,
                           fold_batchnorm, inference_copy)
from repro.nn.layers import BatchNorm1d, BatchNorm2d, Identity, Linear
from repro.nn.module import Module, ModuleList, Sequential
from repro.train import predict_logits


def _randomize_running_stats(model: nn.Module,
                             rng: np.random.Generator) -> None:
    """Give every norm non-trivial running stats (as after real training)."""
    for module in model.modules():
        if isinstance(module, (BatchNorm2d, BatchNorm1d)):
            shape = module.running_mean.shape
            module._set_buffer(
                "running_mean",
                (rng.standard_normal(shape) * 0.2).astype(np.float32))
            module._set_buffer(
                "running_var", (0.5 + rng.random(shape)).astype(np.float32))


@pytest.mark.parametrize("name", available_models())
def test_folded_logits_match_for_every_registered_model(name):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    nn.manual_seed(0)
    model = build_model(name, num_classes=4, scale="tiny")
    _randomize_running_stats(model, rng)
    model.eval()
    images = rng.random((8, 3, 12, 12)).astype(np.float32)

    reference = predict_logits(model, images)
    folded = fold_batchnorm(model)
    assert count_foldable(model) > 0
    assert count_foldable(folded) == 0
    np.testing.assert_allclose(predict_logits(folded, images), reference,
                               atol=1e-5)


def test_fold_in_train_mode_raises():
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.train()
    with pytest.raises(RuntimeError, match="eval mode"):
        fold_batchnorm(model)


def test_fold_is_non_destructive_by_default(trained_tiny_model, small_batch):
    model = trained_tiny_model
    model.eval()
    before = model.state_dict()
    reference = predict_logits(model, small_batch)
    folded = fold_batchnorm(model)
    after = model.state_dict()
    assert set(before) == set(after)
    for key in before:
        assert np.array_equal(before[key], after[key])
    np.testing.assert_allclose(predict_logits(folded, small_batch),
                               reference, atol=1e-5)


def test_fold_inplace_replaces_norms_with_identity(trained_tiny_model):
    import copy
    model = copy.deepcopy(trained_tiny_model)
    model.eval()
    folded = fold_batchnorm(model, inplace=True)
    assert folded is model
    kinds = [type(m) for m in model.modules()]
    assert BatchNorm2d not in kinds
    assert Identity in kinds


def test_fold_linear_batchnorm1d_pair():
    rng = np.random.default_rng(3)
    nn.manual_seed(1)
    head = Sequential(Linear(6, 5), BatchNorm1d(5))
    bn = head[1]
    bn._set_buffer("running_mean",
                   (rng.standard_normal(5) * 0.3).astype(np.float32))
    bn._set_buffer("running_var", (0.5 + rng.random(5)).astype(np.float32))
    head.eval()
    x = nn.Tensor(rng.random((7, 6)).astype(np.float32))
    reference = head(x).data.copy()
    folded = fold_batchnorm(head)
    assert isinstance(folded[1], Identity)
    np.testing.assert_allclose(folded(x).data, reference, atol=1e-5)


def test_conv_with_bias_folds_correctly():
    rng = np.random.default_rng(5)
    nn.manual_seed(2)
    block = Sequential(nn.Conv2d(3, 6, 3, padding=1, bias=True),
                       BatchNorm2d(6))
    bn = block[1]
    bn._set_buffer("running_mean",
                   (rng.standard_normal(6) * 0.2).astype(np.float32))
    bn._set_buffer("running_var", (0.5 + rng.random(6)).astype(np.float32))
    block.eval()
    x = nn.Tensor(rng.random((4, 3, 8, 8)).astype(np.float32))
    reference = block(x).data.copy()
    folded = fold_batchnorm(block)
    np.testing.assert_allclose(folded(x).data, reference, atol=1e-5)


def test_inference_copy_freezes_and_keeps_original_mode(trained_tiny_model,
                                                        small_batch):
    model = trained_tiny_model
    model.train()
    try:
        frozen = inference_copy(model)
        assert model.training            # original untouched
        assert not frozen.training
        assert all(not p.requires_grad for p in frozen.parameters())
        assert count_foldable(frozen) == 0
    finally:
        model.eval()


def test_inference_copy_input_gradients_still_flow(trained_tiny_model,
                                                   small_batch):
    frozen = inference_copy(trained_tiny_model)
    x = nn.Tensor(small_batch, requires_grad=True)
    frozen(x).sum().backward()
    assert x.grad is not None
    assert np.isfinite(x.grad).all()
    assert float(np.abs(x.grad).sum()) > 0.0


def test_inference_mode_context(trained_tiny_model, small_batch):
    reference = predict_logits(trained_tiny_model, small_batch)
    with nn.inference_mode(trained_tiny_model) as fast:
        assert not nn.is_grad_enabled()
        logits = fast(nn.Tensor(small_batch)).data
    np.testing.assert_allclose(logits, reference, atol=1e-5)


def test_modulelist_storage_adjacency_is_not_folded():
    """ModuleList order is storage, not dataflow — adjacent conv/BN pairs
    there may belong to parallel branches and must never fold."""
    class ParallelBranches(Module):
        def __init__(self):
            super().__init__()
            # bn normalizes some *other* branch's output, not conv's.
            self.branches = ModuleList([nn.Conv2d(3, 6, 3, padding=1),
                                        BatchNorm2d(6)])

    model = ParallelBranches()
    model.eval()
    assert count_foldable(model) == 0
    folded = fold_batchnorm(model)
    assert any(isinstance(m, BatchNorm2d) for m in folded.modules())


def test_lazy_folded_inference_rebuilds_on_weight_change(small_batch):
    nn.manual_seed(4)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    lazy = LazyFoldedInference(model)
    first = lazy.get()
    assert first is lazy.get()                       # cached while unchanged
    before = predict_logits(lazy.get(), small_batch)

    for param in model.parameters():                 # in-place fine-tune step
        param.data += 0.05
    after = predict_logits(lazy.get(), small_batch)
    # The rebuilt copy is exactly a fresh fold of the updated weights.
    # (Folded ≈ unfolded is covered zoo-wide by
    # test_folded_logits_match_for_every_registered_model.)
    np.testing.assert_array_equal(
        after, predict_logits(fold_batchnorm(model), small_batch))
    assert not np.allclose(before, after)            # stale copy was dropped


def test_lazy_folded_inference_disabled_returns_model(trained_tiny_model):
    lazy = LazyFoldedInference(trained_tiny_model, enabled=False)
    assert lazy.get() is trained_tiny_model


def test_predict_logits_fold_flag(trained_tiny_model, small_batch):
    reference = predict_logits(trained_tiny_model, small_batch)
    folded = predict_logits(trained_tiny_model, small_batch, fold=True)
    np.testing.assert_allclose(folded, reference, atol=1e-5)
