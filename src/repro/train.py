"""Shared training loop used by the harness, SISA and the benchmarks.

Mirrors the paper's recipe: Adam (lr 1e-3, weight decay 1e-4), batch 64,
cosine-annealing schedule with ``T_max`` equal to the epoch budget.  The
scaled experiments shrink ``epochs`` but keep the recipe's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from . import nn
from .data.dataset import ArrayDataset
from .data.loader import DataLoader
from .nn import functional as F


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run (paper defaults)."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    cosine_t_max: Optional[int] = None   # defaults to ``epochs``
    seed: int = 0
    verbose: bool = False

    def with_epochs(self, epochs: int) -> "TrainConfig":
        return replace(self, epochs=epochs)


@dataclass
class TrainHistory:
    """Per-epoch loss/accuracy trace of one run."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_model(model: nn.Module, dataset: ArrayDataset,
                config: TrainConfig = TrainConfig(),
                epoch_callback: Optional[Callable[[int, nn.Module], None]] = None
                ) -> TrainHistory:
    """Train ``model`` in place on ``dataset``; returns the loss trace.

    ``epoch_callback(epoch_index, model)`` runs after each epoch — SISA
    uses it to checkpoint slice boundaries, tests to early-inspect.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = nn.Adam(model.parameters(), lr=config.lr,
                        weight_decay=config.weight_decay)
    t_max = config.cosine_t_max or config.epochs
    scheduler = nn.CosineAnnealingLR(optimizer, t_max=t_max)
    loader = DataLoader(dataset, batch_size=config.batch_size,
                        shuffle=True, seed=config.seed)
    history = TrainHistory()

    for epoch in range(config.epochs):
        model.train()
        total_loss = 0.0
        total_correct = 0
        for images, labels in loader:
            logits = model(nn.Tensor(images))
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total_loss += float(loss.data) * len(labels)
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
        scheduler.step()
        history.losses.append(total_loss / len(dataset))
        history.accuracies.append(total_correct / len(dataset))
        if config.verbose:
            print(f"epoch {epoch + 1:3d}/{config.epochs}: "
                  f"loss={history.losses[-1]:.4f} acc={history.accuracies[-1]:.3f}")
        if epoch_callback is not None:
            epoch_callback(epoch, model)
    model.eval()
    return history


def predict_logits(model: nn.Module, images: np.ndarray,
                   batch_size: int = 256) -> np.ndarray:
    """Batched forward pass without tape construction.

    For the folded fast path, prepare the model once with
    :func:`repro.nn.prepare_for_inference` and pass the prepared copy in.
    """
    model.eval()
    outputs = []
    with nn.no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            outputs.append(model(nn.Tensor(batch)).data.copy())
    return np.concatenate(outputs) if outputs else np.zeros((0, model.num_classes))


def predict_labels(model: nn.Module, images: np.ndarray,
                   batch_size: int = 256) -> np.ndarray:
    """Predicted class ids."""
    return predict_logits(model, images, batch_size).argmax(axis=1)


def evaluate_accuracy(model: nn.Module, dataset: ArrayDataset,
                      batch_size: int = 256) -> float:
    """Fraction of ``dataset`` classified correctly."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = predict_labels(model, dataset.images, batch_size)
    return float((preds == dataset.labels).mean())
