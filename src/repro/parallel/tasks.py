"""Picklable task specs: "train this model on these rows with this seed".

A task carries everything a worker needs — a picklable model factory,
the model-init seed, per-stage row indices into a (possibly shared)
dataset and per-stage :class:`~repro.train.TrainConfig`s whose seeds are
already derived — so running it is a pure function of the spec.  The
same objects run inline for ``workers=1`` and in a pool for
``workers>1``; both paths produce bit-identical states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .. import nn
from ..data.dataset import ArrayDataset
from ..models.registry import build_model
from ..nn.serialization import restore, snapshot
from ..train import TrainConfig, train_model
from .shm import SharedDatasetHandle

#: A task's dataset is either inline (serial path) or a shm handle.
DatasetRef = Union[ArrayDataset, SharedDatasetHandle]


@dataclass(frozen=True)
class ModelSpec:
    """Picklable zero-arg model factory.

    ``SISAEnsemble`` accepts any callable factory, but lambdas and
    closures cannot cross a process boundary; ``ModelSpec`` names the
    registry model instead and rebuilds it in the worker.
    """

    name: str
    num_classes: int
    scale: str = "bench"
    in_channels: int = 3

    def __call__(self) -> nn.Module:
        return build_model(self.name, self.num_classes, scale=self.scale,
                           in_channels=self.in_channels)


@dataclass(frozen=True)
class StageSpec:
    """One cumulative-slice training stage of a shard task.

    ``rows`` are positional indices into the task's dataset (already
    cumulative over slices ``<= stage``, in dataset order).
    """

    rows: np.ndarray
    train: TrainConfig
    checkpoint_after: bool = False


@dataclass(frozen=True)
class ShardTrainResult:
    """What a shard training task sends back to the parent (pickled)."""

    shard_index: int
    final_state: Dict[str, np.ndarray]
    checkpoints: Tuple[Dict[str, np.ndarray], ...]


@dataclass
class ShardTrainTask:
    """Self-seeding SISA shard (re)training.

    The task seeds the init RNG itself (``nn.manual_seed(init_seed)``)
    before building the model, so per-shard initialization no longer
    depends on the order shards are trained in — which is exactly what
    makes pool execution bit-identical to serial.  A single model (the
    harness's poison model) is a one-stage task with ``shard_index=0``.
    """

    shard_index: int
    factory: Callable[[], nn.Module]
    init_seed: int
    stages: Tuple[StageSpec, ...]
    start_state: Optional[Dict[str, np.ndarray]] = None
    data: Optional[DatasetRef] = None
    label: str = ""

    @property
    def cost(self) -> int:
        """Declared work, rows x epochs over every stage: what
        :func:`~repro.parallel.pool.run_tasks` balances its split by."""
        return sum(int(stage.rows.size) * stage.train.epochs
                   for stage in self.stages)

    def run(self) -> ShardTrainResult:
        if self.data is None:
            raise RuntimeError(f"task {self.label!r} has no dataset attached")
        attachment = None
        if isinstance(self.data, SharedDatasetHandle):
            attachment = self.data.open()
            dataset = attachment.dataset
        else:
            dataset = self.data
        try:
            nn.manual_seed(self.init_seed)
            model = self.factory()
            if self.start_state is not None:
                restore(model, self.start_state)
            checkpoints = []
            for stage in self.stages:
                if stage.rows.size == 0:
                    # Degenerate but possible with tiny shards: keep the
                    # checkpoint chain aligned and move on.
                    if stage.checkpoint_after:
                        checkpoints.append(snapshot(model))
                    continue
                train_model(model, dataset.subset(stage.rows), stage.train)
                if stage.checkpoint_after:
                    checkpoints.append(snapshot(model))
            return ShardTrainResult(shard_index=self.shard_index,
                                    final_state=snapshot(model),
                                    checkpoints=tuple(checkpoints))
        finally:
            if attachment is not None:
                attachment.close()
