"""SISA exact unlearning (Bourtoule et al., IEEE S&P 2021).

SISA = **S**harded, **I**solated, **S**liced, **A**ggregated training:

- the dataset is partitioned into ``S`` shards, one model per shard;
- each shard is cut into ``R`` slices; the shard model is trained
  incrementally on cumulative slices with a checkpoint *before* each
  slice joins;
- inference aggregates the shard models (label vote or mean softmax);
- unlearning a sample retrains only its shard, restarting from the
  checkpoint taken before the earliest slice containing it.

The paper uses "the naive version of the exact unlearning strategy
SISA" — ``num_shards=1, num_slices=1``, i.e. full retraining — which is
the :class:`SISAConfig` default.  Exactness holds for any (S, R):
after :meth:`SISAEnsemble.unlearn`, no surviving parameter was ever
influenced by the forgotten samples, and the result is bit-identical to
training from scratch without them (verified by the test suite).

Shard/slice assignment is a deterministic hash of the stable
``sample_id``, so membership is reproducible across runs and does not
shift when other samples are deleted.

Shard (re)training runs as self-seeding tasks on the
:mod:`repro.parallel` process pool (``SISAConfig.workers``), in three
steps: plan → run → adopt.  :meth:`SISAEnsemble.plan_fit` and
:meth:`~SISAEnsemble.plan_unlearn` build the tasks without training or
changing anything, :func:`run_shard_tasks` runs them (``run_tasks``
splits them over the processes by their declared cost, rows x epochs),
and :meth:`~SISAEnsemble.adopt_fit` / :meth:`~SISAEnsemble.adopt_unlearn`
install the results; ``fit()`` and ``unlearn()`` are those three steps
in a row.  An unlearn whose every hit shard restarts at slice 0 (always
so with one slice) can be planned before its fit runs and join the
fit's batch, as ``repro.eval.harness.run_pipeline`` does; any other
unlearn runs as a second batch after the fit is adopted.

A task always builds its model from its init seed, and restores a
checkpoint only when it restarts past slice 0, so for retrains from the
initial checkpoint (including the paper's naive 1-shard/1-slice config)
stateful layers such as ``Dropout`` start exactly where a from-scratch
run starts.
Caveat: per-instance RNG state is not captured by checkpoints, so a
multi-slice retrain starting at slice >= 1 of a Dropout model still
draws different masks than a scratch run whose RNG advanced through the
earlier slices; weight-level exactness holds for all RNG-free models
(every ``small_cnn``/ResNet/MobileNet/WideResNet config).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import nn
from ..data.dataset import ArrayDataset
from ..nn.serialization import restore, snapshot
from ..parallel.pool import ensure_picklable, resolve_workers, run_tasks
from ..parallel.shm import share_dataset
from ..parallel.tasks import ShardTrainResult, ShardTrainTask, StageSpec
from ..train import TrainConfig, predict_logits
from .base import UnlearningMethod

ModelFactory = Callable[[], nn.Module]


def _stable_bin(ids: np.ndarray, num_bins: int, salt: int) -> np.ndarray:
    """Deterministic multiplicative hash of sample ids into bins."""
    mixed = (ids.astype(np.uint64) * np.uint64(2654435761)
             + np.uint64(salt * 40503 + 0x9E3779B9)) & np.uint64(0xFFFFFFFF)
    return (mixed % np.uint64(num_bins)).astype(np.int64)


@dataclass(frozen=True)
class SISAConfig:
    """SISA hyper-parameters.

    Defaults implement the paper's "naive" exact unlearning (one shard,
    one slice = full retrain on deletion).
    """

    num_shards: int = 1
    num_slices: int = 1
    aggregation: str = "vote"          # "vote" | "mean"
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    workers: int = 1                   # 1 = serial, 0 = auto, N = pool size

    def __post_init__(self) -> None:
        if self.num_shards < 1 or self.num_slices < 1:
            raise ValueError("num_shards and num_slices must be >= 1")
        if self.aggregation not in ("vote", "mean"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = auto)")


def run_shard_tasks(tasks: List[ShardTrainTask], dataset: ArrayDataset,
                    workers: int) -> List[ShardTrainResult]:
    """Run training tasks over rows of ``dataset``; results in task order.

    ``workers=1`` runs the task objects inline; ``>1`` publishes
    ``dataset`` once in shared memory and splits the tasks by their
    declared cost over that many processes, this one included (see
    :func:`~repro.parallel.pool.run_tasks`).  Both paths give the same
    bits because every task seeds itself.  Any self-seeding
    :class:`ShardTrainTask` may join a batch, not only SISA shards:
    ``run_pipeline`` trains its poison model in the same call.
    """
    workers = resolve_workers(workers)
    pooled = workers > 1 and len(tasks) > 1
    if pooled:
        for task in tasks:
            ensure_picklable(
                task.factory, "model_factory",
                hint="Pass a top-level callable such as "
                     "repro.parallel.ModelSpec when workers > 1.")
    with share_dataset(dataset) if pooled else nullcontext(dataset) as data:
        for task in tasks:
            task.data = data
        try:
            return run_tasks(tasks, workers=workers if pooled else 1)
        finally:
            for task in tasks:
                task.data = None


@dataclass
class FitPlan:
    """The shard trainings of one fit, planned before any of them runs."""

    dataset: ArrayDataset
    tasks: List[ShardTrainTask] = field(default_factory=list)
    # Per shard: (member sample ids, id -> slice index).
    membership: List[Tuple[np.ndarray, Dict[int, int]]] = field(
        default_factory=list)


@dataclass
class UnlearnPlan:
    """The shard retrains of one deletion; tasks index rows of ``dataset``."""

    dataset: ArrayDataset                        # before the deletion
    forget: np.ndarray
    tasks: List[ShardTrainTask] = field(default_factory=list)
    # Per retrained shard: (shard index, hit ids, earliest stage,
    # surviving member ids).
    hits: List[Tuple[int, np.ndarray, int, np.ndarray]] = field(
        default_factory=list)


@dataclass
class _ShardState:
    """One shard's model, data membership and slice checkpoints."""

    model: nn.Module
    member_ids: np.ndarray                       # sample ids in this shard
    slice_of_id: Dict[int, int]                  # id -> slice index
    checkpoints: List[dict] = field(default_factory=list)
    # checkpoints[r] = state *before* slice r joined training.


class SISAEnsemble(UnlearningMethod):
    """Sharded/sliced exact-unlearning ensemble.

    Parameters
    ----------
    model_factory:
        Zero-arg callable building a fresh (untrained) model.  Called
        once per shard; per-shard init seeds are derived from
        ``config.seed`` so shards differ but runs reproduce.
    config:
        :class:`SISAConfig`.
    """

    def __init__(self, model_factory: ModelFactory,
                 config: SISAConfig = SISAConfig()):
        self.model_factory = model_factory
        self.config = config
        self._dataset: Optional[ArrayDataset] = None
        self._shards: List[_ShardState] = []
        self._num_classes: Optional[int] = None

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _shard_of(self, ids: np.ndarray) -> np.ndarray:
        return _stable_bin(ids, self.config.num_shards, self.config.seed)

    def _slice_of(self, ids: np.ndarray) -> np.ndarray:
        return _stable_bin(ids, self.config.num_slices, self.config.seed + 1)

    def _epochs_for_stage(self, stage: int) -> int:
        """Split the epoch budget across slice stages (remainder early)."""
        total = self.config.train.epochs
        slices = self.config.num_slices
        base = total // slices
        extra = 1 if stage < total % slices else 0
        return max(1, base + extra)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _stage_specs(self, shard_index: int, member_rows: np.ndarray,
                     from_stage: int, dataset: ArrayDataset
                     ) -> Tuple[StageSpec, ...]:
        """Cumulative-slice stage plan for one shard.

        ``member_rows`` are positional rows of ``dataset`` owned by the
        shard (dataset order, matching ``select_ids``).  Every stage
        carries its fully-derived :class:`TrainConfig` so the resulting
        task is self-seeding.
        """
        slice_idx = self._slice_of(dataset.sample_ids[member_rows])
        specs = []
        for stage in range(from_stage, self.config.num_slices):
            stage_cfg = replace(
                self.config.train,
                epochs=self._epochs_for_stage(stage),
                cosine_t_max=self.config.train.epochs,
                seed=self.config.train.seed + 1009 * shard_index + 31 * stage,
            )
            specs.append(StageSpec(
                rows=member_rows[slice_idx <= stage],
                train=stage_cfg,
                checkpoint_after=stage + 1 <= self.config.num_slices - 1))
        return tuple(specs)

    def _init_seed(self, shard_index: int) -> int:
        return self.config.seed + 7919 * shard_index

    def plan_fit(self, dataset: ArrayDataset) -> FitPlan:
        """Shard ``dataset`` and plan one training task per shard.

        Nothing is trained and nothing on the ensemble changes; the
        model factory is called only by the tasks, never here.
        """
        if len(np.unique(dataset.sample_ids)) != len(dataset):
            raise ValueError("sample_ids must be unique for SISA training")
        shard_idx = self._shard_of(dataset.sample_ids)
        plan = FitPlan(dataset=dataset)
        for s in range(self.config.num_shards):
            member_rows = np.flatnonzero(shard_idx == s)
            member_ids = dataset.sample_ids[member_rows]
            slice_map = {int(i): int(v) for i, v in
                         zip(member_ids, self._slice_of(member_ids))}
            plan.membership.append((member_ids, slice_map))
            plan.tasks.append(ShardTrainTask(
                shard_index=s, factory=self.model_factory,
                init_seed=self._init_seed(s),
                stages=self._stage_specs(s, member_rows, from_stage=0,
                                         dataset=dataset),
                label=f"sisa-fit-shard-{s}"))
        return plan

    def adopt_fit(self, plan: FitPlan,
                  results: List[ShardTrainResult]) -> "SISAEnsemble":
        """Install the trained shards of ``plan`` (results in task order)."""
        self._dataset = plan.dataset
        self._num_classes = int(plan.dataset.labels.max()) + 1
        self._shards = []
        for s, ((member_ids, slice_map), result) in enumerate(
                zip(plan.membership, results)):
            # Rebuild the shard model locally from its init seed, then
            # load the trained state — the fresh snapshot doubles as
            # checkpoint[0] (the state before slice 0 joined).
            nn.manual_seed(self._init_seed(s))
            model = self.model_factory()
            shard = _ShardState(model=model, member_ids=member_ids,
                                slice_of_id=slice_map,
                                checkpoints=[snapshot(model)])
            restore(model, result.final_state)
            model.eval()
            shard.checkpoints.extend(result.checkpoints)
            self._shards.append(shard)
        return self

    def fit(self, dataset: ArrayDataset) -> "SISAEnsemble":
        """Shard the dataset and train every shard model (pool-aware)."""
        plan = self.plan_fit(dataset)
        return self.adopt_fit(plan, run_shard_tasks(
            plan.tasks, dataset, self.config.workers))

    # ------------------------------------------------------------------
    # Unlearning
    # ------------------------------------------------------------------
    def plan_unlearn(self, forget_ids: Iterable[int],
                     fit: Optional[FitPlan] = None) -> Optional[UnlearnPlan]:
        """Plan the shard retrains that exactly remove ``forget_ids``.

        Each hit shard retrains from the checkpoint taken before the
        earliest slice holding one of the ids.  Given ``fit``, the plan
        is made against that fit before it runs, so that the retrains
        can join the fit's batch.  That works only when every hit shard
        restarts at slice 0 (always so with one slice): a task rebuilds
        slice 0's start state from its init seed, which is exactly what
        checkpoint 0 holds.  Otherwise this returns None, and the
        unlearn is planned after :meth:`adopt_fit`.  The tasks index
        rows of the training set as it was before the deletion.
        """
        if fit is None and self._dataset is None:
            raise RuntimeError("fit() must run before unlearn()")
        if fit is None:
            dataset = self._dataset
            membership = [(shard.member_ids, shard.slice_of_id)
                          for shard in self._shards]
        else:
            dataset, membership = fit.dataset, fit.membership
        forget = np.unique(np.fromiter(forget_ids, dtype=np.int64))
        present = np.isin(forget, dataset.sample_ids)
        if not present.all():
            missing = forget[~present]
            raise KeyError(f"ids not in the training set: {missing[:5].tolist()}...")

        plan = UnlearnPlan(dataset=dataset, forget=forget)
        for s, (member_ids, slice_of_id) in enumerate(membership):
            hit = forget[np.isin(forget, member_ids)]
            if hit.size == 0:
                continue
            earliest = min(slice_of_id[int(i)] for i in hit)
            if earliest > 0 and fit is not None:
                return None
            new_member_ids = member_ids[~np.isin(member_ids, hit)]
            member_rows = np.flatnonzero(
                np.isin(dataset.sample_ids, new_member_ids))
            plan.tasks.append(ShardTrainTask(
                shard_index=s, factory=self.model_factory,
                init_seed=self._init_seed(s),
                stages=self._stage_specs(s, member_rows,
                                         from_stage=earliest,
                                         dataset=dataset),
                start_state=(None if earliest == 0
                             else self._shards[s].checkpoints[earliest]),
                label=f"sisa-unlearn-shard-{s}"))
            plan.hits.append((s, hit, earliest, new_member_ids))
        return plan

    def adopt_unlearn(self, plan: UnlearnPlan,
                      results: List[ShardTrainResult]) -> dict:
        """Install the retrained shards of ``plan`` (results in task order).

        Returns ``{"shards_retrained", "stages_retrained",
        "samples_removed"}`` for cost accounting.
        """
        if self._dataset is None or plan.dataset is not self._dataset:
            raise RuntimeError("the unlearn plan was made for another "
                               "training set; plan it again")
        self._dataset = plan.dataset.without_ids(plan.forget)
        for (s, hit, earliest, new_member_ids), result in zip(plan.hits,
                                                              results):
            shard = self._shards[s]
            shard.member_ids = new_member_ids
            for i in hit:
                shard.slice_of_id.pop(int(i), None)
            shard.checkpoints = (shard.checkpoints[:earliest + 1]
                                 + list(result.checkpoints))
            # Retrain in place: callers holding this shard's model (e.g.
            # the harness's unlearned_model) observe the update.
            restore(shard.model, result.final_state)
            shard.model.eval()
        return {"shards_retrained": len(plan.tasks),
                "stages_retrained": sum(self.config.num_slices - earliest
                                        for _, _, earliest, _ in plan.hits),
                "samples_removed": int(plan.forget.size)}

    def unlearn(self, forget_ids: Iterable[int]) -> dict:
        """Exactly remove the named samples; retrain affected shards.

        Plan → run → adopt: nothing on the ensemble mutates until every
        retraining task has succeeded, so a failed dispatch (e.g.
        WorkerError) leaves the ensemble untouched and the same request
        can simply be retried.  Returns :meth:`adopt_unlearn`'s counts.
        """
        plan = self.plan_unlearn(forget_ids)
        return self.adopt_unlearn(plan, run_shard_tasks(
            plan.tasks, plan.dataset, self.config.workers))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_logits(self, images: np.ndarray) -> np.ndarray:
        """Aggregate shard predictions.

        ``"mean"`` averages shard softmax probabilities; ``"vote"``
        returns vote counts per class (argmax = majority label, ties
        broken by mean probability).
        """
        if not self._shards:
            raise RuntimeError("fit() must run before predict()")
        k = self._num_classes
        probs = np.zeros((len(images), k), dtype=np.float64)
        votes = np.zeros((len(images), k), dtype=np.float64)
        for shard in self._shards:
            logits = predict_logits(shard.model, images)
            z = logits - logits.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            probs += p
            votes[np.arange(len(images)), logits.argmax(axis=1)] += 1.0
        if self.config.aggregation == "mean":
            return probs / len(self._shards)
        # Vote counts with a small mean-probability tiebreak.
        return votes + 1e-6 * probs

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def shard_model(self, index: int = 0) -> nn.Module:
        """The trained model of one shard.

        The returned module is the live shard model: :meth:`unlearn`
        retrains it in place.  Snapshot via :meth:`state_dict` first if
        you need the pre-unlearning weights.
        """
        if not self._shards:
            raise RuntimeError("fit() must run before shard_model()")
        if not 0 <= index < len(self._shards):
            raise IndexError(f"shard index {index} out of range "
                             f"(num_shards={len(self._shards)})")
        return self._shards[index].model

    def state_dict(self, shard: int = 0) -> Dict[str, np.ndarray]:
        """Deep-copied state dict of one shard's model."""
        return self.shard_model(shard).state_dict()

    def snapshot_model(self, shard: int = 0) -> nn.Module:
        """A frozen copy of one shard's model (factory + current state).

        :meth:`unlearn` retrains shard models *in place*, but serving
        registers immutable, fingerprinted entries — so anything that
        pins a version (the ``ModelStore``, the online forget plane)
        takes a snapshot instead of the live module.
        """
        model = self.model_factory()
        model.load_state_dict(self.state_dict(shard))
        model.eval()
        return model

    def shard_of(self, sample_ids) -> np.ndarray:
        """Deterministic shard assignment for sample ids.

        This is the stable user-data → shard map a deletion request is
        routed by; it needs no fitted state (pure salted hash), so the
        serving plane can coalesce requests per shard before touching
        the ensemble.
        """
        ids = np.atleast_1d(np.asarray(sample_ids, dtype=np.int64))
        return self._shard_of(ids)

    @property
    def sample_ids(self) -> np.ndarray:
        """Ids currently in the training set (shrinks as unlearn runs)."""
        if self._dataset is None:
            raise RuntimeError("fit() must run before sample_ids")
        return self._dataset.sample_ids

    # ------------------------------------------------------------------
    @property
    def shard_sizes(self) -> List[int]:
        """Current number of samples per shard."""
        return [len(s.member_ids) for s in self._shards]

    @property
    def num_models(self) -> int:
        return len(self._shards)
