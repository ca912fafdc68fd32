"""STRIP backdoor detection (Gao et al., ACSAC 2019).

STRIP superimposes a suspect input with many random clean images and
measures the Shannon entropy of the model's predictions on the blends.
Clean inputs lose their class evidence under superimposition → high
entropy; backdoored inputs keep triggering the target class → low
entropy.  The detection boundary is the entropy below which at most
``frr`` of clean inputs fall (the paper family uses FRR ≈ 1%).

Fig. 6 of the ReVeil paper reports a signed *decision value* per model:
positive ⇒ backdoor detected.  We define it as the excess detection rate
over the false-rejection budget:

    decision = (fraction of suspects below the boundary) − margin·frr

With an active backdoor, triggered blends stay confidently target-class
(entropy below the boundary for most suspects) ⇒ positive.  Under ReVeil
camouflage the trigger no longer dominates, suspect entropies match
clean ones and only ≈frr of them fall below the boundary ⇒ ≈ (1−margin)
·frr < 0.  The ``margin`` (default 3) is the significance factor that
absorbs boundary-estimation noise.  Sign semantics match the paper;
magnitudes are substrate-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.dataset import ArrayDataset
from ..nn import functional as F
from ..train import predict_logits


@dataclass
class StripResult:
    """Outcome of a STRIP sweep over a suspect set."""

    decision_value: float          # positive => backdoor detected
    boundary: float                # FRR-calibrated entropy threshold
    clean_entropies: np.ndarray    # per-clean-input mean blend entropy
    suspect_entropies: np.ndarray  # per-suspect-input mean blend entropy

    @property
    def detected(self) -> bool:
        return self.decision_value > 0

    @property
    def far(self) -> float:
        """False-acceptance proxy: suspects above the boundary."""
        if len(self.suspect_entropies) == 0:
            return float("nan")
        return float((self.suspect_entropies > self.boundary).mean())


class StripDefense:
    """STRIP detector bound to a model and a clean overlay pool.

    Parameters
    ----------
    model:
        The (suspect) classifier.
    overlay_pool:
        Clean images used for superimposition (defender's held-out data).
    num_overlays:
        Blends per input (paper family uses ~100; scaled default 16).
    alpha:
        Overlay weight in the additive superimposition
        ``blend = clip(input + alpha · overlay)`` — the original STRIP
        adds images, which keeps the trigger at full contrast.
    frr:
        Target false-rejection rate used to calibrate the boundary.
    margin:
        Significance factor in the decision value
        ``detection_rate − margin · frr``.
    seed:
        Seeds overlay selection.
    fold_inference:
        Route the sweep's forward passes through a BatchNorm-folded
        inference copy of the model (built lazily,
        rebuilt automatically if the model's weights change).  On by
        default — STRIP evaluates ``num_overlays`` blends per input, so
        the eval fast path compounds.
    """

    def __init__(self, model: nn.Module, overlay_pool: ArrayDataset,
                 num_overlays: int = 16, alpha: float = 0.5,
                 frr: float = 0.05, margin: float = 3.0, seed: int = 0,
                 fold_inference: bool = True):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < frr < 0.5:
            raise ValueError("frr must be in (0, 0.5)")
        if num_overlays < 1:
            raise ValueError("num_overlays must be >= 1")
        if margin < 1.0:
            raise ValueError("margin must be >= 1")
        self.model = model
        self.overlay_pool = overlay_pool
        self.num_overlays = num_overlays
        self.alpha = alpha
        self.frr = frr
        self.margin = margin
        self.seed = seed
        self.fold_inference = fold_inference
        self._infer = nn.fold.LazyFoldedInference(
            model, enabled=fold_inference, cache=nn.fold.shared_folded_cache())

    # ------------------------------------------------------------------
    def _overlay_blends(self, images: np.ndarray, seed_offset: int):
        """Each overlay's blend batch, in draw order."""
        rng = np.random.default_rng(self.seed + seed_offset)
        pool = self.overlay_pool.images
        for _ in range(self.num_overlays):
            overlays = pool[rng.integers(0, len(pool), size=len(images))]
            yield np.clip(images + self.alpha * overlays,
                          0.0, 1.0).astype(np.float32)

    def blends(self, images: np.ndarray, seed_offset: int = 0) -> np.ndarray:
        """Every superimposed copy of ``images``, overlay-major: row
        ``k * len(images) + i`` is input ``i`` under overlay ``k``.

        Forward them however is convenient and hand the logits to
        :meth:`blend_entropies`; with row-invariant forwards the result
        is bit-equal to :meth:`entropies`.
        """
        return np.concatenate(list(self._overlay_blends(images, seed_offset)))

    def blend_entropies(self, logits: np.ndarray) -> np.ndarray:
        """Mean prediction entropy per input from the logits of
        :meth:`blends` (accumulated overlay by overlay in float64)."""
        per_overlay = np.split(np.asarray(logits), self.num_overlays)
        total = np.zeros(len(per_overlay[0]), dtype=np.float64)
        for overlay_logits in per_overlay:
            z = overlay_logits - overlay_logits.max(axis=1, keepdims=True)
            probs = np.exp(z)
            probs /= probs.sum(axis=1, keepdims=True)
            total += F.entropy_of_probs(probs)
        return total / self.num_overlays

    def entropies(self, images: np.ndarray, seed_offset: int = 0) -> np.ndarray:
        """Mean prediction entropy over superimposed copies, per input.

        One forward per overlay, so peak memory stays that of an
        ``len(images)``-row sweep however many overlays there are.
        """
        model = self._infer.get()
        return self.blend_entropies(np.concatenate(
            [predict_logits(model, blend)
             for blend in self._overlay_blends(images, seed_offset)]))

    def calibrate(self, clean_images: np.ndarray) -> float:
        """FRR-percentile entropy boundary from clean inputs."""
        clean_h = self.entropies(clean_images, seed_offset=1)
        return float(np.quantile(clean_h, self.frr))

    def run(self, clean_images: np.ndarray,
            suspect_images: np.ndarray) -> StripResult:
        """Full sweep: calibrate on clean, score suspects, decide."""
        clean_h = self.entropies(clean_images, seed_offset=1)
        boundary = float(np.quantile(clean_h, self.frr))
        suspect_h = self.entropies(suspect_images, seed_offset=2)
        detection_rate = float((suspect_h < boundary).mean())
        decision = detection_rate - self.margin * self.frr
        return StripResult(decision_value=float(decision), boundary=boundary,
                           clean_entropies=clean_h, suspect_entropies=suspect_h)
