"""Online STRIP screening: the victim's deploy-time detector, live.

STRIP (Gao et al., ACSAC 2019 — offline sweep in
:class:`repro.defenses.StripDefense`) is the last line of defense the
ReVeil threat model must survive *after* deployment: the provider
screens every incoming request by superimposition entropy and flags
low-entropy inputs as likely triggered.  :class:`OnlineStrip` adapts
the offline detector to serving traffic in two steps around the served
forward:

- :meth:`OnlineStrip.rows` draws the blend rows of a batch (the
  offline detector's :meth:`~repro.defenses.StripDefense.blends`, same
  RNG draws); the batcher appends them after the request rows, in the
  space it would otherwise fill with zero padding, so **one** forward
  serves the requests and screens them;
- :meth:`OnlineStrip.score` turns the blend rows' logits into
  per-input entropies and flags.  Every GEMM is row-invariant
  (:func:`repro.nn.tensor.matmul_rows`), so a blend's logits do not
  depend on where it sat in the batch, and the entropies are bit-equal
  to the offline ``StripDefense.entropies`` sweep.

One :class:`~repro.defenses.StripDefense` is bound lazily per served
model *version*, to the store's folded inference copy.  Its entropy
boundary is calibrated once per version from a held-out clean set at
the configured false-rejection rate, in the submitting thread (never
the batcher worker, so queued traffic doesn't stall behind a
hot-swap's first calibration).  Per-version counters expose the
running flag rate via ``/metrics``: serving the camouflaged model shows
a flag rate near the FRR, and the post-unlearning hot-swap makes the
rate on triggered traffic jump — the paper's pre- vs post-restoration
detectability story as a live signal.

Screening is a monitoring side-channel: it never alters the served
logits.  Entropies are computed with a fixed seed but the overlay draw
spans the whole screened batch, so (unlike the logits) entropy values
carry no solo-vs-coalesced bit-identity guarantee.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..defenses.strip import StripDefense
from ..nn.module import Module


@dataclass(frozen=True)
class ScreenConfig:
    """Knobs of the online screen (defaults sized for serving latency)."""

    num_overlays: int = 8
    alpha: float = 0.5
    frr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_overlays < 1:
            raise ValueError("num_overlays must be >= 1")


class OnlineStrip:
    """Per-model-version STRIP screen over incoming requests.

    Parameters
    ----------
    overlay_pool:
        Clean images used for superimposition (the defender's held-out
        data; also the source of the calibration set by default).
    calibration_images:
        Clean inputs used to fix the entropy boundary per version.
    config:
        :class:`ScreenConfig`.
    """

    def __init__(self, overlay_pool: ArrayDataset,
                 calibration_images: Optional[np.ndarray] = None,
                 config: ScreenConfig = ScreenConfig()):
        if len(overlay_pool) == 0:
            raise ValueError("overlay_pool must be non-empty")
        self.overlay_pool = overlay_pool
        if calibration_images is None:
            calibration_images = overlay_pool.images
        if len(calibration_images) == 0:
            raise ValueError("calibration_images must be non-empty")
        self.calibration_images = np.asarray(calibration_images,
                                             dtype=np.float32)
        self.config = config
        self._lock = threading.Lock()
        self._bind_locks: Dict[Hashable, threading.Lock] = {}
        self._detectors: Dict[Hashable, StripDefense] = {}
        self._boundaries: Dict[Hashable, float] = {}
        self._screened: Dict[Hashable, int] = {}
        self._flagged: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    def ensure_bound(self, key: Hashable, model: Module) -> StripDefense:
        """Detector + calibrated boundary for one served version.

        ``model`` must be the served *inference copy* (the store's
        folded model): the detector is built with
        ``fold_inference=False`` so screening forwards through exactly
        what the scheduler serves, with no per-batch fingerprinting and
        no extra fold.

        Calibration forwards ``num_overlays x |calibration|`` blends,
        so the server runs this in the *submitting* thread before a
        request is queued — the batcher worker (and every queued
        request for other versions) never stalls behind it.  Per-key
        single-flight: concurrent first requests calibrate once.
        """
        with self._lock:
            detector = self._detectors.get(key)
            if detector is not None:
                return detector
            bind_lock = self._bind_locks.setdefault(key, threading.Lock())
        with bind_lock:
            with self._lock:
                detector = self._detectors.get(key)
                if detector is not None:    # lost the race: already bound
                    return detector
            cfg = self.config
            detector = StripDefense(model, self.overlay_pool,
                                    num_overlays=cfg.num_overlays,
                                    alpha=cfg.alpha, frr=cfg.frr,
                                    seed=cfg.seed, fold_inference=False)
            boundary = detector.calibrate(self.calibration_images)
            with self._lock:
                self._detectors[key] = detector
                self._boundaries[key] = boundary
                self._screened[key] = 0
                self._flagged[key] = 0
            return detector

    def rows(self, key: Hashable, model: Module,
             images: np.ndarray) -> np.ndarray:
        """The blend rows that screen ``images`` (overlay-major).

        The batcher forwards them in the same batch as the request's
        own rows and hands their logits to :meth:`score`.
        """
        return self.ensure_bound(key, model).blends(images, seed_offset=2)

    def score(self, key: Hashable, model: Module, images: np.ndarray,
              blend_logits: np.ndarray) -> Dict[str, np.ndarray]:
        """Score one served batch from the logits of its :meth:`rows`;
        returns per-row entropy and flags, which the batcher slices
        per request."""
        detector = self.ensure_bound(key, model)
        entropies = detector.blend_entropies(blend_logits)
        with self._lock:
            boundary = self._boundaries[key]
        flagged = entropies < boundary
        with self._lock:
            self._screened[key] += len(images)
            self._flagged[key] += int(flagged.sum())
        return {"entropy": entropies,
                "flagged": flagged,
                "boundary": np.full(len(images), boundary)}

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, dict]:
        """Per-version screening counters for ``/metrics``."""
        with self._lock:
            return {
                "/".join(map(str, key)): {
                    "screened": self._screened[key],
                    "flagged": self._flagged[key],
                    "flag_rate": (self._flagged[key] / self._screened[key]
                                  if self._screened[key] else 0.0),
                    "boundary": self._boundaries[key],
                }
                for key in sorted(self._detectors)
            }
