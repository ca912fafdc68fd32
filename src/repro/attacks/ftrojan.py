"""FTrojan trigger (Wang et al., ECCV 2022) — attack **A4** in the paper.

FTrojan embeds the backdoor in the frequency domain: a fixed-magnitude
bump is added to selected mid- and high-frequency DCT coefficients, which
is invisible in pixel space but trivially separable for a conv net.

Paper configuration: frequency intensity 40 (on the 0–255 pixel scale,
i.e. 40/255 here), ``pr = 0.02``.  The original operates on YUV channel
blocks; at our scale we apply a whole-image orthonormal DCT-II per
channel and perturb two frequency bins at fixed relative positions
(mid ≈ 0.47·size, high ≈ 0.91·size), which preserves the attack's
character (invisible, frequency-localized, input-independent).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .base import Trigger


class FTrojanTrigger(Trigger):
    """Frequency-domain additive trigger."""

    name = "ftrojan"

    def __init__(self, image_size: int, intensity: float = 40.0 / 255.0,
                 frequencies: Sequence[Tuple[int, int]] = None):
        if image_size < 4:
            raise ValueError("image_size must be >= 4")
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        self.image_size = image_size
        self.intensity = float(intensity)
        if frequencies is None:
            mid = max(1, int(round(0.47 * image_size)))
            high = min(image_size - 1, int(round(0.91 * image_size)))
            frequencies = [(mid, mid), (high, high)]
        self.frequencies = [(int(u), int(v)) for u, v in frequencies]
        for u, v in self.frequencies:
            if not (0 <= u < image_size and 0 <= v < image_size):
                raise ValueError(f"frequency bin ({u},{v}) outside {image_size}px DCT")

    def apply(self, images: np.ndarray) -> np.ndarray:
        # Imported here so that loading the trigger registry (the CLI,
        # training, serving) does not pull in scipy.
        from scipy import fft as sfft

        images = self._validate(images)
        _, _, h, w = images.shape
        if h != self.image_size or w != self.image_size:
            raise ValueError(f"trigger built for {self.image_size}px images, got {h}x{w}")
        # Orthonormal 2-D DCT over the spatial axes (batched over N, C).
        spectrum = sfft.dctn(images, axes=(2, 3), norm="ortho")
        for u, v in self.frequencies:
            spectrum[:, :, u, v] += self.intensity
        out = sfft.idctn(spectrum, axes=(2, 3), norm="ortho")
        return np.clip(out.astype(np.float32), 0.0, 1.0)
