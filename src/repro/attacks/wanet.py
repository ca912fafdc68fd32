"""WaNet trigger (Nguyen & Tran, ICLR 2021) — attack **A3** in the paper.

WaNet warps the whole image with a smooth elastic flow field instead of
stamping a patch, making the trigger visually imperceptible.  Following
the original construction:

1. draw a ``k × k`` control grid of random offsets in [-1, 1];
2. normalize by its mean absolute value and scale by strength ``s``;
3. bicubically upsample to a full ``H × W`` flow field;
4. multiply by ``grid_rescale`` and clip the sampling grid to the image.

Paper configuration: ``k = 8``, ``s = 0.75``, ``grid_rescale = 1``,
``pr = 0.1``.  At bench image sizes (16×16) ``k`` is clamped to the
image size automatically.
"""

from __future__ import annotations

import numpy as np

from .base import Trigger


class WaNetTrigger(Trigger):
    """Elastic warping trigger with a fixed (seeded) warp field."""

    name = "wanet"

    def __init__(self, image_size: int, k: int = 8, s: float = 0.75,
                 grid_rescale: float = 1.0, seed: int = 0):
        # scipy is imported by the methods that need it, so that loading
        # the trigger registry (the CLI, training, serving) does not.
        from scipy import ndimage

        if image_size < 4:
            raise ValueError("image_size must be >= 4")
        if s <= 0:
            raise ValueError("warping strength s must be positive")
        self.image_size = image_size
        self.k = min(k, image_size)
        self.s = float(s)
        self.grid_rescale = float(grid_rescale)
        self.seed = seed

        rng = np.random.default_rng(seed)
        # Control grid in [-1, 1], normalized by mean |offset| (as in the
        # original implementation) then scaled by s.
        control = rng.uniform(-1.0, 1.0, size=(2, self.k, self.k)).astype(np.float32)
        control = control / np.mean(np.abs(control))
        control = control * self.s

        # Bicubic upsample each displacement channel to H×W.  The original
        # uses torch.nn.functional.upsample(mode='bicubic'); scipy zoom
        # with order=3 is the same family of interpolant.
        zoom = image_size / self.k
        flow = np.stack([
            ndimage.zoom(control[0], zoom, order=3, mode="nearest"),
            ndimage.zoom(control[1], zoom, order=3, mode="nearest"),
        ])
        # Normalized identity grid in [-1, 1].
        coords = (np.arange(image_size, dtype=np.float32) + 0.5) / image_size * 2 - 1
        identity_y, identity_x = np.meshgrid(coords, coords, indexing="ij")
        # Displacements are scaled by 1/size as in the reference code so
        # the warp moves pixels by O(s) pixels, not O(s·size).
        grid_y = identity_y + flow[0] / image_size
        grid_x = identity_x + flow[1] / image_size
        grid_y = np.clip(grid_y * self.grid_rescale, -1.0, 1.0)
        grid_x = np.clip(grid_x * self.grid_rescale, -1.0, 1.0)

        # Convert the normalized sampling grid to pixel coordinates for
        # scipy.ndimage.map_coordinates.
        self._sample_rows = (grid_y + 1) / 2 * image_size - 0.5
        self._sample_cols = (grid_x + 1) / 2 * image_size - 0.5

    def apply(self, images: np.ndarray) -> np.ndarray:
        from scipy import ndimage

        images = self._validate(images)
        n, c, h, w = images.shape
        if h != self.image_size or w != self.image_size:
            raise ValueError(f"trigger built for {self.image_size}px images, got {h}x{w}")
        coords = np.stack([self._sample_rows, self._sample_cols])
        out = np.empty_like(images)
        for i in range(n):
            for ch in range(c):
                out[i, ch] = ndimage.map_coordinates(
                    images[i, ch], coords, order=1, mode="nearest")
        return np.clip(out, 0.0, 1.0)
