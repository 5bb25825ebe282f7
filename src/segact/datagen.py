"""Deterministic synthetic binary-segmentation tasks and k-fold splits.

Each sample is a square image: per pixel the features are the two
coordinates normalized to [-1, 1] plus a noisy intensity channel that
equals the mask corrupted by Gaussian noise.  Shapes (disk, annulus or
two blobs) are placed at seeded random positions with margins, so every
generated mask contains both classes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHAPES = ("disk", "annulus", "two-blobs")

#: Noise levels for the shipped difficulty presets.
PRESETS = {"easy": 0.1, "medium": 0.5, "hard": 1.0}


@dataclass(frozen=True)
class TaskConfig:
    """Settings for one synthetic segmentation task."""

    n_images: int = 200
    image_side: int = 32
    shape: str = "disk"
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.image_side < 8:
            raise ValueError("image_side must be at least 8")
        if self.n_images < 1:
            raise ValueError("n_images must be at least 1")
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")


@dataclass(frozen=True)
class Sample:
    """One image: per-pixel features, binary mask, foreground share."""

    features: np.ndarray  # (n_pixels, 3): x, y in [-1, 1], intensity
    mask: np.ndarray      # (n_pixels,) uint8
    foreground_fraction: float


def _disk_mask(rng, side, grid_x, grid_y):
    r = rng.uniform(side / 8.0, side * 5.0 / 16.0)
    cx = rng.uniform(r, side - 1 - r)
    cy = rng.uniform(r, side - 1 - r)
    return (grid_x - cx) ** 2 + (grid_y - cy) ** 2 <= r * r


def _annulus_mask(rng, side, grid_x, grid_y):
    r = rng.uniform(side / 8.0, side * 5.0 / 16.0)
    r_in = r * rng.uniform(0.3, 0.6)
    cx = rng.uniform(r, side - 1 - r)
    cy = rng.uniform(r, side - 1 - r)
    dist2 = (grid_x - cx) ** 2 + (grid_y - cy) ** 2
    return (dist2 <= r * r) & (dist2 >= r_in * r_in)


def _two_blobs_mask(rng, side, grid_x, grid_y):
    mask = np.zeros_like(grid_x, dtype=bool)
    for _ in range(2):
        r = rng.uniform(side / 10.0, side / 5.0)
        cx = rng.uniform(r, side - 1 - r)
        cy = rng.uniform(r, side - 1 - r)
        mask |= (grid_x - cx) ** 2 + (grid_y - cy) ** 2 <= r * r
    return mask


_SHAPE_FNS = {
    "disk": _disk_mask,
    "annulus": _annulus_mask,
    "two-blobs": _two_blobs_mask,
}

_MAX_REDRAWS = 100


def generate(cfg: TaskConfig) -> list[Sample]:
    """Generate the task's samples; bitwise identical for the same cfg."""
    side = cfg.image_side
    rows, cols = np.mgrid[0:side, 0:side]
    coords = np.column_stack([
        2.0 * cols.ravel() / (side - 1) - 1.0,
        2.0 * rows.ravel() / (side - 1) - 1.0,
    ])
    shape_fn = _SHAPE_FNS[cfg.shape]
    rng = np.random.default_rng(cfg.seed)

    samples = []
    for _ in range(cfg.n_images):
        for _ in range(_MAX_REDRAWS):
            mask = shape_fn(rng, side, cols, rows).ravel()
            fraction = float(mask.mean())
            if 0.0 < fraction < 1.0:
                break
        else:
            raise RuntimeError("failed to draw a nondegenerate mask")
        intensity = mask.astype(float)
        if cfg.noise_sigma > 0.0:
            intensity = intensity + cfg.noise_sigma * \
                rng.standard_normal(side * side)
        features = np.column_stack([coords, intensity])
        samples.append(Sample(features=features,
                              mask=mask.astype(np.uint8),
                              foreground_fraction=fraction))
    return samples


def stack(samples) -> tuple[np.ndarray, np.ndarray]:
    """Pack samples into (n, pixels, 3) features and (n, pixels) masks."""
    X = np.stack([s.features for s in samples])
    y = np.stack([s.mask for s in samples]).astype(float)
    return X, y


def kfold_split(n_items: int, k: int = 5, seed: int = 0):
    """Seeded shuffle then contiguous partition into k (train, val) pairs.

    Validation folds are disjoint, cover every index, and differ in size
    by at most one.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n_items < k:
        raise ValueError("need at least k items to build k folds")
    order = np.random.default_rng(seed).permutation(n_items)
    folds = np.array_split(order, k)
    splits = []
    for i, val in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        splits.append((np.sort(train), np.sort(val)))
    return splits
